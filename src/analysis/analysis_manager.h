/**
 * @file
 * AnalysisManager: per-function analysis caching for the staged
 * translation pipeline. The paper's premise (Section 4.2) is that
 * compile-, install-, run-, and idle-time optimization all operate
 * on one persistent representation; the analyses computed over that
 * representation are equally persistent — a DominatorTree survives
 * every pass that does not change the CFG. Passes declare what they
 * preserved via a PreservedAnalyses value and the manager
 * invalidates exactly the rest, so a mem2reg → instcombine → SCCP
 * sequence computes dominators once instead of once per pass.
 */

#ifndef LLVA_ANALYSIS_ANALYSIS_MANAGER_H
#define LLVA_ANALYSIS_ANALYSIS_MANAGER_H

#include <map>
#include <memory>

#include "analysis/dominators.h"
#include "analysis/loop_info.h"

namespace llva {

/** The analyses an AnalysisManager can compute and cache. */
enum class AnalysisID : unsigned {
    DominatorTree = 0,
    LoopInfo = 1,
};

/**
 * What a pass left intact. Returned by every pass run; the pass
 * manager hands it to AnalysisManager::invalidate. The contract is
 * conservative: a pass may only claim to preserve an analysis if
 * every cached result is still correct for the transformed
 * function. Passes that rewrite instructions but never add, remove,
 * or re-wire basic blocks preserve the (purely CFG-derived)
 * DominatorTree and LoopInfo and return all(); passes that edit the
 * CFG return none().
 */
class PreservedAnalyses
{
  public:
    /** Everything preserved (IR untouched, or only non-CFG edits). */
    static PreservedAnalyses
    all()
    {
        PreservedAnalyses pa;
        pa.mask_ = ~0u;
        return pa;
    }

    /** Nothing preserved (CFG changed). */
    static PreservedAnalyses none() { return PreservedAnalyses(); }

    PreservedAnalyses &
    preserve(AnalysisID id)
    {
        mask_ |= 1u << static_cast<unsigned>(id);
        return *this;
    }

    bool
    preserved(AnalysisID id) const
    {
        return mask_ & (1u << static_cast<unsigned>(id));
    }

  private:
    unsigned mask_ = 0;
};

/**
 * Caches analysis results per function. Not thread-safe: each
 * optimization pipeline (a module run, or one translation rung's
 * function pipeline) owns one manager and runs serially.
 */
class AnalysisManager
{
  public:
    /** Dominator tree for \p f, computed on first use then cached. */
    DominatorTree &dominators(const Function &f);

    /** Natural-loop info for \p f (forces dominators as well). */
    LoopInfo &loops(const Function &f);

    /** Drop whatever \p pa does not claim to preserve for \p f. */
    void invalidate(const Function &f, const PreservedAnalyses &pa);

    /**
     * Preservation audit (debug builds, on by default there): when a
     * pass claims to have preserved a cached DominatorTree, recompute
     * one from scratch and fatal() if the idoms differ — i.e. the
     * pass lied about what it preserved. Costs a full domtree build
     * per audited claim, hence debug-only by default.
     */
    void setAuditPreservation(bool v) { auditPreservation_ = v; }
    bool auditPreservation() const { return auditPreservation_; }

    /** Drop all cached results for \p f. */
    void invalidate(const Function &f);

    /** Drop everything (after a module pass changed the program). */
    void clear();

    /** True if a result is currently cached (tests, telemetry). */
    bool isCached(const Function &f, AnalysisID id) const;

  private:
    struct Slot
    {
        std::unique_ptr<DominatorTree> domtree;
        std::unique_ptr<LoopInfo> loopinfo;
    };

    std::map<const Function *, Slot> slots_;
#ifdef NDEBUG
    bool auditPreservation_ = false;
#else
    bool auditPreservation_ = true;
#endif
};

} // namespace llva

#endif // LLVA_ANALYSIS_ANALYSIS_MANAGER_H
