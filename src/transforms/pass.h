/**
 * @file
 * Pass framework: the optimization pipeline that runs over virtual
 * object code at compile-, link-, install-, run-, or idle-time
 * (paper Section 4.2's four optimization opportunities all operate
 * on this same representation).
 *
 * The pipeline is staged and per-function: consecutive function
 * passes form a stage that is driven function-at-a-time over a
 * shared AnalysisManager, so an analysis computed by one pass
 * (e.g. the dominator tree mem2reg builds) is still hot when the
 * next pass asks for it. Every pass reports what it preserved; the
 * manager invalidates exactly the rest. Module passes are stage
 * barriers.
 */

#ifndef LLVA_TRANSFORMS_PASS_H
#define LLVA_TRANSFORMS_PASS_H

#include <memory>
#include <string>
#include <vector>

#include "analysis/analysis_manager.h"
#include "ir/module.h"

namespace llva {

/**
 * What one pass application did: whether the IR changed, and which
 * cached analyses survived. The two are independent — GVN deletes
 * instructions (changed) without touching the CFG (dominators
 * preserved), while a no-op SimplifyCFG run preserves everything.
 */
struct PassResult
{
    bool changed = false;
    PreservedAnalyses preserved = PreservedAnalyses::all();

    /** IR untouched; everything stays cached. */
    static PassResult
    unchanged()
    {
        return {false, PreservedAnalyses::all()};
    }

    /** IR changed; \p pa says what is still valid. */
    static PassResult
    modified(PreservedAnalyses pa)
    {
        return {true, pa};
    }
};

/** A transformation applied to one function at a time. */
class FunctionPass
{
  public:
    virtual ~FunctionPass() = default;

    /**
     * Transform \p f, taking analyses from \p am instead of
     * computing them locally. Implementations must not claim to
     * preserve an analysis they invalidated (the verifying pass
     * manager cross-checks this in tests).
     */
    virtual PassResult run(Function &f, AnalysisManager &am) = 0;

    virtual const char *name() const = 0;
};

/** A whole-module (interprocedural) transformation. */
class ModulePass
{
  public:
    virtual ~ModulePass() = default;

    virtual PassResult run(Module &m, AnalysisManager &am) = 0;

    virtual const char *name() const = 0;
};

/** Wall-clock cost of one pipeline entry across the last run. */
struct PassTiming
{
    std::string name;
    double seconds = 0;
    /** Individual applications (functions visited, or 1 per module
     *  pass). */
    size_t invocations = 0;
    bool changed = false;
};

/**
 * Resource ceiling for one pass application, checked on every run. A
 * pass that exceeds it fails exactly like a faulting pass. Wall clock
 * is necessarily checked after the pass returns (passes are not
 * preemptible), so the budget bounds damage per application, not the
 * absolute latency of one.
 */
struct PassBudget
{
    /** Max wall-clock seconds for a single application. */
    double maxSeconds = 5.0;
    /** Max IR instruction growth factor for a single application. */
    double maxGrowth = 8.0;
    /** Units smaller than this may always grow up to it (a
     *  3-instruction function legitimately triples). */
    size_t growthFloor = 512;
};

/**
 * Deterministic global pass-application counter (LLVM-style
 * -opt-bisect-limit). When a limit is set, every pass application
 * process-wide draws the next index; applications whose index
 * exceeds the limit are skipped. Because pipelines run passes in a
 * deterministic serial order, an output difference can be
 * binary-searched over the limit to the exact application — and
 * description() names it.
 */
class OptBisect
{
  public:
    /** Enable with a limit (>= 0); negative disables. Resets the
     *  counter and the recorded decisions. */
    static void setLimit(int64_t limit);
    static int64_t limit();
    static bool enabled();

    /** Applications drawn since the limit was set. */
    static int64_t count();

    /** Draw the next index for (pass, unit); true = run it. Records
     *  the decision and echoes it to stderr, like LLVM. */
    static bool shouldRun(const char *pass, const std::string &unit);

    /** "pass on unit" for a 1-based application index ("" if out of
     *  range or bisect disabled). */
    static std::string description(int64_t index);
};

/**
 * Runs a sequence of passes as a staged per-function pipeline.
 * Consecutive function passes are applied function-major (all
 * stage passes to one function before moving to the next) so the
 * AnalysisManager cache stays hot; module passes act as barriers
 * and flush the cache when they change anything.
 *
 * Every application goes through one routine: bisect, run, budget,
 * invalidate and, with verify-each, verify. Any failure (the pass
 * throws, blows its PassBudget, or leaves IR the verifier rejects)
 * ends the run with a FatalError naming the pass, the function and
 * the cause, and is counted in passes.contained_failures (and in
 * passes.budget_exceeded). The manager restores nothing: the
 * translator's rung holds the one restore point and degrades a tier
 * (vm/code_manager.h), and batch tools stop loudly.
 */
class PassManager
{
  public:
    void
    add(std::unique_ptr<FunctionPass> p)
    {
        entries_.push_back({std::move(p), nullptr});
    }

    void
    add(std::unique_ptr<ModulePass> p)
    {
        entries_.push_back({nullptr, std::move(p)});
    }

    void setVerifyEach(bool v) { verifyEach_ = v; }

    void setBudget(const PassBudget &b) { budget_ = b; }
    const PassBudget &budget() const { return budget_; }

    /**
     * Declare that this manager holds the standard pipeline at \p
     * level (addStandardPasses does). A module run that completes
     * with no application skipped by OptBisect then raises the
     * module's optimizationLevel() to \p level; it never lowers it.
     */
    void setStandardLevel(unsigned level) { standardLevel_ = level; }

    /** Run all passes; returns true if anything changed. */
    bool run(Module &m);

    /** Run with an external AnalysisManager (tests, pipelining). */
    bool run(Module &m, AnalysisManager &am);

    /**
     * Run only the function passes over a single function (the tier
     * ladder retranslates one function at a time). Panics if the
     * pipeline contains a module pass.
     */
    bool runOnFunction(Function &f, AnalysisManager &am);

    /** Names of passes that reported changes in the last run. */
    const std::vector<std::string> &changedPasses() const
    {
        return changed_;
    }

    /** Per-pass wall-clock timing of the last run, pipeline order. */
    const std::vector<PassTiming> &timings() const
    {
        return timings_;
    }

    /** The `-time-passes` report for the last run. */
    std::string timingReport() const;

  private:
    struct Entry
    {
        std::unique_ptr<FunctionPass> fp;
        std::unique_ptr<ModulePass> mp;

        const char *
        name() const
        {
            return fp ? fp->name() : mp->name();
        }
    };

    /** Reset the last run's changed passes and timings. */
    void beginRun();
    /** Collect the changed passes; true if any pass changed the IR. */
    bool endRun();

    /**
     * The one application routine: entry \p k on \p f, or on \p m
     * when \p f is null (a module pass). Bisects, runs, checks the
     * budget, invalidates, verifies under verify-each, and adds the
     * application to timings_[k]. Throws FatalError on a failure.
     */
    void apply(size_t k, Module &m, Function *f, AnalysisManager &am);

    std::vector<Entry> entries_;
    std::vector<std::string> changed_;
    std::vector<PassTiming> timings_;
    PassBudget budget_;
    bool verifyEach_ = false;
    unsigned standardLevel_ = 0;
    /** An application of the current run was skipped by OptBisect. */
    bool skipped_ = false;
};

// Factory functions for the standard passes.
std::unique_ptr<FunctionPass> createMem2RegPass();
std::unique_ptr<FunctionPass> createSCCPPass();
std::unique_ptr<FunctionPass> createDCEPass();
std::unique_ptr<FunctionPass> createADCEPass();
std::unique_ptr<FunctionPass> createGVNPass();
std::unique_ptr<FunctionPass> createInstCombinePass();
std::unique_ptr<FunctionPass> createSimplifyCFGPass();
std::unique_ptr<ModulePass> createInlinerPass(unsigned threshold = 40);
/** Demote phis to stack slots (models naive front-end output). */
std::unique_ptr<FunctionPass> createReg2MemPass();
/**
 * Automatic Pool Allocation (Section 5.1): partition the heap into
 * one pool per disjoint data-structure instance found by the
 * points-to analysis.
 */
std::unique_ptr<ModulePass> createPoolAllocationPass();

/**
 * The function pipeline, which the tier ladder runs on one function
 * at a time (so it holds no module pass).
 *  - level 0: nothing.
 *  - level 1: mem2reg, instcombine, SCCP, GVN, ADCE, simplifycfg.
 *  - level 2: level 1 plus a second scalar round.
 */
void addFunctionPasses(PassManager &pm, unsigned level);

/**
 * The standard optimization pipeline: the function pipeline, with
 * the inliner ahead of -O2's second scalar round (the "link-time
 * interprocedural" configuration of Section 4.2). \p pm records it,
 * so a completed run marks the module as optimized at \p level.
 */
void addStandardPasses(PassManager &pm, unsigned level);

} // namespace llva

#endif // LLVA_TRANSFORMS_PASS_H
