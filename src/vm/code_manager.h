/**
 * @file
 * CodeManager: the translator's code cache. Functions are translated
 * on demand (JIT mode, paper Section 4.1: "the JIT translates
 * functions on demand, so that unused code is not translated") or
 * eagerly (offline mode). Translation wall-clock time is recorded
 * per function — this is the "Translate Time" column of Table 2.
 *
 * SMC support (Section 3.4): invalidating a function simply drops
 * its translation, "forcing it to be regenerated the next time the
 * function is invoked." replaceFunctionLive() is the push-style
 * variant: drop + retranslate in one atomic step, so other threads
 * never observe a translation gap while a function is swapped
 * under them.
 *
 * Tiered degradation: each function is code-generated at the
 * requested optimization level (0, 1 or 2; the constructor rejects
 * anything else). A rung above the level the module records
 * (Module::optimizationLevel, which bytecode carries) first runs the
 * function pipeline at its level on the body in place, then
 * restores the body from the snapshot it took first; a rung at or
 * below the record runs no pass, takes no snapshot and only
 * generates code, because the producer optimized the module ahead
 * of time (paper Section 4.2). The rung is the failure domain: any
 * failure in it (a pass fault, a blown pass budget, IR the verifier
 * rejects, a codegen fault) abandons the tier, and the function is
 * retranslated one level lower, down to -O0 and finally the
 * interpreter (get() returns nullptr for interpreter-pinned
 * functions). A fault in one function's translation therefore never
 * takes down the program — it costs that one function performance.
 *
 * Adaptive promotion (Section 4.2): with a runtime profile attached
 * (setAdaptive), a function whose profiled block executions cross
 * the watermark is retranslated at the ladder's top rung —
 * `-O<level>+traces` — which forms hot traces from the profile and
 * hands their trace-first block order to instruction selection; the
 * IR keeps its own order. The new body is installed through the
 * same install path; the replaced one is retired, not destroyed,
 * because the simulator may still be executing it (raw pointers into
 * it live in its frames).
 *
 * One cache entry per function: a ChainedFunction (vm/chain.h)
 * holds the native body, its chained form — built once, by the
 * install step — and the tier it was installed at. Entries are
 * installed, retired and reclaimed as a unit.
 *
 * Epoch-based reclamation: every retirement advances an epoch
 * counter and tags the retired entry with it; every executing
 * simulator pins the epoch current at its entry (pinEpoch/
 * unpinEpoch) for the duration of its activation. A retired entry
 * is freed exactly when no pin predates its retirement — i.e. no
 * thread can still hold a frame pointer into it. With no concurrent
 * activations the list drains to empty on every retire, so
 * single-threaded use is leak-free too.
 *
 * Thread safety: all cache state is guarded by a shared_mutex
 * (readers: dispatch lookups; writers: translation, installation,
 * retirement, reclamation). A rung that runs passes mutates the body
 * in place (snapshot/restore), so interpreter-tier execution of a
 * function body — the only concurrent IR *reader* — must hold the
 * shared lock (readLock()) for its duration. The attached profile
 * has its own mutex: simulator threads record into thread-local
 * profiles and publish them with mergeProfile(); promotion reads the
 * merged master under the same lock. A simulator itself shares no
 * profile state: it counts into slot arrays its running activation
 * owns and folds them into the profile it records into on its own
 * thread (see MachineSimulator::setProfile), so only a simulator
 * alone on its manager may record into the attached profile.
 */

#ifndef LLVA_VM_CODE_MANAGER_H
#define LLVA_VM_CODE_MANAGER_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <vector>

#include "codegen/codegen.h"
#include "llee/envelope.h"
#include "trace/trace.h"
#include "transforms/pass.h"
#include "vm/chain.h"

namespace llva {

class ThreadPool;

/**
 * Test seams into the per-tier translation pipeline (mirrors the
 * storage layer's FaultInjectingStorage): extendPipeline may append
 * extra (e.g. deliberately faulting) passes per tier; beforeCodegen
 * runs just before instruction selection and may throw to simulate
 * a codegen fault at a given tier.
 */
struct TranslationHooks
{
    std::function<void(PassManager &, unsigned level)> extendPipeline;
    std::function<void(const Function &, unsigned level)> beforeCodegen;

    explicit operator bool() const
    {
        return static_cast<bool>(extendPipeline) ||
               static_cast<bool>(beforeCodegen);
    }
};

class CodeManager
{
  public:
    /** Throws FatalError when \p opts asks for a level above -O2:
     *  the ladder's rungs are -O2, -O1 and -O0. */
    CodeManager(Target &target, CodeGenOptions opts = {});

    Target &target() { return target_; }
    const CodeGenOptions &options() const { return opts_; }

    void setHooks(TranslationHooks hooks)
    {
        std::unique_lock<std::shared_mutex> lock(mu_);
        hooks_ = std::move(hooks);
    }

    /**
     * The installed entry for \p f — its body and chained form —
     * translating now if needed, possibly at a degraded tier.
     * Returns nullptr when \p f is pinned to the interpreter (every
     * native tier failed): the caller must interpret it.
     */
    const ChainedFunction *chained(const Function *f);

    /** chained(\p f)'s body, or nullptr when \p f is pinned. */
    const MachineFunction *
    get(const Function *f)
    {
        const ChainedFunction *c = chained(f);
        return c ? c->function() : nullptr;
    }

    bool
    has(const Function *f) const
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        return cache_.count(f) != 0;
    }

    /** The currently installed body of \p f, or nullptr — a pure
     *  lookup that never triggers translation. */
    const MachineFunction *
    cached(const Function *f) const
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        auto it = cache_.find(f);
        return it == cache_.end() ? nullptr : it->second->function();
    }

    /** Drop a translation (SMC invalidation). */
    void invalidate(const Function *f);

    /**
     * Atomically replace the installed translation of \p f with a
     * freshly translated body while other threads may be executing
     * the old one (paper Section 3.4, live-update). The old body is
     * retired (epoch-tagged, reclaimed once unpinned) and the
     * ladder walks from the top again — including for a function
     * previously pinned to the interpreter, so a replacement whose
     * translation now succeeds un-pins it. Returns the new body, or
     * nullptr if every native tier failed again.
     */
    const MachineFunction *replaceFunctionLive(const Function *f);

    /** Eagerly translate every defined function in \p m that is
     *  not cached yet, each as get() would, in module order. */
    void translateAll(const Module &m);

    /**
     * Install an externally produced translation (LLEE cache,
     * checkpoint restore) at its achieved \p tier, retiring the body
     * it replaces. A null \p mf pins \p f to the interpreter; a body
     * at kTierInterpreter is a caller bug.
     */
    void install(const Function *f,
                 std::unique_ptr<MachineFunction> mf, uint8_t tier);

    // --- Tier ladder ------------------------------------------------------

    /** Pin \p f to the interpreter (tier of last resort). */
    void markInterpreted(const Function *f);

    bool
    isInterpreted(const Function *f) const
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        return pinnedLocked(f);
    }

    /**
     * Tier actually achieved for \p f: the requested level, lower
     * after degradation, kTierInterpreter when pinned. Only
     * meaningful once \p f has been translated or marked.
     */
    uint8_t
    tierOf(const Function *f) const
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        return tierLocked(f);
    }

    /** Tier demotions taken (one per abandoned level). */
    size_t tierDowngrades() const { return tierDowngrades_; }

    // --- Epoch-based reclamation ------------------------------------------

    /**
     * Pin the current epoch: retired entries whose retirement
     * postdates the pin stay alive until unpinEpoch(). Every
     * executing simulator holds a pin for its whole activation —
     * its call frames hold raw pointers into chained bodies.
     */
    uint64_t pinEpoch();

    /** Release a pin and reclaim whatever became unreachable. */
    void unpinEpoch(uint64_t pin);

    /** Retired entries (bodies with their chains) currently
     *  awaiting reclamation. */
    size_t retiredBodies() const;

    /** The same count as retiredBodies(): a chain retires with its
     *  body, in one entry. */
    size_t retiredChainCount() const { return retiredBodies(); }

    /** Total retired entries freed so far. */
    size_t reclaimedObjects() const;

    /**
     * Shared (reader) lock over translation state. Interpreter-tier
     * execution holds this while walking a function's IR: tiered
     * translation mutates bodies in place under the exclusive lock,
     * and the interpreter is the only concurrent IR reader.
     */
    std::shared_lock<std::shared_mutex>
    readLock() const
    {
        return std::shared_lock<std::shared_mutex>(mu_);
    }

    // --- Adaptive promotion -----------------------------------------------

    /**
     * Attach a runtime profile and arm the hotness watermark. \p
     * profile must outlive this manager. Promotion runs on the
     * thread that crosses the watermark, under the exclusive lock:
     * passes intern constants through the shared module, so
     * translation never overlaps other pipeline work. The ThreadPool
     * parameter is unused; it stays only because perfbench still
     * passes one.
     */
    void setAdaptive(EdgeProfile *profile, uint64_t watermark,
                     ThreadPool * = nullptr);

    /**
     * Promote \p f to the trace tier if its count in the attached
     * profile has reached the watermark. Each function is attempted
     * at most once per manager, and the currently executing body
     * stays valid (retired, not destroyed).
     *
     * Returns how many more events recorded into \p recording (by
     * weight) the caller may count before the answer can change:
     * the distance to the watermark while \p recording is the
     * attached profile, and UINT64_MAX when \p f cannot promote —
     * no profile, already at the trace tier, already attempted, just
     * promoted (or failed to), or \p recording is another profile
     * while the attached one is below the watermark. Only this
     * caller's events move the attached profile in a single-threaded
     * run, so asking again only once the budget is spent promotes at
     * exactly the event that asking on every event would; another
     * thread's replacement or mergeProfile() is seen at the caller's
     * next fresh query.
     */
    uint64_t maybePromote(const Function *f,
                          const EdgeProfile *recording);

    /** Fold a thread-local profile delta into the attached master
     *  profile (no-op without one). Worker threads publish their
     *  samples here so promotion sees fleet-wide heat. */
    void mergeProfile(const EdgeProfile &delta);

    /** Copy of the attached master profile (empty if none). */
    EdgeProfile profileSnapshot() const;

    /** Installed native bodies; each is chained. */
    size_t
    chainedFunctions() const
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        return cache_.size();
    }

    /** Chains retired with their bodies so far (invalidation,
     *  reinstallation, promotion). */
    size_t chainsUnlinked() const { return retiredTotal_; }

    /** Trace-tier promotions installed. */
    size_t promotions() const { return promotions_; }
    /** Promotions attempted but failed (existing tier kept). */
    size_t promotionFailures() const { return promotionFailures_; }
    /** Coverage of the last formed trace set (0 before any). */
    double lastTraceCoverage() const { return lastCoverage_; }

    // --- Statistics -------------------------------------------------------

    double totalTranslateSeconds() const { return seconds_; }
    size_t functionsTranslated() const { return translated_; }
    const CodeGenStats &stats() const { return stats_; }

    /** Total machine instructions across all cached translations. */
    size_t totalMachineInstructions() const;

    /** Total encoded native bytes across all cached translations. */
    size_t totalEncodedBytes() const;

    /**
     * Enumerate the cache index under the shared lock — cached
     * bodies with their achieved tiers, plus interpreter-pinned
     * functions (tier kTierInterpreter, null body). Checkpointing
     * serializes entries inside the callback so no body can be
     * retired mid-walk.
     */
    void forEachCached(
        const std::function<void(const Function *, uint8_t tier,
                                 const MachineFunction *)> &fn) const;

  private:
    /** What one translation rung produced: the body (null when the
     *  tier failed), its codegen statistics and its cost. */
    struct Translation
    {
        std::unique_ptr<MachineFunction> mf;
        CodeGenStats stats;
        double seconds = 0;
    };

    /** Walk the ladder from opts_.optLevel down: install the first
     *  rung's body that succeeds at its tier, counting and warning
     *  about each abandoned rung, or pin \p f to the interpreter when
     *  -O0 fails too. Returns the installed entry (nullptr when
     *  pinned). Caller holds mu_ exclusively. */
    const ChainedFunction *translateWithLadder(Function &f);

    /**
     * The one translation rung, for ladder level \p tier or, with
     * kTierTrace, promotion (`-O<level>+traces`): optimize at the
     * level when it is above the module's record, run the
     * extendPipeline hook's passes, form traces from the attached
     * profile when promoting, then codegen, in the trace-first block
     * order when there is one. Only a rung that runs passes changes
     * the body: it snapshots it first and restores it after, so a
     * promotion on a module recorded at its level takes no snapshot
     * and writes nothing to the IR. Any failure on the way is warned
     * about with its cause and yields no body. The function body is
     * left exactly as found. Caller holds mu_ exclusively.
     */
    Translation translateRung(Function &f, unsigned tier);

    /** Promotion's step of the rung: form traces from the attached
     *  profile and return \p f's trace-first block order. */
    BlockOrder layOutTraces(const Function &f);

    // The following helpers assume mu_ is held (shared suffices for
    // the const ones, exclusive for the rest).

    /** \p f's entry, nullptr for an interpreter pin, or nullopt when
     *  \p f has neither. */
    std::optional<const ChainedFunction *>
    entryLocked(const Function *f) const;
    uint8_t tierLocked(const Function *f) const;
    bool
    pinnedLocked(const Function *f) const
    {
        return pinned_.count(f) != 0;
    }
    /** maybePromote's eligibility, short of the watermark: a profile
     *  is attached, \p f has a native body below the trace tier, and
     *  no promotion of it was attempted yet. */
    bool promotableLocked(const Function *f) const;

    /** Add a successful rung's cost and statistics to the totals. */
    void countTranslation(const Translation &t);
    /** The one install step: retire \p f's installed entry, chain
     *  \p mf and install it at \p tier (a null \p mf pins \p f to
     *  the interpreter), and reclaim. */
    void installLocked(const Function *f,
                       std::unique_ptr<MachineFunction> mf, uint8_t tier);
    /** Retire \p f's installed entry, if any. */
    void retireLocked(const Function *f);
    void invalidateLocked(const Function *f);
    void reclaimLocked();

    Target &target_;
    CodeGenOptions opts_;
    TranslationHooks hooks_;
    mutable std::shared_mutex mu_;
    std::map<const Function *, std::unique_ptr<ChainedFunction>>
        cache_;
    std::set<const Function *> pinned_; ///< interpreter-tier pins
    size_t tierDowngrades_ = 0;
    double seconds_ = 0;
    size_t translated_ = 0;
    CodeGenStats stats_;

    // Adaptive promotion state. Replaced translations are retired
    // (never destroyed mid-run): the simulator's call frames hold
    // raw pointers into the old body. The TraceCache itself is
    // scoped inside each promotion — it indexes BasicBlock pointers
    // of the body the rung translates, which an optimizing rung's
    // restore or a later replacement destroys; only stable head IDs
    // persist here.
    mutable std::mutex profileMu_; ///< guards *profile_ contents
    EdgeProfile *profile_ = nullptr;
    uint64_t watermark_ = 0;
    std::set<BlockId> traceHeads_;
    std::set<const Function *> promoteAttempted_;

    // The epoch-tagged retired list (see file comment), in
    // retirement order.
    struct Retired
    {
        std::unique_ptr<ChainedFunction> entry;
        uint64_t epoch;
    };
    uint64_t epoch_ = 0;
    std::multiset<uint64_t> pins_;
    std::vector<Retired> retired_;
    size_t retiredTotal_ = 0;
    size_t reclaimed_ = 0;

    size_t promotions_ = 0;
    size_t promotionFailures_ = 0;
    double lastCoverage_ = 0;
};

} // namespace llva

#endif // LLVA_VM_CODE_MANAGER_H
