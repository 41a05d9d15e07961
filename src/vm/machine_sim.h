/**
 * @file
 * MachineSimulator: the simulated hardware processor. Executes
 * translated machine code (x86-like or sparc-like) against the same
 * ExecutionContext as the interpreter, translating callees on demand
 * through the CodeManager — i.e. this is the JIT execution engine of
 * paper Section 5.2, with the hardware replaced by a functional
 * simulator so translated code actually runs and can be verified.
 *
 * One block loop runs every native body, on its chained form
 * (vm/chain.h): a call looks the callee's entry up once, a return
 * looks nothing up, and a body retired under a running activation
 * keeps running on its own chain.
 *
 * Live-update support: every activation pins the CodeManager's
 * reclamation epoch for its duration (its call frames hold raw
 * pointers into chained bodies that a concurrent SMC replacement may
 * retire). Execution can also be paused cooperatively — at an
 * instruction-count watermark (setPauseAt) or on request from
 * another thread (requestPause) — which suspends the activation at
 * its entry or at a block transition; the suspended state is
 * resumable in-process (resume()) or serializable into a VM
 * checkpoint (serializeSuspended/restoreSuspended).
 */

#ifndef LLVA_VM_MACHINE_SIM_H
#define LLVA_VM_MACHINE_SIM_H

#include <atomic>
#include <memory>
#include <optional>
#include <unordered_map>

#include "support/byte_io.h"
#include "vm/code_manager.h"
#include "vm/interpreter.h" // the tier of last resort
#include "vm/runtime.h"

namespace llva {

class MachineSimulator
{
  public:
    MachineSimulator(ExecutionContext &ctx, CodeManager &code)
        : ctx_(ctx), code_(code)
    {}

    /** Run \p f to completion (JIT-translating on demand). */
    ExecResult run(const Function *f,
                   const std::vector<RtValue> &args = {});

    /**
     * Sampled profiling: record every Nth block-entry event with
     * weight N (1 = exact counting, the default). Estimated totals
     * stay in execution units, so the promotion watermark needs no
     * rescaling. Exact counting is one add into a dense array per
     * event too, so sampling now saves only those adds.
     */
    void
    setProfileSampleInterval(uint64_t n)
    {
        meter_.interval = n ? n : 1;
        meter_.countdown = meter_.interval;
    }

    /**
     * Collect an edge profile of the *translated* code while
     * executing (nullptr = off). Counts are keyed by stable block
     * IDs — machine blocks carry their source blocks' names through
     * instruction selection and the mcode cache — so the same
     * profile can seed trace formation on the IR and be persisted
     * across runs. The block loop counts each event into a dense
     * slot array of the running activation, one per chain it entered
     * (vm/chain.h), and folds the counts into \p profile, with their
     * summed weights, wherever the profile is read: before each
     * promotion query (the asked function's chains), when a pause
     * parks the activation, and when the activation ends (a return,
     * a trap, a blown budget or any exception). \p profile then holds
     * exactly what recording every event into it would, whenever the
     * caller, a checkpoint or a promotion looks. While profiling, a
     * body below the trace tier asks the CodeManager whether to
     * promote it (maybePromote) at the first taken branch of each
     * entry, then again only once the weight recorded here since
     * reaches the distance to the watermark that the answer gave.
     * When \p profile is the manager's attached profile, promotion
     * therefore lands at the same taken branch as asking on every
     * branch would. Another thread's replaceFunctionLive() or
     * mergeProfile() is seen at the next body entry (after a call,
     * return, unwind or pause).
     */
    void setProfile(EdgeProfile *profile) { meter_.profile = profile; }

    /** Machine instructions executed across all run() calls
     *  (includes instructions interpreted via tier fallback). */
    uint64_t instructionsExecuted() const { return meter_.executed; }

    /** Instructions executed by the interpreter tier of last resort
     *  on behalf of functions with no native translation. */
    uint64_t instructionsInterpreted() const { return interpreted_; }

    /** Cap on executed machine instructions (0 = unlimited). */
    void
    setInstructionLimit(uint64_t limit)
    {
        meter_.limit = limit ? limit : kUnlimited;
    }

    // --- Cooperative pause / suspend --------------------------------------

    /**
     * Arm a pause once the cumulative executed-instruction count
     * reaches \p n (absolute, against instructionsExecuted(); 0
     * disarms). The pause lands at the next pause point — the entry
     * of a body after a call, return or unwind, or a block
     * transition — and run() then returns with ExecResult::paused
     * set and the activation saved for resume(). Instructions
     * interpreted via tier fallback are not pause points (the
     * interpreter runs its call to completion).
     */
    void
    setPauseAt(uint64_t n)
    {
        pauseAt_.store(n, std::memory_order_relaxed);
    }

    /** Request a pause from another thread (same landing rules as
     *  setPauseAt; cleared when the pause is taken). */
    void
    requestPause()
    {
        pauseFlag_.store(true, std::memory_order_relaxed);
    }

    /** True while an activation is suspended awaiting resume(). */
    bool paused() const { return parked_.has_value(); }

    /** Continue a paused activation to completion (or to the next
     *  pause). Only valid while paused(). */
    ExecResult resume();

    /**
     * Serialize the suspended activation (registers, call frames,
     * current position) for a VM checkpoint. Frames are recorded by
     * function name + block/instruction index, validated against
     * block and instruction counts so a restore onto retranslated
     * code detects any shape mismatch. Only valid while paused().
     */
    void serializeSuspended(ByteWriter &w) const;

    /**
     * Rebuild a suspended activation from checkpoint bytes:
     * functions are resolved by name through the context's module
     * and (re)translated via the CodeManager, which must produce
     * bodies of the recorded shape — translation is deterministic
     * per (target, tier). Returns false (leaving the simulator not
     * paused) on any mismatch.
     */
    bool restoreSuspended(ByteReader &r);

  private:
    static constexpr uint64_t kUnlimited = ~uint64_t(0);

    /**
     * The per-instruction bookkeeping: the instruction count, its
     * budget and the profile-sample countdown. The block loop copies
     * it into a local for its whole run — the indirect handler call
     * clobbers memory, so a member would be reloaded and stored on
     * every instruction, while a local stays in callee-saved
     * registers — and stores it back on every exit.
     */
    struct Meter
    {
        uint64_t executed = 0;
        uint64_t limit = kUnlimited; ///< all-ones when there is none
        uint64_t countdown = 1;      ///< block events to the next sample
        uint64_t interval = 1;
        EdgeProfile *profile = nullptr;

        /** Count one instruction; false once it exceeds the budget. */
        bool tick() { return ++executed <= limit; }

        /** Add the event's weight to \p slot of the running chain's
         *  \p counts if it is the sampled one; returns the weight
         *  recorded (0 when not sampled). */
        uint64_t
        note(uint64_t *counts, uint32_t slot)
        {
            if (!profile || --countdown)
                return 0;
            countdown = interval;
            counts[slot] += interval;
            return interval;
        }
    };

    /** Releases an epoch pin when its owner goes away. */
    struct Unpin
    {
        uint64_t epoch;
        void operator()(CodeManager *cm) const { cm->unpinEpoch(epoch); }
    };
    using EpochPin = std::unique_ptr<CodeManager, Unpin>;

    struct Frame
    {
        const ChainedFunction *chain = nullptr;
        const ChainedBlock *block = nullptr;
        size_t index = 0;      ///< instruction index of the call site
        uint64_t spAtCall = 0; ///< sp when the call was made
        uint64_t *counts = nullptr; ///< chain's slot counts
    };

    /** An activation's profile counts, one slot array per chain it
     *  entered (indexed by ChainedFunction::slots()). Node-based, so
     *  the arrays stay put while frames point into them. */
    using Tally =
        std::unordered_map<const ChainedFunction *, std::vector<uint64_t>>;

    /**
     * One activation of run(): the entry function, the architectural
     * state, the call frames and the position about to execute
     * (block->begin[index]; index == size is a pending fallthrough).
     * It pins the reclamation epoch for its whole life — the frames
     * hold raw pointers into chained bodies that a concurrent
     * replaceFunctionLive()/promotion may retire — so a paused
     * activation carries its pin with it. While profiling, it counts
     * into its own tally, whose keys only that pin keeps alive: the
     * tally is folded at every pause and at the end, and dies with
     * the activation.
     */
    struct Activation
    {
        explicit Activation(CodeManager &cm)
            : pin(&cm, Unpin{cm.pinEpoch()})
        {}

        EpochPin pin;
        const Function *entry = nullptr;
        SimState state;
        std::vector<Frame> frames;
        const ChainedFunction *chain = nullptr;
        uint64_t *counts = nullptr; ///< chain's slot counts
        const ChainedBlock *block = nullptr;
        size_t index = 0;
        Tally tally;
    };

    // One activation loop (start/resume -> drive) over its two
    // parts: the block loop and the frame core (call/ret/unwind).
    // See machine_sim.cpp.
    ExecResult start(const Function *f,
                     const std::vector<RtValue> &args);
    ExecResult drive(Activation &a);
    ExecResult deliverTrap(ExecResult result);
    bool runChained(Activation &a);
    bool call(Activation &a, ExecResult &r);
    bool ret(Activation &a, ExecResult &r);
    bool unwind(Activation &a, ExecResult &r);
    void returnTo(Activation &a, const ChainedBlock *block,
                  size_t index);
    void noteEntry(const Activation &a);

    // The profile tally (see setProfile).
    /** \p chain's slot counts in \p a's tally, made on first use. */
    static uint64_t *countsFor(Activation &a,
                               const ChainedFunction *chain);
    /** Point \p a and its frames at their chains' counts. */
    void bindCounts(Activation &a);
    /** Fold \p a's counts into the profile and zero them: every
     *  chain's, or with \p only just the chains of that function. */
    void fold(Activation &a, const Function *only = nullptr);

    bool pauseDue(uint64_t executed) const;
    /** Syncs \p m back (by value: the loop's meter never escapes),
     *  then fails the run. */
    [[noreturn]] void budgetExceeded(Meter m);

    /** Interpret \p f (no native translation) with allocas carved
     *  below \p stackBase and its frame at call depth \p depth;
     *  merges instruction accounting. */
    ExecResult interpretFallback(const Function *f,
                                 const std::vector<RtValue> &args,
                                 uint64_t stackBase, size_t depth);

    /** Apply the SMC invalidations the program requested. */
    void applyInvalidations();

    ExecutionContext &ctx_;
    CodeManager &code_;
    Meter meter_;
    uint64_t interpreted_ = 0;

    // Pause/suspend state. The flag and watermark are atomics so a
    // chaos/control thread can arm them mid-run; everything else is
    // touched only by the executing thread.
    std::atomic<bool> pauseFlag_{false};
    std::atomic<uint64_t> pauseAt_{0};
    std::optional<Activation> parked_;
};

} // namespace llva

#endif // LLVA_VM_MACHINE_SIM_H
