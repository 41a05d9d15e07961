/**
 * @file
 * The minimal native runtime the LLVA execution engines expose to
 * virtual object code. LLVA itself needs no runtime system (design
 * goal #1 in Section 2); these are ordinary library functions —
 * allocation, byte I/O — that a libc would provide, plus the LLVA
 * intrinsics of Sections 3.4 and 3.5 (SMC control, trap handlers,
 * the privileged bit, and the LLEE storage-API bootstrap).
 *
 * Program output is captured into a buffer so the three execution
 * engines (interpreter, x86 simulator, sparc simulator) can be
 * compared bit-for-bit in tests.
 */

#ifndef LLVA_VM_RUNTIME_H
#define LLVA_VM_RUNTIME_H

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "codegen/memory.h"
#include "codegen/target.h"
#include "support/byte_io.h"

namespace llva {

class ExecutionContext;

/** Native handler for a declared (external) function. */
using RuntimeHandler = std::function<RtValue(
    ExecutionContext &, const std::vector<RtValue> &)>;

/** Outcome of executing a function or whole program. */
struct ExecResult
{
    RtValue value;
    bool unwound = false; ///< unwind escaped past the entry function
    TrapKind trap = TrapKind::None;
    size_t instructionsExecuted = 0;
    /** Execution paused cooperatively (MachineSimulator only); the
     *  activation is suspended, not finished — value is not set. */
    bool paused = false;

    bool ok() const { return !unwound && trap == TrapKind::None; }
};

/** Runs a function to completion on the engine that calls it. */
using FunctionRunner = std::function<ExecResult(
    const Function *, const std::vector<RtValue> &)>;

/**
 * The call-depth cap both engines enforce. A frame's depth is the
 * number of defined-function frames beneath it (the entry's is 0); a
 * call that would push a frame deeper traps with StackOverflow.
 * Runtime-handler calls push no frame. An interpreter-tier callee of
 * the simulator keeps the depth its frame would have had there.
 */
constexpr size_t kMaxCallDepth = 2048;

/**
 * Shared state of one program execution: the simulated memory, the
 * captured output, trap handlers, the privileged bit, and the
 * registered storage API (paper Section 4.1).
 */
class ExecutionContext
{
  public:
    explicit ExecutionContext(const Module &m,
                              uint64_t mem_size = 64ull << 20);

    const Module &module() const { return m_; }
    Memory &memory() { return mem_; }
    const std::map<const GlobalVariable *, uint64_t> &
    globalAddrs() const
    {
        return globalAddrs_;
    }

    /** Captured program output (putint/puts/...). */
    std::string &output() { return out_; }

    /** Resolve the handler for a declared function (or null). */
    const RuntimeHandler *handlerFor(const std::string &name) const;

    /** Install/override a handler (tests and LLEE use this). */
    void setHandler(const std::string &name, RuntimeHandler h);

    // --- OS support (paper Section 3.5) --------------------------------

    bool privileged() const { return privileged_; }
    void setPrivileged(bool p) { privileged_ = p; }

    /** Registered trap handler function address (0 = none). */
    uint64_t trapHandler(unsigned trap_number) const;
    void setTrapHandler(unsigned trap_number, uint64_t fn_addr);

    /** Storage-API bootstrap address (paper Section 4.1). */
    uint64_t storageApi() const { return storageApi_; }
    void setStorageApi(uint64_t addr) { storageApi_ = addr; }

    // --- SMC (paper Section 3.4) ----------------------------------------

    /**
     * Pending function replacements: target -> replacement. Applied
     * by the engines at the *next invocation* of the target, never
     * to currently active frames.
     */
    const Function *redirectFor(const Function *f) const;
    void setRedirect(const Function *target, const Function *repl);
    /** Functions whose translations must be invalidated (consumed). */
    std::vector<const Function *> takeInvalidations();

    // --- Pool allocation (paper Section 5.1, ref [25]) -------------------

    /** State of one pool, keyed by its descriptor's address. */
    struct PoolState
    {
        uint64_t chunkBase = 0;
        uint64_t chunkUsed = 0;
        uint64_t chunkSize = 0;
        uint64_t totalAllocated = 0;
        uint64_t totalFreed = 0;
        uint64_t loAddr = UINT64_MAX; ///< allocation address range
        uint64_t hiAddr = 0;
    };

    /** Bump-allocate \p size bytes from the pool at \p pool_addr. */
    uint64_t poolAlloc(uint64_t pool_addr, uint64_t size);
    void poolFree(uint64_t pool_addr, uint64_t ptr);

    const std::map<uint64_t, PoolState> &pools() const
    {
        return pools_;
    }

    // --- Recoverable intrinsic rejection ---------------------------------

    /**
     * Raise a trap from inside a runtime handler. Handlers have no
     * return channel for failure, so a rejected intrinsic (bad
     * function pointer, missing privilege) parks the trap here;
     * callExternal() collects it after every handler invocation and
     * the engines deliver it through the regular trap-dispatch path —
     * the program keeps running if it registered a handler.
     */
    void raiseTrap(TrapKind k) { pendingTrap_ = k; }

    /** Consume the parked trap (None if the handler succeeded). */
    TrapKind
    takePendingTrap()
    {
        TrapKind k = pendingTrap_;
        pendingTrap_ = TrapKind::None;
        return k;
    }

    // --- Rules both execution engines share -----------------------------

    /**
     * The external-call rule: run the runtime handler of declaration
     * \p f on \p args and collect the trap it raised, if any. A
     * declaration with no handler is a fatal error.
     */
    ExecResult callExternal(const Function *f,
                            const std::vector<RtValue> &args);

    /**
     * Trap-handler delivery (paper Section 3.5) for a finished run:
     * \p run executes the handler registered for \p result's trap as
     * an ordinary LLVA function taking (trap number, void* info). A
     * trap the handler raises supersedes the one it handled, an
     * unwind escaping it is surfaced, and the instruction count is
     * the one its run reports. A handler address that names no
     * function (SMC moved it, or it was bogus) is only counted.
     */
    ExecResult deliverTrap(ExecResult result, const FunctionRunner &run);

    // --- Checkpoint (VM migration) ---------------------------------------

    /**
     * Serialize the whole execution state — memory image, captured
     * output, trap handlers, SMC redirects, pools, the privileged
     * bit — for a VM checkpoint. Function references are recorded
     * by name (the V-ISA-level identity), so the image is
     * relocatable across processes and target ISAs.
     */
    void serialize(ByteWriter &w) const;

    /** Rebuild execution state from checkpoint bytes. The context
     *  must wrap the same module the checkpoint was taken against.
     *  Returns false if a recorded function no longer resolves. */
    bool restore(ByteReader &r);

  private:
    void installDefaultHandlers();

    const Module &m_;
    Memory mem_;
    std::map<const GlobalVariable *, uint64_t> globalAddrs_;
    std::string out_;
    std::map<std::string, RuntimeHandler> handlers_;
    std::map<unsigned, uint64_t> trapHandlers_;
    std::map<const Function *, const Function *> redirects_;
    std::vector<const Function *> invalidations_;
    std::map<uint64_t, PoolState> pools_;
    uint64_t storageApi_ = 0;
    bool privileged_ = false;
    TrapKind pendingTrap_ = TrapKind::None;
};

} // namespace llva

#endif // LLVA_VM_RUNTIME_H
