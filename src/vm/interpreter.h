/**
 * @file
 * Reference interpreter for LLVA virtual object code. Used as the
 * semantic oracle: the machine-code simulators must produce the same
 * outputs and return values for every program.
 *
 * Implements the paper's execution semantics directly: precise
 * exceptions with the per-instruction ExceptionsEnabled attribute
 * (Section 3.3), invoke/unwind stack unwinding, SMC redirects that
 * affect only future invocations (Section 3.4), and trap-handler
 * dispatch (Section 3.5).
 *
 * The interpreter uses no host recursion: every guest call runs on
 * one explicit frame vector inside one loop, so guest call depth is
 * bounded by kMaxCallDepth alone, never by the host thread's stack.
 * The depth cap, the external-call rule and trap-handler delivery are
 * the ones the machine simulator applies (vm/runtime.h).
 */

#ifndef LLVA_VM_INTERPRETER_H
#define LLVA_VM_INTERPRETER_H

#include "trace/profile.h" // EdgeProfile
#include "vm/runtime.h"

namespace llva {

// EdgeProfile — the profile information the trace-formation
// machinery of Section 4.2 consumes, and what LLEE persists to
// offline storage — lives in trace/profile.h, keyed by stable block
// IDs so it survives CFG-mutating passes and process restarts.

class Interpreter
{
  public:
    explicit Interpreter(ExecutionContext &ctx)
        : ctx_(ctx)
    {}

    /** Collect an edge profile while executing (nullptr = off). */
    void setProfile(EdgeProfile *profile) { profile_ = profile; }

    /** Execute \p f with \p args; traps dispatch to registered
     *  handlers before the result is returned. */
    ExecResult run(const Function *f,
                   const std::vector<RtValue> &args = {});

    /**
     * Execute one function as a fallback from native execution (the
     * tier of last resort): allocas carve down from \p stackBase
     * (the caller's native stack pointer; 0 = top of stack), \p f's
     * frame sits at call depth \p depth, and traps are returned to
     * the caller undispatched — the machine simulator delivers them.
     * The instruction count runs on across invoke() calls.
     */
    ExecResult invoke(const Function *f,
                      const std::vector<RtValue> &args,
                      uint64_t stackBase = 0, size_t depth = 0);

    /** Cap on interpreted instructions (0 = unlimited). */
    void setInstructionLimit(size_t limit) { limit_ = limit; }

  private:
    ExecutionContext &ctx_;
    size_t executed_ = 0;
    size_t limit_ = 0;
    EdgeProfile *profile_ = nullptr;
};

} // namespace llva

#endif // LLVA_VM_INTERPRETER_H
