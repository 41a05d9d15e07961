/**
 * @file
 * FunctionSnapshot: a detached, self-contained clone of a function
 * body, the one restore point of a translation rung
 * (CodeManager::translateRung): the rung optimizes and code-generates
 * the body in place, then restores it, whether or not anything on
 * the way failed. Capturing is a cheap IR clone (one
 * Instruction::clone per instruction plus an operand remap);
 * restoring replaces the function's current — possibly mangled —
 * body with the captured one in O(body size), leaving every
 * module-level entity (arguments, globals, constants, other
 * functions) untouched.
 */

#ifndef LLVA_IR_CLONE_H
#define LLVA_IR_CLONE_H

#include <memory>
#include <vector>

#include "ir/function.h"

namespace llva {

class FunctionSnapshot
{
  public:
    FunctionSnapshot() = default;

    /**
     * Discarding an unconsumed snapshot severs the clone's
     * cross-block def-use edges first; BasicBlock teardown only
     * breaks edges within one block.
     */
    ~FunctionSnapshot();

    FunctionSnapshot(FunctionSnapshot &&) = default;
    FunctionSnapshot &operator=(FunctionSnapshot &&) = default;
    FunctionSnapshot(const FunctionSnapshot &) = delete;
    FunctionSnapshot &operator=(const FunctionSnapshot &) = delete;

    /**
     * Clone the body of \p f. The clone references only the
     * snapshot's own blocks/instructions plus values that are stable
     * across body replacement: arguments, constants, globals, and
     * functions. Capturing a declaration yields an empty snapshot.
     */
    static FunctionSnapshot capture(const Function &f);

    /**
     * Replace the current body of \p f with the captured one. Safe
     * to call no matter how broken the current body is (a faulting
     * pass may have left half-rewired instructions): every def-use
     * edge of the old body is severed before anything is destroyed.
     * One-shot: the snapshot is consumed.
     */
    void restoreInto(Function &f);

  private:
    std::vector<std::unique_ptr<BasicBlock>> blocks_;
    bool captured_ = false;
};

} // namespace llva

#endif // LLVA_IR_CLONE_H
