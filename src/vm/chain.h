/**
 * @file
 * The chained form of a native body: the one shape the simulator
 * executes (after the block-chaining VM of JCPU). CodeManager builds
 * it once, when it installs the body — at every tier and on every
 * install path — and it never changes afterwards:
 *  - the body's blocks are flattened into one array of (instruction,
 *    handler) pairs, each handler resolved once by
 *    Target::handlerFor;
 *  - each instruction's first block operand (the branch target, or
 *    an invoke's normal destination) is resolved to its chained
 *    block, and a fallthrough is simply the next block of the array;
 *  - every profile event the body can take is numbered as a slot:
 *    per block an entry with no predecessor (a call, an invoke
 *    resumption, an unwind landing) and the fallthrough, and per
 *    instruction with a block operand the edge to its target. The
 *    chain keeps each slot's (from, to) BlockId pair, so a
 *    simulator counts an event with one add into a dense array of
 *    its own and folds the array into an EdgeProfile only where the
 *    profile is read.
 *
 * Dispatch is then one indirect call per instruction and one pointer
 * hop per block transition: no map lookup, no name hashing, no lazy
 * build, no atomics. Links never leave their body, so nothing is
 * ever unlinked: the chain is owned by the body's cache entry and is
 * retired and reclaimed with it, and an activation still inside a
 * retired body keeps walking that body's own chain (SMC affects only
 * future invocations, paper Section 3.4).
 */

#ifndef LLVA_VM_CHAIN_H
#define LLVA_VM_CHAIN_H

#include <memory>
#include <utility>
#include <vector>

#include "codegen/target.h"
#include "trace/profile.h"

namespace llva {

struct ChainedBlock;

/** One instruction slot of a chained body. */
struct ChainedInstr
{
    const MachineInstr *mi = nullptr;
    ExecFn fn = nullptr; ///< Target::handlerFor(*mi)
    /** The chained block of the first block operand, or nullptr. */
    const ChainedBlock *target = nullptr;
    /** The profile slot of the edge to target (when there is one). */
    uint32_t slot = 0;
};

/** The chained form of one machine basic block: a slice of the
 *  body's instruction array. */
struct ChainedBlock
{
    const ChainedInstr *begin = nullptr;
    const ChainedInstr *end = nullptr;
    uint32_t entrySlot = 0; ///< an entry with no predecessor
    uint32_t fallSlot = 0;  ///< the fallthrough to the next block
};

/**
 * One installed native body with its chained form, at the tier it
 * was installed at: the unit the code cache installs, retires and
 * reclaims.
 */
class ChainedFunction
{
  public:
    /** The block entry a profile slot counts: from is BlockId{} for
     *  an entry with no predecessor. */
    using Edge = std::pair<BlockId, BlockId>;

    ChainedFunction(std::unique_ptr<MachineFunction> mf,
                    const Target &target, uint8_t tier);
    /** Simulator frames hold its address, and it points into itself. */
    ChainedFunction(const ChainedFunction &) = delete;
    ChainedFunction &operator=(const ChainedFunction &) = delete;

    const MachineFunction *function() const { return mf_.get(); }
    uint8_t tier() const { return tier_; }

    const ChainedBlock *entry() const { return blocks_.data(); }

    /** The chained form of \p mbb, a block of function(). */
    const ChainedBlock *
    block(const MachineBasicBlock *mbb) const
    {
        return &blocks_[mbb->index()];
    }

    /** Profile slots, numbered 0 .. slots().size() - 1. */
    const std::vector<Edge> &slots() const { return slots_; }

  private:
    std::unique_ptr<MachineFunction> mf_;
    uint8_t tier_;
    std::vector<ChainedInstr> code_;
    /** In layout order, plus a sentinel that a fallthrough off the
     *  last block reaches (its one instruction panics). */
    std::vector<ChainedBlock> blocks_;
    std::vector<Edge> slots_;
};

} // namespace llva

#endif // LLVA_VM_CHAIN_H
