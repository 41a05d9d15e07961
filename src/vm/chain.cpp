#include "vm/chain.h"

#include "support/statistic.h"

namespace llva {

namespace {

Statistic NumSuperblockLinks(
    "vm.superblock_links",
    "Block operands resolved to their chained blocks at install");

/** The sentinel's handler: a translated body never falls off its
 *  last block, so reaching it is a translator bug. */
void
fellOffTheEnd(const MachineInstr &, SimState &)
{
    panic("machine code fell off the end of its function");
}

const MachineInstr kSentinel(0, {});

} // namespace

ChainedFunction::ChainedFunction(std::unique_ptr<MachineFunction> mf,
                                 const Target &target, uint8_t tier)
    : mf_(std::move(mf)), tier_(tier)
{
    const auto &mbbs = mf_->blocks();
    size_t n = 1;
    for (const auto &mbb : mbbs)
        n += mbb->instrs().size();
    // Blocks point into code_, and instructions into blocks_: size
    // both up front so neither moves while it is built.
    code_.reserve(n);
    blocks_.resize(mbbs.size() + 1);
    // The sentinel keeps BlockId{}, as a fallthrough into it records.
    std::vector<BlockId> ids(blocks_.size());
    for (const auto &mbb : mbbs)
        ids[mbb->index()] = BlockId{mf_->nameHash(), mbb->nameHash()};
    size_t links = 0;
    for (const auto &mbb : mbbs) {
        const unsigned i = mbb->index();
        ChainedBlock &cb = blocks_[i];
        cb.begin = code_.data() + code_.size();
        cb.entrySlot = uint32_t(slots_.size());
        slots_.push_back({BlockId{}, ids[i]});
        cb.fallSlot = uint32_t(slots_.size());
        slots_.push_back({ids[i], ids[i + 1]});
        for (const auto &mi : mbb->instrs()) {
            ChainedInstr ci{mi.get(), target.handlerFor(*mi)};
            for (const MOperand &op : mi->ops) {
                if (op.kind != MOperand::Block)
                    continue;
                LLVA_ASSERT(op.block->parent() == mf_.get(),
                            "chaining a block of another function");
                ci.target = &blocks_[op.block->index()];
                ci.slot = uint32_t(slots_.size());
                slots_.push_back({ids[i], ids[op.block->index()]});
                ++links;
                break;
            }
            code_.push_back(ci);
        }
        cb.end = code_.data() + code_.size();
    }
    ChainedBlock &sentinel = blocks_.back();
    sentinel.begin = code_.data() + code_.size();
    code_.push_back({&kSentinel, fellOffTheEnd, nullptr});
    sentinel.end = code_.data() + code_.size();
    NumSuperblockLinks += links;
}

} // namespace llva
