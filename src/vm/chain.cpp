#include "vm/chain.h"

#include "support/statistic.h"

namespace llva {

namespace {

Statistic NumSuperblockLinks(
    "vm.superblock_links",
    "Superblock side exits and fallthroughs patched to successors");

Statistic NumSuperblockUnlinks(
    "vm.superblock_unlinks",
    "Chained functions unlinked on invalidate()/SMC retirement");

} // namespace

ChainedFunction::ChainedFunction(const MachineFunction *mf,
                                 Target &target)
    : mf_(mf), target_(target), blocks_(mf->blocks().size())
{}

ChainedBlock *
ChainedFunction::blockFor(MachineBasicBlock *mbb)
{
    LLVA_ASSERT(mbb->parent() == mf_,
                "chaining a block of another function");
    // Executors read the slot lock-free; a non-null pointer was
    // release-published after the block was fully built.
    ChainedBlock *cb =
        blocks_[mbb->index()].load(std::memory_order_acquire);
    return cb ? cb : buildBlock(mbb);
}

ChainedBlock *
ChainedFunction::buildBlock(MachineBasicBlock *mbb)
{
    std::lock_guard<std::mutex> lock(mu_);
    ChainedBlock *cb =
        blocks_[mbb->index()].load(std::memory_order_relaxed);
    if (cb)
        return cb; // lost the build race; reuse the winner
    auto built = std::make_unique<ChainedBlock>();
    built->mbb = mbb;
    built->id = BlockId{mf_->nameHash(), mbb->nameHash()};
    built->code.resize(mbb->instrs().size());
    size_t i = 0;
    for (const auto &mi : mbb->instrs()) {
        ChainedInstr &ci = built->code[i++];
        ci.mi = mi.get();
        ci.fn = cachedHandler(target_, *mi);
    }
    cb = built.get();
    owned_.push_back(std::move(built));
    blocks_[mbb->index()].store(cb, std::memory_order_release);
    return cb;
}

ChainedBlock *
ChainedFunction::entry()
{
    return blockFor(mf_->blocks().front().get());
}

ChainedBlock *
ChainedFunction::linkFallthrough(ChainedBlock *cb)
{
    size_t next = cb->mbb->index() + 1;
    LLVA_ASSERT(next < mf_->blocks().size(),
                "machine function fell off the end (%s)",
                mf_->name().c_str());
    ChainedBlock *succ = blockFor(mf_->blocks()[next].get());
    std::lock_guard<std::mutex> lock(mu_);
    if (!unlinked_.load(std::memory_order_relaxed)) {
        if (!cb->fall.load(std::memory_order_relaxed))
            links_.fetch_add(1, std::memory_order_relaxed);
        cb->fall.store(succ, std::memory_order_release);
        ++NumSuperblockLinks;
    }
    return succ;
}

ChainedBlock *
ChainedFunction::linkBranch(ChainedInstr &ci,
                            MachineBasicBlock *target)
{
    ChainedBlock *succ = blockFor(target);
    std::lock_guard<std::mutex> lock(mu_);
    if (!unlinked_.load(std::memory_order_relaxed)) {
        if (!ci.link.load(std::memory_order_relaxed))
            links_.fetch_add(1, std::memory_order_relaxed);
        ci.link.store(succ, std::memory_order_release);
        ++NumSuperblockLinks;
    }
    return succ;
}

void
ChainedFunction::unlink()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &slot : blocks_) {
        ChainedBlock *cb = slot.load(std::memory_order_relaxed);
        if (!cb)
            continue;
        cb->fall.store(nullptr, std::memory_order_release);
        for (ChainedInstr &ci : cb->code)
            ci.link.store(nullptr, std::memory_order_release);
    }
    links_.store(0, std::memory_order_relaxed);
    unlinked_.store(true, std::memory_order_release);
    ++NumSuperblockUnlinks;
}

} // namespace llva
