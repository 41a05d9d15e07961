/**
 * @file
 * Register allocation.
 *
 * Two allocators model the paper's two back-ends (Section 5.2):
 *
 *  - Local: block-local greedy binding with everything spilled to the
 *    stack between blocks. This mirrors the paper's X86 JIT, which
 *    "performs virtually no optimization and very simple register
 *    allocation resulting in significant spill code".
 *  - LinearScan: global linear scan over live intervals with copy
 *    hints (cheap coalescing), modeling the higher-quality SPARC
 *    back-end.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>

#include "codegen/codegen.h"

namespace llva {

namespace {

bool
isBranchy(const MachineInstr &mi)
{
    for (const MOperand &op : mi.ops)
        if (op.kind == MOperand::Block)
            return true;
    return mi.isRet;
}

/** Shared helper: lazily created spill slot per vreg. */
class SpillSlots
{
  public:
    explicit SpillSlots(MachineFunction &mf)
        : mf_(mf), slots_(mf.numVRegs(), -1)
    {}

    int
    slotOf(unsigned vreg)
    {
        int &slot = slots_[vreg - kFirstVirtualReg];
        if (slot < 0)
            slot = mf_.createFrameObject(8, 8);
        return slot;
    }

  private:
    MachineFunction &mf_;
    std::vector<int> slots_; ///< by vreg index; -1 until created
};

std::unique_ptr<MachineInstr>
makeSpill(unsigned phys, int slot, bool fp, bool fp32)
{
    auto mi = std::make_unique<MachineInstr>(
        kOpSpill,
        std::vector<MOperand>{MOperand::makeReg(phys),
                              MOperand::makeFrame(slot)},
        0);
    mi->width = 8;
    mi->fp32 = fp32;
    (void)fp;
    return mi;
}

std::unique_ptr<MachineInstr>
makeReload(unsigned phys, int slot, bool fp, bool fp32)
{
    auto mi = std::make_unique<MachineInstr>(
        kOpReload,
        std::vector<MOperand>{MOperand::makeReg(phys),
                              MOperand::makeFrame(slot)},
        1);
    mi->width = 8;
    mi->fp32 = fp32;
    (void)fp;
    return mi;
}

// --- Local allocator -------------------------------------------------------

class LocalAllocator
{
  public:
    LocalAllocator(MachineFunction &mf, Target &target,
                   CodeGenStats *stats)
        : mf_(mf), target_(target), stats_(stats), slots_(mf)
    {}

    void
    run()
    {
        for (auto &mbb : mf_.blocks())
            runOnBlock(*mbb);
    }

  private:
    struct Binding
    {
        unsigned vreg = 0;
        bool dirty = false;
    };

    MachineFunction &mf_;
    Target &target_;
    CodeGenStats *stats_;
    SpillSlots slots_;

    // Per-block state.
    std::map<unsigned, Binding> physState_; // phys -> binding
    std::map<unsigned, unsigned> vregLoc_;  // vreg -> phys
    std::set<unsigned> reservedPhys_;
    std::vector<std::unique_ptr<MachineInstr>> *instrs_ = nullptr;
    size_t cursor_ = 0; // insertion point (index of current MI)

    RegClass
    classOf(unsigned vreg) const
    {
        return mf_.vregInfo(vreg).regClass;
    }

    void
    insertBeforeCursor(std::unique_ptr<MachineInstr> mi)
    {
        instrs_->insert(instrs_->begin() +
                            static_cast<ptrdiff_t>(cursor_),
                        std::move(mi));
        ++cursor_;
    }

    void
    spillPhys(unsigned phys)
    {
        auto it = physState_.find(phys);
        if (it == physState_.end())
            return;
        Binding b = it->second;
        if (b.dirty) {
            const VRegInfo &info = mf_.vregInfo(b.vreg);
            insertBeforeCursor(makeSpill(
                phys, slots_.slotOf(b.vreg),
                info.regClass == RegClass::FP, info.fp32));
            if (stats_)
                ++stats_->spillsInserted;
        }
        vregLoc_.erase(b.vreg);
        physState_.erase(it);
    }

    unsigned
    allocPhys(RegClass rc, const std::set<unsigned> &avoid)
    {
        const auto &pool = target_.allocatable(rc);
        // Free register first.
        for (unsigned phys : pool)
            if (!physState_.count(phys) && !reservedPhys_.count(phys) &&
                !avoid.count(phys))
                return phys;
        // Evict (farthest binding — heuristics don't matter much for
        // a block-local allocator; pick the first evictable).
        for (unsigned phys : pool) {
            if (reservedPhys_.count(phys) || avoid.count(phys))
                continue;
            spillPhys(phys);
            return phys;
        }
        panic("register allocation: no evictable register");
    }

    unsigned
    ensureLoaded(unsigned vreg, const std::set<unsigned> &avoid)
    {
        auto it = vregLoc_.find(vreg);
        if (it != vregLoc_.end())
            return it->second;
        const VRegInfo &info = mf_.vregInfo(vreg);
        unsigned phys = allocPhys(info.regClass, avoid);
        insertBeforeCursor(makeReload(
            phys, slots_.slotOf(vreg),
            info.regClass == RegClass::FP, info.fp32));
        if (stats_)
            ++stats_->reloadsInserted;
        physState_[phys] = {vreg, false};
        vregLoc_[vreg] = phys;
        return phys;
    }

    void
    flushAll(bool unbind)
    {
        // Deterministic order for reproducible code.
        std::vector<unsigned> physregs;
        for (auto &[phys, b] : physState_)
            physregs.push_back(phys);
        for (unsigned phys : physregs)
            spillPhys(phys);
        if (unbind) {
            physState_.clear();
            vregLoc_.clear();
        }
    }

    void
    runOnBlock(MachineBasicBlock &mbb)
    {
        physState_.clear();
        vregLoc_.clear();
        reservedPhys_.clear();
        instrs_ = &mbb.instrs();

        bool flushed = false;
        for (cursor_ = 0; cursor_ < instrs_->size(); ++cursor_) {
            MachineInstr &mi = *(*instrs_)[cursor_];
            // Everything must live in stack slots across blocks:
            // flush once, when the first control-transfer is reached.
            // (Spill/reload moves do not disturb the condition codes,
            // so flushing between a compare and its branch is safe.)
            if (!flushed && isBranchy(mi)) {
                flushAll(true);
                flushed = true;
            }

            if (mi.isCall) {
                // Everything allocatable is caller-saved for the
                // local allocator: flush and unbind.
                flushAll(true);
                reservedPhys_.clear();
            }

            // Uses: operands [numDefs..).
            std::set<unsigned> avoid;
            for (const MOperand &op : mi.ops)
                if (op.kind == MOperand::Reg &&
                    !isVirtualReg(op.reg))
                    avoid.insert(op.reg);
            for (size_t i = mi.numDefs; i < mi.ops.size(); ++i) {
                MOperand &op = mi.ops[i];
                if (op.kind != MOperand::Reg ||
                    !isVirtualReg(op.reg))
                    continue;
                op.reg = ensureLoaded(op.reg, avoid);
                avoid.insert(op.reg);
            }
            // Defs.
            for (size_t i = 0; i < mi.numDefs; ++i) {
                MOperand &op = mi.ops[i];
                if (op.kind != MOperand::Reg)
                    continue;
                if (!isVirtualReg(op.reg)) {
                    // Explicit physical def: evict any occupant.
                    spillPhys(op.reg);
                    reservedPhys_.insert(op.reg);
                    continue;
                }
                unsigned vreg = op.reg;
                auto loc = vregLoc_.find(vreg);
                unsigned phys;
                if (loc != vregLoc_.end()) {
                    phys = loc->second;
                } else {
                    phys = allocPhys(classOf(vreg), avoid);
                    physState_[phys] = {vreg, false};
                    vregLoc_[vreg] = phys;
                }
                physState_[phys].dirty = true;
                op.reg = phys;
                avoid.insert(phys);
            }
        }
        if (!flushed)
            flushAll(true);
        instrs_ = nullptr;
    }
};

// --- Linear scan ------------------------------------------------------------

struct Interval
{
    unsigned vreg = 0;
    int start = 0;
    int end = 0;
    /** Whether the vreg occurs in the function: the interval table
     *  is indexed by vreg, so it holds an entry for every one. */
    bool used = false;
    bool crossesCall = false;
    unsigned assigned = 0;
    /** Whether \c assigned holds a register. Register numbers start
     *  at 0 (x86 %rax is register 0), so the number alone cannot
     *  double as a validity flag. */
    bool hasReg = false;
    bool spilled = false;
};

/**
 * Global linear scan. Virtual registers are dense (kFirstVirtualReg
 * plus an index) and so are block indices, so every table is an
 * array indexed by one of them: instruction positions by block,
 * liveness as bit rows per block, and intervals, copy hints and
 * spill slots by vreg.
 */
class LinearScanAllocator
{
  public:
    LinearScanAllocator(MachineFunction &mf, Target &target,
                        bool coalesce, CodeGenStats *stats)
        : mf_(mf), target_(target), coalesce_(coalesce),
          stats_(stats), slots_(mf), words_((mf.numVRegs() + 63) / 64)
    {}

    void
    run()
    {
        numberInstructions();
        computeLiveness();
        buildIntervals();
        allocate();
        rewrite();
    }

  private:
    MachineFunction &mf_;
    Target &target_;
    bool coalesce_;
    CodeGenStats *stats_;
    SpillSlots slots_;
    /** 64-bit words in one liveness row: one bit per vreg. */
    const size_t words_;

    // Instruction positions, numbered in block order: each block's
    // first and last (by block index), and every call's, ascending.
    std::vector<int> blockFirst_, blockLast_;
    std::vector<int> callPositions_;

    /** Live-in rows, words_ words per block, by block index. */
    std::vector<uint64_t> liveIn_;
    /** By vreg index. */
    std::vector<Interval> intervals_;
    /** Copy hints by vreg index: the other operand of each copy
     *  naming the vreg, in copy order. */
    std::vector<std::vector<unsigned>> hints_;

    // Scratch registers reserved for spill-code rewriting.
    std::vector<unsigned> scratchInt_, scratchFP_;

    static size_t
    indexOf(unsigned vreg)
    {
        return vreg - kFirstVirtualReg;
    }

    uint64_t *
    row(std::vector<uint64_t> &rows, unsigned block) const
    {
        return rows.data() + size_t(block) * words_;
    }

    static bool
    testBit(const uint64_t *bits, size_t v)
    {
        return bits[v / 64] >> (v % 64) & 1;
    }

    static void
    setBit(uint64_t *bits, size_t v)
    {
        bits[v / 64] |= uint64_t(1) << (v % 64);
    }

    template <typename Fn>
    void
    forEachBit(const uint64_t *bits, Fn fn) const
    {
        for (size_t w = 0; w < words_; ++w)
            for (uint64_t b = bits[w]; b; b &= b - 1)
                fn(w * 64 + size_t(std::countr_zero(b)));
    }

    /** \p out = the union of the live-in rows of \p mbb's successors. */
    void
    liveOut(const MachineBasicBlock &mbb, std::vector<uint64_t> &out)
    {
        std::fill(out.begin(), out.end(), 0);
        for (const MachineBasicBlock *succ : mbb.successors()) {
            const uint64_t *in = row(liveIn_, succ->index());
            for (size_t w = 0; w < words_; ++w)
                out[w] |= in[w];
        }
    }

    void
    numberInstructions()
    {
        const auto &blocks = mf_.blocks();
        blockFirst_.resize(blocks.size());
        blockLast_.resize(blocks.size());
        int pos = 0;
        for (const auto &mbb : blocks) {
            blockFirst_[mbb->index()] = pos;
            for (const auto &mi : mbb->instrs()) {
                if (mi->isCall)
                    callPositions_.push_back(pos);
                ++pos;
            }
            blockLast_[mbb->index()] = pos - 1;
        }
    }

    void
    computeLiveness()
    {
        // Per block: gen (read before any write in the block) and
        // kill (written in it).
        const auto &blocks = mf_.blocks();
        std::vector<uint64_t> gen(blocks.size() * words_);
        std::vector<uint64_t> kill(blocks.size() * words_);
        for (const auto &mbb : blocks) {
            uint64_t *g = row(gen, mbb->index());
            uint64_t *k = row(kill, mbb->index());
            for (const auto &mi : mbb->instrs()) {
                for (size_t i = mi->numDefs; i < mi->ops.size(); ++i) {
                    const MOperand &op = mi->ops[i];
                    if (op.kind != MOperand::Reg || !isVirtualReg(op.reg))
                        continue;
                    if (!testBit(k, indexOf(op.reg)))
                        setBit(g, indexOf(op.reg));
                }
                for (size_t i = 0; i < mi->numDefs; ++i) {
                    const MOperand &op = mi->ops[i];
                    if (op.kind == MOperand::Reg && isVirtualReg(op.reg))
                        setBit(k, indexOf(op.reg));
                }
            }
        }

        // Iterative backward dataflow to the least fixpoint, in
        // reverse block order: live-in = gen | (live-out & ~kill).
        liveIn_.assign(blocks.size() * words_, 0);
        std::vector<uint64_t> out(words_);
        for (bool changed = true; changed;) {
            changed = false;
            for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
                const unsigned b = (*it)->index();
                liveOut(**it, out);
                const uint64_t *g = row(gen, b);
                const uint64_t *k = row(kill, b);
                uint64_t *in = row(liveIn_, b);
                for (size_t w = 0; w < words_; ++w) {
                    const uint64_t live = g[w] | (out[w] & ~k[w]);
                    changed |= live != in[w];
                    in[w] = live;
                }
            }
        }
    }

    void
    touch(size_t v, int pos)
    {
        Interval &iv = intervals_[v];
        if (!iv.used) {
            iv.used = true;
            iv.vreg = kFirstVirtualReg + static_cast<unsigned>(v);
            iv.start = iv.end = pos;
            return;
        }
        iv.start = std::min(iv.start, pos);
        iv.end = std::max(iv.end, pos);
    }

    void
    buildIntervals()
    {
        intervals_.resize(mf_.numVRegs());
        hints_.resize(mf_.numVRegs());
        std::vector<uint64_t> out(words_);
        for (const auto &mbb : mf_.blocks()) {
            if (mbb->instrs().empty())
                continue;
            const unsigned b = mbb->index();
            // Live-in values span the whole block from its start.
            forEachBit(row(liveIn_, b),
                       [&](size_t v) { touch(v, blockFirst_[b]); });
            // Values live out across the block extend to its end.
            liveOut(*mbb, out);
            forEachBit(out.data(),
                       [&](size_t v) { touch(v, blockLast_[b]); });
            int pos = blockFirst_[b];
            for (const auto &mi : mbb->instrs()) {
                for (const MOperand &op : mi->ops)
                    if (op.kind == MOperand::Reg && isVirtualReg(op.reg))
                        touch(indexOf(op.reg), pos);
                // Copy hints for coalescing, resolved at assignment
                // time: a copy hints each virtual operand at the
                // other. A self-copy hints nothing, because its vreg
                // has no register yet when its own hint is looked up.
                if (coalesce_ && mi->opcode == kOpCopy &&
                    mi->ops.size() == 2 &&
                    mi->ops[1].kind == MOperand::Reg) {
                    const unsigned dst = mi->ops[0].reg;
                    const unsigned src = mi->ops[1].reg;
                    if (dst != src && isVirtualReg(dst))
                        hints_[indexOf(dst)].push_back(src);
                    if (dst != src && isVirtualReg(src))
                        hints_[indexOf(src)].push_back(dst);
                }
                ++pos;
            }
        }

        // An interval crosses a call that lies strictly inside it.
        for (Interval &iv : intervals_) {
            auto call = std::upper_bound(callPositions_.begin(),
                                         callPositions_.end(), iv.start);
            iv.crossesCall = call != callPositions_.end() && *call < iv.end;
        }
    }

    void
    allocate()
    {
        // Reserve scratch registers (last two of each pool).
        auto reserve = [&](RegClass rc, std::vector<unsigned> &out) {
            const auto &pool = target_.allocatable(rc);
            // Two scratch registers cover the worst case (an
            // instruction with two spilled register uses).
            size_t n = pool.size() >= 3 ? 2 : 1;
            for (size_t i = pool.size() - n; i < pool.size(); ++i)
                out.push_back(pool[i]);
        };
        reserve(RegClass::Int, scratchInt_);
        reserve(RegClass::FP, scratchFP_);

        size_t numPhys = 0;
        for (RegClass rc : {RegClass::Int, RegClass::FP})
            for (unsigned phys : target_.allocatable(rc))
                numPhys = std::max<size_t>(numPhys, phys + 1);

        std::vector<Interval *> list;
        for (Interval &iv : intervals_)
            if (iv.used)
                list.push_back(&iv);
        std::sort(list.begin(), list.end(),
                  [](const Interval *a, const Interval *b) {
                      return a->start < b->start ||
                             (a->start == b->start &&
                              a->vreg < b->vreg);
                  });

        std::vector<Interval *> active;
        std::vector<char> inUse(numPhys, 0);

        auto expire = [&](int pos) {
            for (auto it = active.begin(); it != active.end();) {
                if ((*it)->end < pos) {
                    inUse[(*it)->assigned] = 0;
                    it = active.erase(it);
                } else {
                    ++it;
                }
            }
        };

        for (Interval *iv : list) {
            expire(iv->start);
            RegClass rc = mf_.vregInfo(iv->vreg).regClass;
            const auto &pool = target_.allocatable(rc);
            const auto &scratch =
                rc == RegClass::Int ? scratchInt_ : scratchFP_;
            const auto &calleeSaved = target_.calleeSaved(rc);

            // Called only on registers of rc's pool.
            auto usable = [&](unsigned phys) {
                if (inUse[phys])
                    return false;
                if (std::find(scratch.begin(), scratch.end(), phys) !=
                    scratch.end())
                    return false;
                if (iv->crossesCall &&
                    std::find(calleeSaved.begin(), calleeSaved.end(),
                              phys) == calleeSaved.end())
                    return false;
                return true;
            };

            unsigned chosen = 0;
            bool found = false;
            // Try the coalescing hint first. Copies to and from
            // convention registers (arguments, return values) hint
            // at physical registers outside the allocatable pool;
            // binding a live range to one of those would let call
            // marshalling code clobber it, so only in-pool hints
            // are honored.
            unsigned hint = 0;
            if (coalesce_ && hintFor(iv->vreg, hint) &&
                std::find(pool.begin(), pool.end(), hint) != pool.end() &&
                usable(hint)) {
                chosen = hint;
                found = true;
            }
            if (!found) {
                for (unsigned phys : pool) {
                    if (usable(phys)) {
                        chosen = phys;
                        found = true;
                        break;
                    }
                }
            }
            if (found) {
                iv->assigned = chosen;
                iv->hasReg = true;
                active.push_back(iv);
                inUse[chosen] = 1;
            } else {
                // Spill the interval ending last (this one or an
                // active one of the same class).
                Interval *victim = iv;
                for (Interval *a : active)
                    if (mf_.vregInfo(a->vreg).regClass == rc &&
                        a->end > victim->end &&
                        !(iv->crossesCall && !a->crossesCall))
                        victim = a;
                if (victim != iv) {
                    iv->assigned = victim->assigned;
                    iv->hasReg = true;
                    active.erase(std::find(active.begin(),
                                           active.end(), victim));
                    active.push_back(iv);
                    victim->assigned = 0;
                    victim->hasReg = false;
                    victim->spilled = true;
                } else {
                    iv->spilled = true;
                }
            }
        }
    }

    bool
    hintFor(unsigned vreg, unsigned &hint) const
    {
        for (unsigned other : hints_[indexOf(vreg)]) {
            if (!isVirtualReg(other)) {
                hint = other; // physical hint (arg/ret copies)
                return true;
            }
            const Interval &iv = intervals_[indexOf(other)];
            if (iv.hasReg) {
                hint = iv.assigned;
                return true;
            }
        }
        return false;
    }

    void
    rewrite()
    {
        // Each block is rebuilt into a fresh vector: reloads before
        // their instruction, spills after it.
        std::vector<std::unique_ptr<MachineInstr>> out, spills;
        for (auto &mbb : mf_.blocks()) {
            out.clear();
            for (auto &owned : mbb->instrs()) {
                MachineInstr &mi = *owned;
                unsigned scratchUsedInt = 0, scratchUsedFP = 0;

                // Uses first: reload spilled values into scratch.
                for (size_t o = mi.numDefs; o < mi.ops.size(); ++o) {
                    MOperand &op = mi.ops[o];
                    if (op.kind != MOperand::Reg ||
                        !isVirtualReg(op.reg))
                        continue;
                    const Interval &iv = intervals_[indexOf(op.reg)];
                    if (!iv.spilled) {
                        op.reg = iv.assigned;
                        continue;
                    }
                    const VRegInfo &info = mf_.vregInfo(op.reg);
                    bool fp = info.regClass == RegClass::FP;
                    auto &scratch = fp ? scratchFP_ : scratchInt_;
                    unsigned &used =
                        fp ? scratchUsedFP : scratchUsedInt;
                    LLVA_ASSERT(used < scratch.size(),
                                "out of scratch registers");
                    unsigned phys = scratch[used++];
                    out.push_back(makeReload(
                        phys, slots_.slotOf(op.reg), fp, info.fp32));
                    if (stats_)
                        ++stats_->reloadsInserted;
                    op.reg = phys;
                }
                // Defs: spill after the instruction, the last def's
                // spill first.
                spills.clear();
                for (size_t o = 0; o < mi.numDefs; ++o) {
                    MOperand &op = mi.ops[o];
                    if (op.kind != MOperand::Reg ||
                        !isVirtualReg(op.reg))
                        continue;
                    const Interval &iv = intervals_[indexOf(op.reg)];
                    if (!iv.spilled) {
                        op.reg = iv.assigned;
                        continue;
                    }
                    const VRegInfo &info = mf_.vregInfo(op.reg);
                    bool fp = info.regClass == RegClass::FP;
                    unsigned phys = (fp ? scratchFP_ : scratchInt_)[0];
                    op.reg = phys;
                    spills.push_back(makeSpill(
                        phys, slots_.slotOf(iv.vreg), fp, info.fp32));
                    if (stats_)
                        ++stats_->spillsInserted;
                }
                // Delete coalesced copies (same source and dest).
                if (mi.opcode == kOpCopy && mi.ops.size() == 2 &&
                    mi.ops[0].kind == MOperand::Reg &&
                    mi.ops[1].kind == MOperand::Reg &&
                    mi.ops[0].reg == mi.ops[1].reg) {
                    if (stats_)
                        ++stats_->phiCopiesCoalesced;
                } else {
                    out.push_back(std::move(owned));
                }
                for (auto it = spills.rbegin(); it != spills.rend(); ++it)
                    out.push_back(std::move(*it));
            }
            mbb->instrs().swap(out);
        }
    }
};

} // namespace

void
allocateRegistersLocal(MachineFunction &mf, Target &target,
                       CodeGenStats *stats)
{
    LocalAllocator(mf, target, stats).run();
}

void
allocateRegistersLinearScan(MachineFunction &mf, Target &target,
                            bool coalesce, CodeGenStats *stats)
{
    LinearScanAllocator(mf, target, coalesce, stats).run();
}

} // namespace llva
