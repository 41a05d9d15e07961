#include "codegen/codegen.h"

#include <bitset>
#include <sstream>

#include "support/statistic.h"

namespace llva {

namespace {

// Named pipeline counters, surfaced by `-stats` and the bench
// harness. All atomic: the threads that translate (a dispatching
// simulator, a live update) increment them concurrently.
Statistic NumFunctionsTranslated(
    "codegen.functions_translated",
    "Functions translated to machine code");
Statistic NumInstructionsSelected(
    "codegen.instructions_selected",
    "Machine instructions produced by instruction selection");
Statistic NumPhiCopies("codegen.phi_copies",
                       "Copies inserted by phi elimination");
Statistic NumSpills("codegen.spills",
                    "Spill stores inserted by register allocation");
Statistic NumReloads("codegen.reloads",
                     "Reloads inserted by register allocation");
Statistic NumBytesEmitted("codegen.bytes_emitted",
                          "Native bytes produced by the encoder");

StageTimer IselTime("translate.isel", "instruction selection");
StageTimer PhiElimTime("translate.phi_elim", "phi elimination");
StageTimer RegAllocTime("translate.regalloc",
                        "register allocation");
StageTimer FrameTime("translate.frame",
                     "frame layout + prologue/epilogue");
StageTimer EncodeTime("translate.encode", "byte encoding");

} // namespace

void
finalizeFrame(MachineFunction &mf)
{
    // Layout: [0, outgoingArgs) | frame objects | (saved regs added
    // by the prologue afterwards). Offsets are sp-relative after the
    // prologue's stack adjustment.
    uint64_t offset = mf.outgoingArgsSize();
    for (FrameObject &obj : mf.frame()) {
        uint64_t align = obj.align ? obj.align : 8;
        offset = (offset + align - 1) / align * align;
        obj.offset = static_cast<int64_t>(offset);
        offset += obj.size;
    }
    offset = (offset + 15) / 16 * 16;
    mf.setFrameSize(offset);

    // Rewrite Frame operands to immediates: sp-relative offsets.
    // Negative indices -(1+i) denote incoming argument slots, which
    // live in the caller's outgoing area at sp + frameSize + 8i.
    for (auto &mbb : mf.blocks()) {
        for (auto &mi : mbb->instrs()) {
            for (MOperand &op : mi->ops) {
                if (op.kind != MOperand::Frame)
                    continue;
                int64_t off;
                if (op.frameIndex < 0) {
                    int arg = -op.frameIndex - 1;
                    off = static_cast<int64_t>(mf.frameSize()) +
                          8 * arg;
                } else {
                    off = mf.frame()[static_cast<size_t>(
                                         op.frameIndex)]
                              .offset;
                }
                op.kind = MOperand::Imm;
                op.imm = off;
            }
        }
    }
}

std::vector<unsigned>
usedCalleeSaved(const MachineFunction &mf, const Target &target)
{
    // One bit per physical register: callee-saved registers are
    // physical, so a def of anything else cannot name one.
    std::bitset<kFirstVirtualReg> written;
    for (const auto &mbb : mf.blocks())
        for (const auto &mi : mbb->instrs())
            for (size_t i = 0; i < mi->numDefs; ++i) {
                const MOperand &op = mi->ops[i];
                if (op.kind == MOperand::Reg && op.reg < kFirstVirtualReg)
                    written.set(op.reg);
            }

    std::vector<unsigned> out;
    for (RegClass rc : {RegClass::Int, RegClass::FP})
        for (unsigned reg : target.calleeSaved(rc))
            if (written.test(reg))
                out.push_back(reg);
    return out;
}

std::unique_ptr<MachineFunction>
translateFunction(const Function &f, Target &target,
                  const CodeGenOptions &opts, CodeGenStats *stats,
                  const BlockOrder &order)
{
    LLVA_ASSERT(!f.isDeclaration(), "cannot translate a declaration");
    auto mf =
        std::make_unique<MachineFunction>(&f, target.name());

    // This is the self-contained, re-entrant translation unit: it
    // reads the IR and a stateless target, and writes only its own
    // MachineFunction plus atomic counters.
    CodeGenStats local;
    CodeGenStats *s = stats ? stats : &local;
    CodeGenStats before = *s;

    {
        ScopedStageTimer t(IselTime);
        target.select(f, *mf, order);
    }
    NumInstructionsSelected += mf->instructionCount();

    {
        ScopedStageTimer t(PhiElimTime);
        eliminatePhis(*mf, s);
    }

    {
        ScopedStageTimer t(RegAllocTime);
        if (opts.allocator == CodeGenOptions::Allocator::Local)
            allocateRegistersLocal(*mf, target, s);
        else
            allocateRegistersLinearScan(*mf, target, opts.coalesce,
                                        s);
    }

    ScopedStageTimer t(FrameTime);
    // Save slots for callee-saved registers the allocator used, then
    // final frame layout, then the concrete prologue/epilogue.
    std::vector<unsigned> saved = usedCalleeSaved(*mf, target);
    std::vector<int> save_slots;
    for (size_t i = 0; i < saved.size(); ++i)
        save_slots.push_back(mf->createFrameObject(8, 8));
    finalizeFrame(*mf);
    std::vector<std::pair<unsigned, int64_t>> saved_offsets;
    for (size_t i = 0; i < saved.size(); ++i)
        saved_offsets.emplace_back(
            saved[i],
            mf->frame()[static_cast<size_t>(save_slots[i])].offset);
    target.insertPrologueEpilogue(*mf, saved_offsets);
    elideFallthroughJumps(*mf);

    ++NumFunctionsTranslated;
    NumPhiCopies += s->phiCopiesInserted - before.phiCopiesInserted;
    NumSpills += s->spillsInserted - before.spillsInserted;
    NumReloads += s->reloadsInserted - before.reloadsInserted;
    return mf;
}

void
elideFallthroughJumps(MachineFunction &mf)
{
    auto &blocks = mf.blocks();
    for (size_t i = 0; i + 1 < blocks.size(); ++i) {
        auto &instrs = blocks[i]->instrs();
        // The jump may be followed by delay-slot fillers (no
        // operands, no effects); an elided branch takes its delay
        // slot with it.
        size_t j = instrs.size();
        while (j > 0 && instrs[j - 1]->ops.empty() &&
               instrs[j - 1]->numDefs == 0 &&
               !instrs[j - 1]->isCall && !instrs[j - 1]->isRet)
            --j;
        if (j == 0)
            continue;
        MachineInstr &last = *instrs[j - 1];
        // An unconditional jump is a non-call, non-ret instruction
        // whose only operand is a block.
        if (last.isCall || last.isRet || last.ops.size() != 1 ||
            last.ops[0].kind != MOperand::Block)
            continue;
        if (last.ops[0].block == blocks[i + 1].get())
            instrs.erase(instrs.begin() +
                             static_cast<ptrdiff_t>(j - 1),
                         instrs.end());
    }
}

std::vector<uint8_t>
encodeFunction(const MachineFunction &mf, const Target &target)
{
    ScopedStageTimer t(EncodeTime);
    std::vector<uint8_t> bytes;
    for (const auto &mbb : mf.blocks()) {
        for (const auto &mi : mbb->instrs()) {
            std::vector<uint8_t> enc = target.encode(*mi);
            bytes.insert(bytes.end(), enc.begin(), enc.end());
        }
    }
    NumBytesEmitted += bytes.size();
    return bytes;
}

std::string
machineFunctionToString(const MachineFunction &mf,
                        const Target &target)
{
    std::ostringstream os;
    os << mf.name() << ":  ; " << target.name() << ", frame "
       << mf.frameSize() << " bytes\n";
    for (const auto &mbb : mf.blocks()) {
        os << "." << mbb->name() << ":\n";
        for (const auto &mi : mbb->instrs())
            os << "    " << target.instrToString(*mi) << "\n";
    }
    return os.str();
}

} // namespace llva
