#include "target/common/common_target.h"

#include <cmath>

#include "support/error.h"
#include "target/common/common_exec.h"
#include "target/target_util.h"

namespace llva {
namespace cmn {

namespace {

/** FP value of a use operand (Reg/FPImm). */
double
operandFPValue(const MOperand &op, SimState &state)
{
    switch (op.kind) {
      case MOperand::Reg: return state.freg[op.reg - 32];
      case MOperand::FPImm: return op.fpimm;
      default: panic("operand has no FP value");
    }
}

/** int -> FP: sign from the SOURCE type, round if the dest is float. */
void
execCvtI2F(const MachineInstr &mi, SimState &state)
{
    uint64_t a = state.ireg[mi.ops[1].reg];
    double d = mi.signExt
                   ? static_cast<double>(static_cast<int64_t>(a))
                   : static_cast<double>(a);
    state.freg[mi.ops[0].reg - 32] = tgt::fpRound(d, mi.fp32);
}

/** FP -> int, following the interpreter: non-finite -> 0, negative
 *  unsigned -> 0, then canonicalize at the destination width. */
void
execCvtF2I(const MachineInstr &mi, SimState &state)
{
    double v = state.freg[mi.ops[1].reg - 32];
    uint64_t r = 0;
    if (std::isfinite(v)) {
        if (mi.signExt)
            r = static_cast<uint64_t>(static_cast<int64_t>(v));
        else if (v > 0)
            r = static_cast<uint64_t>(v);
    }
    state.ireg[mi.ops[0].reg] = tgt::normInt(r, mi.width, mi.signExt);
}

/** FP -> FP: round when narrowing to float. */
void
execCvtF2F(const MachineInstr &mi, SimState &state)
{
    state.freg[mi.ops[0].reg - 32] =
        tgt::fpRound(state.freg[mi.ops[1].reg - 32], mi.fp32);
}

/** int -> bool: any nonzero becomes 1. */
void
execCvtI2B(const MachineInstr &mi, SimState &state)
{
    state.ireg[mi.ops[0].reg] = state.ireg[mi.ops[1].reg] ? 1 : 0;
}

/** int -> int: re-canonicalize at the destination width/sign. */
void
execExt(const MachineInstr &mi, SimState &state)
{
    state.ireg[mi.ops[0].reg] =
        tgt::normInt(state.ireg[mi.ops[1].reg], mi.width, mi.signExt);
}

// The target-independent pseudos other than spill code (copies, frame
// address, dynamic alloca); spill and reload share the stack-slot
// handlers.

void
hdlCopy(const MachineInstr &mi, SimState &state)
{
    unsigned dst = mi.ops[0].reg;
    if (tgt::isFPReg(dst))
        state.freg[dst - 32] = operandFPValue(mi.ops[1], state);
    else
        state.ireg[dst] = tgt::operandIntValue(mi.ops[1], state);
}

void
hdlFrameAddr(const MachineInstr &mi, SimState &state)
{
    state.ireg[mi.ops[0].reg] =
        state.sp + static_cast<uint64_t>(mi.ops[1].imm);
}

void
hdlDynAlloca(const MachineInstr &mi, SimState &state)
{
    uint64_t size = state.ireg[mi.ops[1].reg];
    uint64_t p = state.mem->malloc(size ? size : 1);
    if (!p) {
        state.trap(TrapKind::StackOverflow);
        return;
    }
    state.ireg[mi.ops[0].reg] = p;
}

/**
 * The frame-code shape shared by both targets: sp -= frameSize and
 * callee-saved stores at function entry; the mirrored loads and
 * sp += frameSize immediately before every return. The simulator
 * driver does not restore sp on return, so the epilogue must.
 * Opcode numbers are the target's sp-adjust / slot-store /
 * slot-load instructions.
 */
void
insertFrameCode(MachineFunction &mf,
                const std::vector<std::pair<unsigned, int64_t>> &saved,
                uint16_t sp_adj_op, uint16_t store_op,
                uint16_t load_op)
{
    int64_t fs = static_cast<int64_t>(mf.frameSize());
    if (fs == 0 && saved.empty())
        return;
    auto mkAdj = [&](int64_t d) {
        return std::make_unique<MachineInstr>(
            sp_adj_op, std::vector<MOperand>{MOperand::makeImm(d)},
            0u);
    };
    auto &entry = *mf.blocks().front();
    std::vector<std::unique_ptr<MachineInstr>> pro;
    if (fs)
        pro.push_back(mkAdj(-fs));
    for (const auto &[reg, off] : saved)
        pro.push_back(std::make_unique<MachineInstr>(
            store_op,
            std::vector<MOperand>{MOperand::makeReg(reg),
                                  MOperand::makeImm(off)},
            0u));
    entry.instrs().insert(entry.instrs().begin(),
                          std::make_move_iterator(pro.begin()),
                          std::make_move_iterator(pro.end()));
    for (auto &mbb : mf.blocks()) {
        auto &instrs = mbb->instrs();
        for (size_t i = 0; i < instrs.size(); ++i) {
            if (!instrs[i]->isRet)
                continue;
            std::vector<std::unique_ptr<MachineInstr>> epi;
            for (const auto &[reg, off] : saved)
                epi.push_back(std::make_unique<MachineInstr>(
                    load_op,
                    std::vector<MOperand>{MOperand::makeReg(reg),
                                          MOperand::makeImm(off)},
                    1u));
            if (fs)
                epi.push_back(mkAdj(fs));
            size_t n = epi.size();
            instrs.insert(
                instrs.begin() + static_cast<ptrdiff_t>(i),
                std::make_move_iterator(epi.begin()),
                std::make_move_iterator(epi.end()));
            i += n;
        }
    }
}

/** Fill an encoding buffer of exactly \p size bytes: opcode byte,
 *  operand summary bytes, immediates little-endian. */
std::vector<uint8_t>
packEncoding(const MachineInstr &mi, size_t size)
{
    std::vector<uint8_t> bytes(size, 0);
    bytes[0] = static_cast<uint8_t>(mi.opcode & 0xff);
    size_t at = 1;
    for (const MOperand &op : mi.ops) {
        if (at >= size)
            break;
        switch (op.kind) {
          case MOperand::Reg:
            bytes[at++] = static_cast<uint8_t>(op.reg & 0xff);
            break;
          case MOperand::Imm:
          case MOperand::Frame: {
            uint64_t v = static_cast<uint64_t>(op.imm);
            for (unsigned i = 0; i < 8 && at < size; ++i)
                bytes[at++] = static_cast<uint8_t>(v >> (8 * i));
            break;
          }
          case MOperand::Block:
            bytes[at++] = static_cast<uint8_t>(
                op.block ? op.block->index() : 0);
            break;
          default:
            bytes[at++] = 0xaa;
            break;
        }
    }
    return bytes;
}

} // namespace

CommonTarget::CommonTarget(uint16_t opcode_base, const AbiDesc &abi,
                           unsigned fixed_instr_bytes)
    : base_(opcode_base), abi_(abi), fixedBytes_(fixed_instr_bytes)
{}

const std::vector<unsigned> &
CommonTarget::allocatable(RegClass rc) const
{
    return rc == RegClass::Int ? allocInt_ : allocFP_;
}

const std::vector<unsigned> &
CommonTarget::calleeSaved(RegClass rc) const
{
    return rc == RegClass::Int ? calleeInt_ : calleeFP_;
}

unsigned
CommonTarget::returnReg(RegClass rc) const
{
    return rc == RegClass::Int ? abi_.intRetReg : abi_.fpRetReg;
}

void
CommonTarget::setInstr(unsigned rel, ExecFn exec, unsigned enc_bytes)
{
    LLVA_ASSERT(rel < kNumRelOps, "relative opcode out of range");
    table_[rel] = {exec, static_cast<uint8_t>(enc_bytes)};
}

void
CommonTarget::setEncBytes(unsigned rel, unsigned bytes)
{
    LLVA_ASSERT(rel < kNumRelOps && table_[rel].exec,
                "setEncBytes on unregistered opcode");
    table_[rel].encBytes = static_cast<uint8_t>(bytes);
}

void
CommonTarget::installCommonCore(ExecFn setcc_handler)
{
    for (unsigned i = kAdd; i <= kShr; ++i)
        setInstr(i, hAlu);
    for (unsigned i = kFAdd; i <= kFRem; ++i)
        setInstr(i, hFAlu);
    for (unsigned i = kSetEq; i <= kSetGe; ++i)
        setInstr(i, setcc_handler);
    setInstr(kBrnz, hBrnz);
    setInstr(kBr, hBr);
    setInstr(kCall, hCall);
    setInstr(kRet, hRet);
    setInstr(kUnwind, hUnwind);
    setInstr(kLoad, hLoad);
    setInstr(kStore, hStore);
    setInstr(kLoadStack, hLoadStack);
    setInstr(kStoreStack, hStoreStack);
    setInstr(kExt, execExt);
    setInstr(kCvtI2F, execCvtI2F);
    setInstr(kCvtF2I, execCvtF2I);
    setInstr(kCvtF2F, execCvtF2F);
    setInstr(kCvtI2B, execCvtI2B);
    setInstr(kSpAdj, hSpAdj);
}

void
CommonTarget::insertPrologueEpilogue(
    MachineFunction &mf,
    const std::vector<std::pair<unsigned, int64_t>> &saved)
{
    insertFrameCode(mf, saved, op(kSpAdj), op(kStoreStack),
                         op(kLoadStack));
    finishPrologueEpilogue(mf);
}

const InstrDesc &
CommonTarget::desc(uint16_t opcode) const
{
    uint16_t rel = relOp(opcode);
    if ((opcode & 0xff00) != base_ || rel >= kNumRelOps ||
        !table_[rel].exec)
        panic("%s: unknown opcode %u", name(), opcode);
    return table_[rel];
}

ExecFn
CommonTarget::handlerFor(const MachineInstr &mi) const
{
    switch (mi.opcode) {
      case kOpCopy: return hdlCopy;
      case kOpSpill: return hStoreStack;
      case kOpReload: return hLoadStack;
      case kOpFrameAddr: return hdlFrameAddr;
      case kOpDynAlloca: return hdlDynAlloca;
      default: return desc(mi.opcode).exec;
    }
}

std::vector<uint8_t>
CommonTarget::encode(const MachineInstr &mi) const
{
    size_t size;
    if (fixedBytes_) {
        // The RISC property: every instruction, including the
        // generic pseudos, packs into exactly one word. Wide
        // constants already cost extra instructions, never a wider
        // word.
        size = fixedBytes_;
    } else if (mi.opcode >= kOpPhi) {
        size = variableSize(mi);
    } else {
        const InstrDesc &d = desc(mi.opcode);
        size = d.encBytes ? d.encBytes : variableSize(mi);
    }
    return packEncoding(mi, size);
}

size_t
CommonTarget::variableSize(const MachineInstr &mi) const
{
    panic("%s: no variable-size rule for opcode %u", name(),
          mi.opcode);
}

void
CommonTarget::writeArgs(SimState &state, const FunctionType *ft,
                        const std::vector<RtValue> &args) const
{
    for (size_t i = 0; i < args.size(); ++i) {
        bool fp = i < ft->numParams() &&
                  ft->paramType(i)->isFloatingPoint();
        if (i < abi_.numRegArgs) {
            if (fp)
                state.freg[abi_.fpArgBase - 32 + i] = args[i].f;
            else
                state.ireg[abi_.intArgBase + i] = args[i].i;
        } else {
            uint64_t addr = state.sp + 8 * i;
            if (fp)
                state.mem->storeFP(addr, false, args[i].f);
            else
                state.mem->store(addr, 8, args[i].i);
        }
    }
}

std::vector<RtValue>
CommonTarget::readArgs(SimState &state, const FunctionType *ft) const
{
    std::vector<RtValue> args(ft->numParams());
    for (size_t i = 0; i < ft->numParams(); ++i) {
        bool fp = ft->paramType(i)->isFloatingPoint();
        if (i < abi_.numRegArgs) {
            args[i] =
                fp ? RtValue::ofFP(state.freg[abi_.fpArgBase - 32 + i])
                   : RtValue::ofInt(state.ireg[abi_.intArgBase + i]);
        } else {
            uint64_t addr = state.sp + 8 * i;
            if (fp) {
                double v = 0;
                state.mem->loadFP(addr, false, v);
                args[i] = RtValue::ofFP(v);
            } else {
                uint64_t v = 0;
                state.mem->load(addr, 8, v);
                args[i] = RtValue::ofInt(v);
            }
        }
    }
    return args;
}

} // namespace cmn
} // namespace llva
