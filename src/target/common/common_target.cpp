#include "target/common/common_target.h"

#include "support/error.h"
#include "target/common/common_exec.h"
#include "target/target_util.h"

namespace llva {
namespace cmn {

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
CommonTarget::setInstr(unsigned rel, const char *mnemonic,
                       ExecFn exec, unsigned enc_bytes)
{
    LLVA_ASSERT(rel < kNumRelOps, "relative opcode out of range");
    table_[rel] = {mnemonic, exec,
                   static_cast<uint8_t>(enc_bytes)};
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
    static const char *const alu[] = {"add", "sub", "mul", "div",
                                      "rem", "and", "or",  "xor",
                                      "shl", "shr"};
    for (unsigned i = kAdd; i <= kShr; ++i)
        setInstr(i, alu[i - kAdd], hAlu);
    static const char *const falu[] = {"fadd", "fsub", "fmul",
                                       "fdiv", "frem"};
    for (unsigned i = kFAdd; i <= kFRem; ++i)
        setInstr(i, falu[i - kFAdd], hFAlu);
    static const char *const setcc[] = {"seteq", "setne", "setlt",
                                        "setgt", "setle", "setge"};
    for (unsigned i = kSetEq; i <= kSetGe; ++i)
        setInstr(i, setcc[i - kSetEq], setcc_handler);
    setInstr(kBrnz, "brnz", hBrnz);
    setInstr(kBr, "br", hBr);
    setInstr(kCall, "call", hCall);
    setInstr(kRet, "ret", hRet);
    setInstr(kUnwind, "unwind", hUnwind);
    setInstr(kLoad, "load", hLoad);
    setInstr(kStore, "store", hStore);
    setInstr(kLoadStack, "loadstack", hLoadStack);
    setInstr(kStoreStack, "storestack", hStoreStack);
    setInstr(kExt, "ext", tgt::execExt);
    setInstr(kCvtI2F, "cvti2f", tgt::execCvtI2F);
    setInstr(kCvtF2I, "cvtf2i", tgt::execCvtF2I);
    setInstr(kCvtF2F, "cvtf2f", tgt::execCvtF2F);
    setInstr(kCvtI2B, "cvti2b", tgt::execCvtI2B);
    setInstr(kSpAdj, "spadj", hSpAdj);
}

void
CommonTarget::insertPrologueEpilogue(
    MachineFunction &mf,
    const std::vector<std::pair<unsigned, int64_t>> &saved)
{
    tgt::insertFrameCode(mf, saved, op(kSpAdj), op(kStoreStack),
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
    if (ExecFn fn = tgt::genericHandler(mi.opcode))
        return fn;
    return desc(mi.opcode).exec;
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
    return tgt::packEncoding(mi, size);
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
