/**
 * @file
 * The x86-like CISC evaluation machine. Two-address integer
 * arithmetic over 8 registers with condition flags, variable-length
 * encoding (reg/reg forms vs imm8/imm32/imm64 forms), and a fully
 * stack-based calling convention: all arguments travel through the
 * caller's outgoing area at sp+8i.
 *
 * Everything structural — isel traversal, marshalling, handler
 * table, encode driver — comes from the common target framework;
 * this file keeps only the CISC-specific parts: the flags-based
 * comparison lowering, the operand-dependent instruction sizes, and
 * the AT&T-flavored disassembly.
 *
 * Register numbering: 0=rax 1=rcx 2=rdx 3=rbx 4=rsi 5=rdi 6=rbp
 * (7=rsp is the simulated stack pointer and never allocated);
 * FP registers 32..39 are xmm0..xmm7.
 */

#include "target/x86/x86_target.h"

#include <sstream>

#include "ir/function.h"
#include "target/common/common_exec.h"
#include "target/common/common_isel.h"
#include "target/target_util.h"

namespace llva {

namespace {

bool
fitsInt8(int64_t v)
{
    return v >= -128 && v <= 127;
}

bool
fitsInt32(int64_t v)
{
    return v >= INT32_MIN && v <= INT32_MAX;
}

/** x86-specific opcodes: the flags-setting compares. */
enum X86Op : uint16_t {
    kX86Cmp = cmn::kX86Base + cmn::kTargetOp0,
    kX86FCmp,
};

const char *const kIntRegNames[8] = {"rax", "rcx", "rdx", "rbx",
                                     "rsi", "rdi", "rbp", "rsp"};

class X86ISel final : public cmn::CommonISel
{
  public:
    explicit X86ISel(const cmn::AbiDesc &abi)
        : CommonISel(cmn::kX86Base, abi, /*two_address=*/true,
                     /*lo_bits=*/0)
    {}

  protected:
    // Compares cannot carry an imm64 even though moves can.
    bool
    caseImmFits(int64_t v) const override
    {
        return fitsInt32(v);
    }

    /** Flags: cmp records both signed and unsigned views; setcc
     *  picks one via signExt (or the FP view when the last compare
     *  was FP). */
    void
    lowerCompare(const SetCondInst &inst) override
    {
        const Type *t = inst.lhs()->type();
        unsigned dst = vregFor(&inst);
        unsigned a = valueReg(inst.lhs());
        if (t->isFloatingPoint()) {
            unsigned b = valueReg(inst.rhs());
            emit(kX86FCmp, {R(a), R(b)});
            emit(op(cmn::kSetEq + setccIndex(inst.opcode())),
                 {R(dst)}, 1);
            return;
        }
        MOperand b = intOperand(inst.rhs());
        auto *cmp = emit(kX86Cmp, {R(a), b});
        cmp->width = widthOf(t);
        auto *set = emit(
            op(cmn::kSetEq + setccIndex(inst.opcode())), {R(dst)}, 1);
        set->signExt = t->isSignedInteger();
    }

    void
    emitCaseSetEq(unsigned dst, unsigned v,
                  const MOperand &b) override
    {
        // The interpreter matches on full canonical 64-bit values,
        // so compare at width 8 unsigned.
        emit(kX86Cmp, {R(v), b});
        emit(op(cmn::kSetEq), {R(dst)}, 1);
    }

  private:
    static unsigned
    setccIndex(Opcode op)
    {
        switch (op) {
          case Opcode::SetEQ: return 0;
          case Opcode::SetNE: return 1;
          case Opcode::SetLT: return 2;
          case Opcode::SetGT: return 3;
          case Opcode::SetLE: return 4;
          case Opcode::SetGE: return 5;
          default: panic("not a comparison opcode");
        }
    }
};

} // namespace

X86Target::X86Target()
    : CommonTarget(cmn::kX86Base,
                   cmn::AbiDesc{/*numRegArgs=*/0, /*intArgBase=*/0,
                                /*fpArgBase=*/32, /*intRetReg=*/0,
                                /*fpRetReg=*/32},
                   /*fixed_instr_bytes=*/0)
{
    // Preference order: caller-saved first so leaf code stays cheap;
    // the linear-scan allocator reserves the last two per class as
    // spill scratch (rdi/rbp and xmm6/xmm7).
    allocInt_ = {0, 1, 2, 3, 4, 5, 6};
    calleeInt_ = {3, 4, 5, 6}; // rbx rsi rdi rbp
    allocFP_ = {32, 33, 34, 35, 36, 37, 38, 39};
    calleeFP_ = {}; // xmm regs are caller-saved on x86

    installCommonCore(cmn::hSetCCFlags);
    setInstr(cmn::relOp(kX86Cmp), cmn::hCmpFlags);
    setInstr(cmn::relOp(kX86FCmp), cmn::hFCmpFlags, 4);

    // Fixed encoded sizes; rows left at 0 are operand-dependent and
    // resolved by variableSize().
    for (unsigned i = cmn::kFAdd; i <= cmn::kFDiv; ++i)
        setEncBytes(i, 4);
    setEncBytes(cmn::kFRem, 5); // runtime fmod thunk
    setEncBytes(cmn::kDiv, 3);  // cqo implied
    setEncBytes(cmn::kRem, 3);
    for (unsigned i = cmn::kSetEq; i <= cmn::kSetGe; ++i)
        setEncBytes(i, 4);      // setcc + movzx fold
    setEncBytes(cmn::kBrnz, 9); // test r,r (3) + jnz rel32 (6)
    setEncBytes(cmn::kBr, 5);   // jmp rel32
    setEncBytes(cmn::kRet, 1);
    setEncBytes(cmn::kUnwind, 2); // int imm8 style trap
    setEncBytes(cmn::kExt, 4);
    setEncBytes(cmn::kCvtI2F, 5);
    setEncBytes(cmn::kCvtF2I, 5);
    setEncBytes(cmn::kCvtF2F, 4);
    setEncBytes(cmn::kCvtI2B, 6); // test + setne
}

const char *
X86Target::regName(unsigned reg) const
{
    static const char *const xmm[8] = {"xmm0", "xmm1", "xmm2",
                                       "xmm3", "xmm4", "xmm5",
                                       "xmm6", "xmm7"};
    if (reg < 8)
        return kIntRegNames[reg];
    if (reg >= 32 && reg < 40)
        return xmm[reg - 32];
    return "?";
}

void
X86Target::select(const Function &f, MachineFunction &mf,
                  const BlockOrder &order)
{
    X86ISel isel(abi());
    isel.runOn(f, mf, order);
}

size_t
X86Target::variableSize(const MachineInstr &mi) const
{
    using namespace tgt;
    auto immSize = [](int64_t v) -> size_t {
        return fitsInt8(v) ? 1 : 4;
    };
    switch (mi.opcode) {
      case kOpCopy:
        switch (mi.ops[1].kind) {
          case MOperand::Reg:
            return isFPReg(mi.ops[0].reg) ? 4 : 3;
          case MOperand::Imm:
            return fitsInt32(mi.ops[1].imm) ? 5 : 10; // mov / movabs
          case MOperand::FPImm:
            return 8; // movsd xmm, [rip+disp32]
          default:
            return 10; // movabs $address
        }
      case kOpSpill:
      case kOpReload:
      case kOpFrameAddr:
        // mod/rm with rsp base: disp8 or disp32 form.
        return mi.ops[1].kind == MOperand::Imm
                   ? 4 + immSize(mi.ops[1].imm)
                   : 8;
      case kOpDynAlloca:
        return 5; // call [runtime]
    }
    switch (cmn::relOp(mi.opcode)) {
      case cmn::kAdd:
      case cmn::kSub:
      case cmn::kAnd:
      case cmn::kOr:
      case cmn::kXor:
        return mi.ops[2].kind == MOperand::Imm
                   ? 3 + immSize(mi.ops[2].imm)
                   : 3;
      case cmn::kMul:
        return mi.ops[2].kind == MOperand::Imm
                   ? 3 + immSize(mi.ops[2].imm)
                   : 4;
      case cmn::kShl:
      case cmn::kShr:
        return mi.ops[2].kind == MOperand::Imm ? 4 : 3;
      case cmn::relOp(kX86Cmp):
        return mi.ops[1].kind == MOperand::Imm
                   ? 3 + immSize(mi.ops[1].imm)
                   : 3;
      case cmn::kCall:
        return mi.ops[0].kind == MOperand::Func ? 5 : 3;
      case cmn::kLoad:
      case cmn::kStore:
        return isFPReg(mi.ops[0].reg) ? 5 : (mi.width == 8 ? 4 : 3);
      case cmn::kLoadStack:
      case cmn::kStoreStack:
        return mi.ops[1].kind == MOperand::Imm
                   ? 4 + immSize(mi.ops[1].imm)
                   : 8;
      case cmn::kSpAdj:
        return 3 + immSize(mi.ops[0].imm);
      default:
        panic("x86: cannot encode opcode");
    }
}

std::string
X86Target::instrToString(const MachineInstr &mi) const
{
    using tgt::isFPReg;
    std::ostringstream os;
    auto reg = [&](const MOperand &op) -> std::string {
        if (isVirtualReg(op.reg))
            return "%v" + std::to_string(op.reg - kFirstVirtualReg);
        return std::string("%") + regName(op.reg);
    };
    auto operand = [&](const MOperand &op) -> std::string {
        switch (op.kind) {
          case MOperand::Reg: return reg(op);
          case MOperand::Imm: return "$" + std::to_string(op.imm);
          case MOperand::FPImm:
            return "$" + std::to_string(op.fpimm);
          case MOperand::Frame:
            return "frame[" + std::to_string(op.frameIndex) + "]";
          case MOperand::Block: return "." + op.block->name();
          case MOperand::Global: return "$" + op.global->name();
          case MOperand::Func: return "$" + op.func->name();
        }
        return "?";
    };
    auto slot = [&](const MOperand &op) -> std::string {
        if (op.kind != MOperand::Imm)
            return "[" + operand(op) + "]";
        return "[%rsp+" + std::to_string(op.imm) + "]";
    };
    auto widthName = [&]() -> const char * {
        switch (mi.width) {
          case 0:
          case 1: return "byte";
          case 2: return "word";
          case 4: return "dword";
          default: return "qword";
        }
    };
    // Generic pseudos keep their absolute opcode; target
    // instructions print by their relative (structural) opcode.
    unsigned key =
        mi.opcode >= kOpPhi ? mi.opcode : cmn::relOp(mi.opcode);
    switch (key) {
      case kOpCopy:
        os << (isFPReg(mi.ops[0].reg) ? (mi.fp32 ? "movss" : "movsd")
                                      : "mov")
           << " " << reg(mi.ops[0]) << ", " << operand(mi.ops[1]);
        break;
      case kOpSpill:
        os << "mov " << slot(mi.ops[1]) << ", " << reg(mi.ops[0]);
        break;
      case kOpReload:
        os << "mov " << reg(mi.ops[0]) << ", " << slot(mi.ops[1]);
        break;
      case kOpFrameAddr:
        os << "lea " << reg(mi.ops[0]) << ", " << slot(mi.ops[1]);
        break;
      case kOpDynAlloca:
        os << "call alloca, " << reg(mi.ops[0]) << ", "
           << reg(mi.ops[1]);
        break;
      case cmn::kAdd:
      case cmn::kSub:
      case cmn::kMul:
      case cmn::kDiv:
      case cmn::kRem:
      case cmn::kAnd:
      case cmn::kOr:
      case cmn::kXor:
      case cmn::kShl:
      case cmn::kShr: {
        static const char *const sn[10] = {
            "add", "sub", "imul", "idiv", "irem",
            "and", "or",  "xor",  "shl",  "sar"};
        static const char *const un[10] = {
            "add", "sub", "imul", "div", "rem",
            "and", "or",  "xor",  "shl", "shr"};
        os << (mi.signExt ? sn : un)[key - cmn::kAdd] << " "
           << reg(mi.ops[0]) << ", " << operand(mi.ops[2]);
        break;
      }
      case cmn::kFAdd:
      case cmn::kFSub:
      case cmn::kFMul:
      case cmn::kFDiv:
      case cmn::kFRem: {
        static const char *const fd[5] = {"addsd", "subsd", "mulsd",
                                          "divsd", "fmodsd"};
        static const char *const fs[5] = {"addss", "subss", "mulss",
                                          "divss", "fmodss"};
        os << (mi.fp32 ? fs : fd)[key - cmn::kFAdd] << " "
           << reg(mi.ops[0]) << ", " << reg(mi.ops[2]);
        break;
      }
      case cmn::relOp(kX86Cmp):
        os << "cmp " << reg(mi.ops[0]) << ", " << operand(mi.ops[1]);
        break;
      case cmn::relOp(kX86FCmp):
        os << "ucomisd " << reg(mi.ops[0]) << ", " << reg(mi.ops[1]);
        break;
      case cmn::kSetEq:
      case cmn::kSetNe:
      case cmn::kSetLt:
      case cmn::kSetGt:
      case cmn::kSetLe:
      case cmn::kSetGe: {
        static const char *const sn[6] = {"sete",  "setne", "setl",
                                          "setg",  "setle", "setge"};
        static const char *const un[6] = {"sete",  "setne", "setb",
                                          "seta",  "setbe", "setae"};
        os << (mi.signExt ? sn : un)[key - cmn::kSetEq] << " "
           << reg(mi.ops[0]);
        break;
      }
      case cmn::kBrnz:
        os << "test " << reg(mi.ops[0]) << ", " << reg(mi.ops[0])
           << " ; jnz " << operand(mi.ops[1]);
        break;
      case cmn::kBr:
        os << "jmp " << operand(mi.ops[0]);
        break;
      case cmn::kCall:
        if (mi.ops[0].kind == MOperand::Func)
            os << "call " << mi.ops[0].func->name();
        else
            os << "call *" << reg(mi.ops[0]);
        for (size_t i = 1; i < mi.ops.size(); ++i)
            os << (i == 1 ? " -> " : ", ") << operand(mi.ops[i]);
        break;
      case cmn::kRet:
        os << "ret";
        break;
      case cmn::kUnwind:
        os << "unwind";
        break;
      case cmn::kLoad:
        if (isFPReg(mi.ops[0].reg))
            os << (mi.fp32 ? "movss " : "movsd ") << reg(mi.ops[0])
               << ", [" << reg(mi.ops[1]) << "]";
        else
            os << (mi.signExt && mi.width < 8 ? "movsx " : "mov ")
               << reg(mi.ops[0]) << ", " << widthName() << " ["
               << reg(mi.ops[1]) << "]";
        break;
      case cmn::kStore:
        if (isFPReg(mi.ops[0].reg))
            os << (mi.fp32 ? "movss [" : "movsd [") << reg(mi.ops[1])
               << "], " << reg(mi.ops[0]);
        else
            os << "mov " << widthName() << " [" << reg(mi.ops[1])
               << "], " << reg(mi.ops[0]);
        break;
      case cmn::kLoadStack:
        os << (isFPReg(mi.ops[0].reg) ? "movsd " : "mov ")
           << reg(mi.ops[0]) << ", " << slot(mi.ops[1]);
        break;
      case cmn::kStoreStack:
        os << (isFPReg(mi.ops[0].reg) ? "movsd " : "mov ")
           << slot(mi.ops[1]) << ", " << reg(mi.ops[0]);
        break;
      case cmn::kExt:
        os << (mi.signExt ? "movsx " : "movzx ") << reg(mi.ops[0])
           << ", " << reg(mi.ops[1]);
        break;
      case cmn::kCvtI2F:
        os << (mi.fp32 ? "cvtsi2ss " : "cvtsi2sd ") << reg(mi.ops[0])
           << ", " << reg(mi.ops[1]);
        break;
      case cmn::kCvtF2I:
        os << "cvttsd2si " << reg(mi.ops[0]) << ", "
           << reg(mi.ops[1]);
        break;
      case cmn::kCvtF2F:
        os << (mi.fp32 ? "cvtsd2ss " : "cvtss2sd ") << reg(mi.ops[0])
           << ", " << reg(mi.ops[1]);
        break;
      case cmn::kCvtI2B:
        os << "test " << reg(mi.ops[1]) << " ; setne "
           << reg(mi.ops[0]);
        break;
      case cmn::kSpAdj:
        os << "add %rsp, " << mi.ops[0].imm;
        break;
      default:
        os << "x86.op" << mi.opcode;
        break;
    }
    return os.str();
}

} // namespace llva
