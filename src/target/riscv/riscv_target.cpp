/**
 * @file
 * The riscv-like RISC evaluation machine, the framework's proof
 * target: everything structural — register-file queries, calling
 * convention, prologue/epilogue, encode, the threaded-dispatch
 * table, and the whole instruction selector — comes from the common
 * framework. This file supplies only the riscv policy: the register
 * plan, simm12 inline immediates, the 12-bit lui/ori split, and the
 * disassembly syntax. Unlike sparc there are no delay slots, so no
 * delay-slot hooks and no frame post-pass.
 *
 * Register numbering follows the RV64 ABI: x0=zero, x1=ra, x2=sp,
 * x3=gp, x4=tp, x5-x7=t0-t2, x8/x9=s0/s1, x10-x17=a0-a7,
 * x18-x27=s2-s11, x28-x31=t3-t6; f0-f31 at 32-63 (ft0-ft7, fs0/fs1,
 * fa0-fa7, fs2-fs11, ft8-ft11). a0-a7 / fa0-fa7 carry the first
 * eight arguments, a0 / fa0 returns.
 */

#include "target/riscv/riscv_target.h"

#include <sstream>

#include "ir/function.h"
#include "target/common/common_exec.h"
#include "target/common/common_isel.h"
#include "target/target_util.h"

namespace llva {

namespace {

/** I-type immediate range. */
bool
fitsSimm12(int64_t v)
{
    return v >= -2048 && v <= 2047;
}

class RiscvISel final : public cmn::CommonISel
{
  public:
    explicit RiscvISel(const cmn::AbiDesc &abi)
        : CommonISel(cmn::kRiscvBase, abi, /*two_address=*/false,
                     /*lo_bits=*/12)
    {}

  protected:
    bool
    immFits(int64_t v) const override
    {
        return fitsSimm12(v);
    }
};

} // namespace

RiscvTarget::RiscvTarget()
    : CommonTarget(cmn::kRiscvBase,
                   cmn::AbiDesc{/*numRegArgs=*/8, /*intArgBase=*/10,
                                /*fpArgBase=*/42, /*intRetReg=*/10,
                                /*fpRetReg=*/42},
                   /*fixed_instr_bytes=*/4)
{
    // Temporaries first, then the callee-saved s registers.
    // Excluded: x0 (hardwired zero), x1 (ra), x2 (sp), x3/x4
    // (gp/tp), a0-a7 (arguments and return). The allocator reserves
    // the last two per class (s10/s11, ft10/ft11) as spill scratch.
    allocInt_ = {5,  6,  7,  28, 29, 30, 31, 8,  9, 18,
                 19, 20, 21, 22, 23, 24, 25, 26, 27};
    calleeInt_ = {8, 9, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27};
    for (unsigned r = 32; r < 42; ++r)
        allocFP_.push_back(r); // ft0-ft7, fs0, fs1
    for (unsigned r = 50; r < 64; ++r)
        allocFP_.push_back(r); // fs2-fs11, ft8-ft11
    calleeFP_ = {40, 41, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59};

    installCommonCore(cmn::hSetCCCompare);
    // lui+ori immediate pairs with a 12-bit low half; FP constants
    // ride a constant-pool load addressed by the hi half.
    setInstr(cmn::kHi, cmn::hHi<0xfff>);
    setInstr(cmn::kLo, cmn::hLo<0xfff>);
    setInstr(cmn::kLoadConst, cmn::hLoadConst);
}

const char *
RiscvTarget::regName(unsigned reg) const
{
    static const char *const names[32] = {
        "zero", "ra", "sp",  "gp",  "tp", "t0", "t1", "t2",
        "s0",   "s1", "a0",  "a1",  "a2", "a3", "a4", "a5",
        "a6",   "a7", "s2",  "s3",  "s4", "s5", "s6", "s7",
        "s8",   "s9", "s10", "s11", "t3", "t4", "t5", "t6"};
    static const char *const fnames[32] = {
        "ft0", "ft1", "ft2",  "ft3",  "ft4", "ft5", "ft6", "ft7",
        "fs0", "fs1", "fa0",  "fa1",  "fa2", "fa3", "fa4", "fa5",
        "fa6", "fa7", "fs2",  "fs3",  "fs4", "fs5", "fs6", "fs7",
        "fs8", "fs9", "fs10", "fs11", "ft8", "ft9", "ft10", "ft11"};
    if (reg < 32)
        return names[reg];
    if (reg < 64)
        return fnames[reg - 32];
    return "?";
}

void
RiscvTarget::select(const Function &f, MachineFunction &mf,
                    const BlockOrder &order)
{
    RiscvISel isel(abi());
    isel.runOn(f, mf, order);
}

std::string
RiscvTarget::instrToString(const MachineInstr &mi) const
{
    using tgt::isFPReg;
    std::ostringstream os;
    auto reg = [&](const MOperand &op) -> std::string {
        if (isVirtualReg(op.reg))
            return "v" + std::to_string(op.reg - kFirstVirtualReg);
        return regName(op.reg);
    };
    auto operand = [&](const MOperand &op) -> std::string {
        switch (op.kind) {
          case MOperand::Reg: return reg(op);
          case MOperand::Imm: return std::to_string(op.imm);
          case MOperand::FPImm: return std::to_string(op.fpimm);
          case MOperand::Frame:
            return "frame[" + std::to_string(op.frameIndex) + "]";
          case MOperand::Block: return "." + op.block->name();
          case MOperand::Global: return op.global->name();
          case MOperand::Func: return op.func->name();
        }
        return "?";
    };
    auto slot = [&](const MOperand &op) -> std::string {
        if (op.kind != MOperand::Imm)
            return operand(op);
        return std::to_string(op.imm) + "(sp)";
    };
    unsigned key =
        mi.opcode >= kOpPhi ? mi.opcode : cmn::relOp(mi.opcode);
    switch (key) {
      case kOpCopy:
        if (isFPReg(mi.ops[0].reg))
            os << (mi.fp32 ? "fmv.s " : "fmv.d ") << reg(mi.ops[0])
               << ", " << operand(mi.ops[1]);
        else if (mi.ops[1].kind == MOperand::Global ||
                 mi.ops[1].kind == MOperand::Func)
            os << "la " << reg(mi.ops[0]) << ", "
               << operand(mi.ops[1]);
        else if (mi.ops[1].kind == MOperand::Imm)
            os << "li " << reg(mi.ops[0]) << ", "
               << operand(mi.ops[1]);
        else
            os << "mv " << reg(mi.ops[0]) << ", "
               << operand(mi.ops[1]);
        break;
      case kOpSpill:
        os << "sd " << reg(mi.ops[0]) << ", " << slot(mi.ops[1]);
        break;
      case kOpReload:
        os << "ld " << reg(mi.ops[0]) << ", " << slot(mi.ops[1]);
        break;
      case kOpFrameAddr:
        os << "addi " << reg(mi.ops[0]) << ", sp, "
           << operand(mi.ops[1]);
        break;
      case kOpDynAlloca:
        os << "call alloca, " << reg(mi.ops[1]) << ", "
           << reg(mi.ops[0]);
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
            "add", "sub", "mul", "div", "rem",
            "and", "or",  "xor", "sll", "sra"};
        static const char *const un[10] = {
            "add", "sub", "mul", "divu", "remu",
            "and", "or",  "xor", "sll",  "srl"};
        os << (mi.signExt ? sn : un)[key - cmn::kAdd];
        if (mi.ops[2].kind == MOperand::Imm)
            os << "i";
        os << " " << reg(mi.ops[0]) << ", " << reg(mi.ops[1])
           << ", " << operand(mi.ops[2]);
        break;
      }
      case cmn::kFAdd:
      case cmn::kFSub:
      case cmn::kFMul:
      case cmn::kFDiv:
      case cmn::kFRem: {
        static const char *const f[5] = {"fadd", "fsub", "fmul",
                                         "fdiv", "frem"};
        os << f[key - cmn::kFAdd] << (mi.fp32 ? ".s " : ".d ")
           << reg(mi.ops[0]) << ", " << reg(mi.ops[1]) << ", "
           << reg(mi.ops[2]);
        break;
      }
      case cmn::kSetEq:
      case cmn::kSetNe:
      case cmn::kSetLt:
      case cmn::kSetGt:
      case cmn::kSetLe:
      case cmn::kSetGe: {
        static const char *const names[6] = {"seq", "sne", "slt",
                                             "sgt", "sle", "sge"};
        os << names[key - cmn::kSetEq];
        if (!isFPReg(mi.ops[1].reg) && !mi.signExt &&
            key >= cmn::kSetLt)
            os << "u";
        os << " " << reg(mi.ops[0]) << ", " << reg(mi.ops[1])
           << ", " << operand(mi.ops[2]);
        break;
      }
      case cmn::kHi:
        os << "lui " << reg(mi.ops[0]) << ", %hi("
           << operand(mi.ops[1]) << ")";
        break;
      case cmn::kLo:
        os << "ori " << reg(mi.ops[0]) << ", " << reg(mi.ops[1])
           << ", %lo(" << operand(mi.ops[2]) << ")";
        break;
      case cmn::kLoadConst:
        os << (mi.fp32 ? "flw " : "fld ") << reg(mi.ops[0])
           << ", %lo(" << operand(mi.ops[2]) << ")("
           << reg(mi.ops[1]) << ")";
        break;
      case cmn::kBrnz:
        os << "bnez " << reg(mi.ops[0]) << ", "
           << operand(mi.ops[1]);
        break;
      case cmn::kBr:
        os << "j " << operand(mi.ops[0]);
        break;
      case cmn::kCall:
        if (mi.ops[0].kind == MOperand::Func)
            os << "call " << mi.ops[0].func->name();
        else
            os << "jalr " << reg(mi.ops[0]);
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
            os << (mi.fp32 ? "flw " : "fld ") << reg(mi.ops[0])
               << ", 0(" << reg(mi.ops[1]) << ")";
        else {
            static const char *const s[9] = {"lb", "lb", "lh", "?",
                                             "lw", "?",  "?",  "?",
                                             "ld"};
            static const char *const u[9] = {"lbu", "lbu", "lhu",
                                             "?",   "lwu", "?",
                                             "?",   "?",   "ld"};
            os << (mi.signExt ? s : u)[mi.width] << " "
               << reg(mi.ops[0]) << ", 0(" << reg(mi.ops[1]) << ")";
        }
        break;
      case cmn::kStore:
        if (isFPReg(mi.ops[0].reg))
            os << (mi.fp32 ? "fsw " : "fsd ") << reg(mi.ops[0])
               << ", 0(" << reg(mi.ops[1]) << ")";
        else {
            static const char *const w[9] = {"sb", "sb", "sh", "?",
                                             "sw", "?",  "?",  "?",
                                             "sd"};
            os << w[mi.width] << " " << reg(mi.ops[0]) << ", 0("
               << reg(mi.ops[1]) << ")";
        }
        break;
      case cmn::kLoadStack:
        os << "ld " << reg(mi.ops[0]) << ", " << slot(mi.ops[1]);
        break;
      case cmn::kStoreStack:
        os << "sd " << reg(mi.ops[0]) << ", " << slot(mi.ops[1]);
        break;
      case cmn::kExt:
        os << (mi.signExt ? "sext" : "zext")
           << static_cast<unsigned>(tgt::widthBits(mi.width)) << " "
           << reg(mi.ops[0]) << ", " << reg(mi.ops[1]);
        break;
      case cmn::kCvtI2F:
        os << (mi.fp32 ? "fcvt.s.l " : "fcvt.d.l ")
           << reg(mi.ops[0]) << ", " << reg(mi.ops[1]);
        break;
      case cmn::kCvtF2I:
        os << "fcvt.l.d " << reg(mi.ops[0]) << ", "
           << reg(mi.ops[1]);
        break;
      case cmn::kCvtF2F:
        os << (mi.fp32 ? "fcvt.s.d " : "fcvt.d.s ")
           << reg(mi.ops[0]) << ", " << reg(mi.ops[1]);
        break;
      case cmn::kCvtI2B:
        os << "snez " << reg(mi.ops[0]) << ", " << reg(mi.ops[1]);
        break;
      case cmn::kSpAdj:
        os << "addi sp, sp, " << mi.ops[0].imm;
        break;
      default:
        os << "riscv.op" << mi.opcode;
        break;
    }
    return os.str();
}

} // namespace llva
