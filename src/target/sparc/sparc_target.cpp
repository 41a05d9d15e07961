/**
 * @file
 * The sparc-like RISC evaluation machine. Three-address arithmetic
 * over 32 integer registers, compare-into-register conditionals
 * (V9-style branch-on-register, so no condition-code state), fixed
 * 4-byte instruction words — large immediates pay the sethi+or tax
 * the paper's sparc expansion ratios come from — a register calling
 * convention, and branch/call/return delay slots.
 *
 * Register numbering follows the architecture: %g0-%g7 = 0-7,
 * %o0-%o7 = 8-15, %l0-%l7 = 16-23, %i0-%i7 = 24-31, and %f0-%f31 at
 * 32-63. %o0-%o5 / %f0-%f5 carry arguments, %o0 / %f0 returns.
 *
 * Everything structural lives in the common target framework; this
 * file keeps only the sparc policy: simm13 inline immediates, the
 * 10-bit sethi/or split, delay-slot fillers, and the disassembly
 * syntax.
 */

#include "target/sparc/sparc_target.h"

#include <sstream>

#include "ir/function.h"
#include "target/common/common_exec.h"
#include "target/common/common_isel.h"
#include "target/target_util.h"

namespace llva {

namespace {

class SparcISel final : public cmn::CommonISel
{
  public:
    explicit SparcISel(const cmn::AbiDesc &abi)
        : CommonISel(cmn::kSparcBase, abi, /*two_address=*/false,
                     /*lo_bits=*/10)
    {}

  protected:
    bool
    immFits(int64_t v) const override
    {
        return tgt::fitsSimm13(v);
    }

    void
    afterCall() override
    {
        emit(op(cmn::kNop), {}); // delay slot
    }

    void
    afterRet() override
    {
        emit(op(cmn::kNop), {}); // delay slot
    }
};

} // namespace

SparcTarget::SparcTarget()
    : CommonTarget(cmn::kSparcBase,
                   cmn::AbiDesc{/*numRegArgs=*/6, /*intArgBase=*/8,
                                /*fpArgBase=*/32, /*intRetReg=*/8,
                                /*fpRetReg=*/32},
                   /*fixed_instr_bytes=*/4)
{
    // %g1-%g5 (caller-saved) first, then the callee-saved locals and
    // ins. Excluded: %g0 (zero), %g6/%g7 (system), %o0-%o7
    // (arguments, return, sp at %o6, link at %o7), %i6/%i7 (frame
    // pointer and return address in a real RISC ABI). The allocator
    // reserves the last two per class (%i4/%i5, %f30/%f31) as spill
    // scratch.
    allocInt_ = {1,  2,  3,  4,  5,  16, 17, 18, 19, 20,
                 21, 22, 23, 24, 25, 26, 27, 28, 29};
    calleeInt_ = {16, 17, 18, 19, 20, 21, 22,
                  23, 24, 25, 26, 27, 28, 29};
    for (unsigned r = 38; r < 64; ++r)
        allocFP_.push_back(r); // %f6-%f31
    for (unsigned r = 48; r < 64; ++r)
        calleeFP_.push_back(r); // %f16-%f31

    installCommonCore(cmn::hSetCCCompare);
    // Address/large-immediate synthesis; both halves carry the full
    // value (or symbol) so the pair reconstructs any 64-bit canonical
    // image exactly. Global and function addresses always pay this
    // two-instruction tax — the RISC property behind the paper's
    // sparc code-size numbers. The delay-slot nop exists because this
    // simple code generator never schedules useful work into
    // call/return slots.
    setInstr(cmn::kHi, "sethi", cmn::hHi<0x3ff>);
    setInstr(cmn::kLo, "or", cmn::hLo<0x3ff>);
    setInstr(cmn::kLoadConst, "ld", cmn::hLoadConst);
    setInstr(cmn::kNop, "nop", cmn::hNop);
}

const char *
SparcTarget::regName(unsigned reg) const
{
    static const char *const names[32] = {
        "g0", "g1", "g2", "g3", "g4", "g5", "g6", "g7",
        "o0", "o1", "o2", "o3", "o4", "o5", "o6", "o7",
        "l0", "l1", "l2", "l3", "l4", "l5", "l6", "l7",
        "i0", "i1", "i2", "i3", "i4", "i5", "i6", "i7"};
    static const char *const fnames[32] = {
        "f0",  "f1",  "f2",  "f3",  "f4",  "f5",  "f6",  "f7",
        "f8",  "f9",  "f10", "f11", "f12", "f13", "f14", "f15",
        "f16", "f17", "f18", "f19", "f20", "f21", "f22", "f23",
        "f24", "f25", "f26", "f27", "f28", "f29", "f30", "f31"};
    if (reg < 32)
        return names[reg];
    if (reg < 64)
        return fnames[reg - 32];
    return "?";
}

void
SparcTarget::select(const Function &f, MachineFunction &mf)
{
    SparcISel isel(abi());
    isel.runOn(f, mf);
}

void
SparcTarget::finishPrologueEpilogue(MachineFunction &mf)
{
    // Fill branch delay slots with nops. Call and return slots are
    // filled during selection; branch slots must wait until after
    // phi elimination, which needs the branch run at the end of each
    // block to be contiguous.
    for (auto &mbb : mf.blocks()) {
        auto &instrs = mbb->instrs();
        for (size_t i = 0; i < instrs.size(); ++i) {
            uint16_t opc = instrs[i]->opcode;
            if (opc != op(cmn::kBrnz) && opc != op(cmn::kBr))
                continue;
            instrs.insert(
                instrs.begin() + static_cast<ptrdiff_t>(i + 1),
                std::make_unique<MachineInstr>(
                    op(cmn::kNop), std::vector<MOperand>{}, 0));
            ++i;
        }
    }
}

std::string
SparcTarget::instrToString(const MachineInstr &mi) const
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
            return "[" + operand(op) + "]";
        return "[%sp+" + std::to_string(op.imm) + "]";
    };
    unsigned key =
        mi.opcode >= kOpPhi ? mi.opcode : cmn::relOp(mi.opcode);
    switch (key) {
      case kOpCopy:
        if (isFPReg(mi.ops[0].reg))
            os << (mi.fp32 ? "fmovs " : "fmovd ")
               << operand(mi.ops[1]) << ", " << reg(mi.ops[0]);
        else if (mi.ops[1].kind == MOperand::Global ||
                 mi.ops[1].kind == MOperand::Func)
            os << "set " << operand(mi.ops[1]) << ", "
               << reg(mi.ops[0]);
        else
            os << "mov " << operand(mi.ops[1]) << ", "
               << reg(mi.ops[0]);
        break;
      case kOpSpill:
        os << "stx " << reg(mi.ops[0]) << ", " << slot(mi.ops[1]);
        break;
      case kOpReload:
        os << "ldx " << slot(mi.ops[1]) << ", " << reg(mi.ops[0]);
        break;
      case kOpFrameAddr:
        os << "add %sp, " << operand(mi.ops[1]) << ", "
           << reg(mi.ops[0]);
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
            "add", "sub", "mulx", "sdivx", "srem",
            "and", "or",  "xor",  "sllx",  "srax"};
        static const char *const un[10] = {
            "add", "sub", "mulx", "udivx", "urem",
            "and", "or",  "xor",  "sllx",  "srlx"};
        os << (mi.signExt ? sn : un)[key - cmn::kAdd] << " "
           << reg(mi.ops[1]) << ", " << operand(mi.ops[2]) << ", "
           << reg(mi.ops[0]);
        break;
      }
      case cmn::kFAdd:
      case cmn::kFSub:
      case cmn::kFMul:
      case cmn::kFDiv:
      case cmn::kFRem: {
        static const char *const fd[5] = {"faddd", "fsubd", "fmuld",
                                          "fdivd", "fremd"};
        static const char *const fs[5] = {"fadds", "fsubs", "fmuls",
                                          "fdivs", "frems"};
        os << (mi.fp32 ? fs : fd)[key - cmn::kFAdd] << " "
           << reg(mi.ops[1]) << ", " << reg(mi.ops[2]) << ", "
           << reg(mi.ops[0]);
        break;
      }
      case cmn::kSetEq:
      case cmn::kSetNe:
      case cmn::kSetLt:
      case cmn::kSetGt:
      case cmn::kSetLe:
      case cmn::kSetGe: {
        static const char *const names[6] = {"seteq", "setne",
                                             "setlt", "setgt",
                                             "setle", "setge"};
        os << names[key - cmn::kSetEq] << " " << reg(mi.ops[1])
           << ", " << operand(mi.ops[2]) << ", " << reg(mi.ops[0]);
        break;
      }
      case cmn::kHi:
        os << "sethi %hi(" << operand(mi.ops[1]) << "), "
           << reg(mi.ops[0]);
        break;
      case cmn::kLo:
        os << "or " << reg(mi.ops[1]) << ", %lo("
           << operand(mi.ops[2]) << "), " << reg(mi.ops[0]);
        break;
      case cmn::kLoadConst:
        os << (mi.fp32 ? "ld [" : "ldd [") << reg(mi.ops[1])
           << "+%lo(" << operand(mi.ops[2]) << ")], "
           << reg(mi.ops[0]);
        break;
      case cmn::kNop:
        os << "nop";
        break;
      case cmn::kBrnz:
        os << "brnz " << reg(mi.ops[0]) << ", "
           << operand(mi.ops[1]);
        break;
      case cmn::kBr:
        os << "ba " << operand(mi.ops[0]);
        break;
      case cmn::kCall:
        if (mi.ops[0].kind == MOperand::Func)
            os << "call " << mi.ops[0].func->name();
        else
            os << "call " << reg(mi.ops[0]);
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
            os << (mi.fp32 ? "ld [" : "ldd [") << reg(mi.ops[1])
               << "], " << reg(mi.ops[0]);
        else {
            static const char *const s[9] = {"ldsb", "ldsb", "ldsh",
                                             "?",    "ldsw", "?",
                                             "?",    "?",    "ldx"};
            static const char *const u[9] = {"ldub", "ldub", "lduh",
                                             "?",    "lduw", "?",
                                             "?",    "?",    "ldx"};
            os << (mi.signExt ? s : u)[mi.width] << " ["
               << reg(mi.ops[1]) << "], " << reg(mi.ops[0]);
        }
        break;
      case cmn::kStore:
        if (isFPReg(mi.ops[0].reg))
            os << (mi.fp32 ? "st " : "std ") << reg(mi.ops[0])
               << ", [" << reg(mi.ops[1]) << "]";
        else {
            static const char *const w[9] = {"stb", "stb", "sth",
                                             "?",   "stw", "?",
                                             "?",   "?",   "stx"};
            os << w[mi.width] << " " << reg(mi.ops[0]) << ", ["
               << reg(mi.ops[1]) << "]";
        }
        break;
      case cmn::kLoadStack:
        os << "ldx " << slot(mi.ops[1]) << ", " << reg(mi.ops[0]);
        break;
      case cmn::kStoreStack:
        os << "stx " << reg(mi.ops[0]) << ", " << slot(mi.ops[1]);
        break;
      case cmn::kExt:
        os << (mi.signExt ? "sext" : "zext")
           << static_cast<unsigned>(tgt::widthBits(mi.width)) << " "
           << reg(mi.ops[1]) << ", " << reg(mi.ops[0]);
        break;
      case cmn::kCvtI2F:
        os << (mi.fp32 ? "fitos " : "fitod ") << reg(mi.ops[1])
           << ", " << reg(mi.ops[0]);
        break;
      case cmn::kCvtF2I:
        os << "fdtoi " << reg(mi.ops[1]) << ", " << reg(mi.ops[0]);
        break;
      case cmn::kCvtF2F:
        os << (mi.fp32 ? "fdtos " : "fstod ") << reg(mi.ops[1])
           << ", " << reg(mi.ops[0]);
        break;
      case cmn::kCvtI2B:
        os << "movrnz " << reg(mi.ops[1]) << ", 1, "
           << reg(mi.ops[0]);
        break;
      case cmn::kSpAdj:
        os << "add %sp, " << mi.ops[0].imm << ", %sp";
        break;
      default:
        os << "sparc.op" << mi.opcode;
        break;
    }
    return os.str();
}

} // namespace llva
