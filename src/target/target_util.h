/**
 * @file
 * Execution helpers shared by the I-ISA backends. Both modeled
 * machines must agree bit-for-bit with the reference interpreter
 * (src/vm/interpreter.cpp), so the width normalization, trap gating,
 * and conversion rules live here once and the targets only pick
 * opcode numbers and operand shapes.
 *
 * Width convention: MachineInstr::width holds the access/operation
 * size in BYTES, with 0 meaning bool (a 1-bit value stored in one
 * byte of memory).
 */

#ifndef LLVA_TARGET_TARGET_UTIL_H
#define LLVA_TARGET_TARGET_UTIL_H

#include <cmath>

#include "codegen/target.h"
#include "ir/constant.h"
#include "ir/type.h"
#include "support/error.h"

namespace llva {
namespace tgt {

/** FP registers live at 32..63 in SimState. */
inline bool
isFPReg(unsigned reg)
{
    return reg >= 32 && reg < kFirstVirtualReg;
}

/** Bits covered by a width code (0 = bool = 1 bit). */
inline unsigned
widthBits(unsigned wcode)
{
    if (wcode == 0)
        return 1;
    return wcode >= 8 ? 64 : wcode * 8;
}

/**
 * Canonicalize \p v to the register image of a value of the given
 * width: mask to the width, then sign-extend if \p sign. Mirrors the
 * interpreter's canonInt().
 */
inline uint64_t
normInt(uint64_t v, unsigned wcode, bool sign)
{
    unsigned bits = widthBits(wcode);
    if (bits >= 64)
        return v;
    uint64_t mask = (1ull << bits) - 1;
    v &= mask;
    if (sign && (v & (1ull << (bits - 1))))
        v |= ~mask;
    return v;
}

/** Round to float precision when the operation is fp32. */
inline double
fpRound(double v, bool fp32)
{
    return fp32 ? static_cast<double>(static_cast<float>(v)) : v;
}

/** Width code for a first-class type (bool -> 0, pointer -> 8). */
inline unsigned
widthCodeOf(const Type *t, unsigned pointer_size)
{
    if (t->isBool())
        return 0;
    if (t->isPointer())
        return pointer_size;
    return static_cast<unsigned>(t->sizeInBytes(pointer_size));
}

// --- Integer ALU -----------------------------------------------------------

enum class Alu : uint8_t {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
};

/**
 * Evaluate one integer ALU operation on canonical inputs, producing
 * a canonical result. Division faults follow the interpreter: trap
 * only when the instruction has exceptions enabled, else produce 0;
 * INT64_MIN/-1 wraps to (INT64_MIN, 0).
 */
inline uint64_t
evalAlu(Alu op, uint64_t a, uint64_t b, unsigned wcode, bool sign,
        bool trap_enabled, SimState &state)
{
    uint64_t r = 0;
    switch (op) {
      case Alu::Add: r = a + b; break;
      case Alu::Sub: r = a - b; break;
      case Alu::Mul: r = a * b; break;
      case Alu::Div:
      case Alu::Rem:
        if (b == 0) {
            if (trap_enabled) {
                state.trap(TrapKind::DivByZero);
                return 0;
            }
            r = 0;
            break;
        }
        if (sign) {
            auto sa = static_cast<int64_t>(a);
            auto sb = static_cast<int64_t>(b);
            if (sa == INT64_MIN && sb == -1)
                r = op == Alu::Div ? a : 0;
            else
                r = static_cast<uint64_t>(op == Alu::Div ? sa / sb
                                                         : sa % sb);
        } else {
            r = op == Alu::Div ? a / b : a % b;
        }
        break;
      case Alu::And: r = a & b; break;
      case Alu::Or: r = a | b; break;
      case Alu::Xor: r = a ^ b; break;
      case Alu::Shl: r = a << (b & 63); break;
      case Alu::Shr:
        if (sign)
            r = static_cast<uint64_t>(static_cast<int64_t>(a) >>
                                      (b & 63));
        else
            r = a >> (b & 63);
        break;
    }
    return normInt(r, wcode, sign);
}

/** FP arithmetic in double, rounded to float when fp32. */
inline double
evalFAlu(Alu op, double a, double b, bool fp32)
{
    double r = 0;
    switch (op) {
      case Alu::Add: r = a + b; break;
      case Alu::Sub: r = a - b; break;
      case Alu::Mul: r = a * b; break;
      case Alu::Div: r = a / b; break;
      case Alu::Rem: r = std::fmod(a, b); break;
      default: panic("bad FP ALU op");
    }
    return fpRound(r, fp32);
}

// --- Conditions ------------------------------------------------------------

enum class Cond : uint8_t { Eq, Ne, Lt, Gt, Le, Ge };

template <typename T>
inline bool
evalCond(Cond c, T a, T b)
{
    switch (c) {
      case Cond::Eq: return a == b;
      case Cond::Ne: return a != b;
      case Cond::Lt: return a < b;
      case Cond::Gt: return a > b;
      case Cond::Le: return a <= b;
      case Cond::Ge: return a >= b;
    }
    return false;
}

/** Evaluate a comparison against the recorded condition state. */
inline bool
evalCondState(Cond c, bool sign, const SimState &state)
{
    if (state.ccFP)
        return evalCond<double>(c, state.ccFA, state.ccFB);
    if (sign)
        return evalCond<int64_t>(c, state.ccSA, state.ccSB);
    return evalCond<uint64_t>(c, state.ccUA, state.ccUB);
}

/** Record an integer comparison into the condition state. */
inline void
recordCmp(uint64_t a, uint64_t b, unsigned wcode, SimState &state)
{
    state.ccSA = static_cast<int64_t>(normInt(a, wcode, true));
    state.ccSB = static_cast<int64_t>(normInt(b, wcode, true));
    state.ccUA = normInt(a, wcode, false);
    state.ccUB = normInt(b, wcode, false);
    state.ccFP = false;
}

/** Record an FP comparison into the condition state. */
inline void
recordFCmp(double a, double b, SimState &state)
{
    state.ccFA = a;
    state.ccFB = b;
    state.ccFP = true;
}

// --- Operand evaluation ----------------------------------------------------

/** Integer value of a use operand (Reg/Imm/Global/Func). */
inline uint64_t
operandIntValue(const MOperand &op, SimState &state)
{
    switch (op.kind) {
      case MOperand::Reg: return state.ireg[op.reg];
      case MOperand::Imm: return static_cast<uint64_t>(op.imm);
      case MOperand::Global: return state.globalAddrs->at(op.global);
      case MOperand::Func:
        return state.mem->functionAddress(op.func);
      default: panic("operand has no integer value");
    }
}

/** FP value of a use operand (Reg/FPImm). */
inline double
operandFPValue(const MOperand &op, SimState &state)
{
    switch (op.kind) {
      case MOperand::Reg: return state.freg[op.reg - 32];
      case MOperand::FPImm: return op.fpimm;
      default: panic("operand has no FP value");
    }
}

// --- Memory ----------------------------------------------------------------

/**
 * Execute a typed load into ops[0]: normalize integers to the
 * instruction's width/sign, deliver traps only when enabled (else
 * the destination reads as zero, matching the interpreter).
 */
inline void
execLoad(const MachineInstr &mi, uint64_t addr, SimState &state)
{
    unsigned dst = mi.ops[0].reg;
    if (isFPReg(dst)) {
        double v = 0;
        if (!state.mem->loadFP(addr, mi.fp32, v)) {
            TrapKind k = state.mem->lastTrap();
            state.mem->clearTrap();
            if (mi.trapEnabled) {
                state.trap(k);
                return;
            }
            v = 0;
        }
        state.freg[dst - 32] = v;
        return;
    }
    unsigned bytes = mi.width ? mi.width : 1;
    uint64_t v = 0;
    if (!state.mem->load(addr, bytes, v)) {
        TrapKind k = state.mem->lastTrap();
        state.mem->clearTrap();
        if (mi.trapEnabled) {
            state.trap(k);
            return;
        }
        v = 0;
    }
    state.ireg[dst] = normInt(v, mi.width, mi.signExt);
}

/** Execute a typed store of ops[src_idx]; failed stores are ignored
 *  unless the instruction delivers traps. */
inline void
execStore(const MachineInstr &mi, unsigned src_idx, uint64_t addr,
          SimState &state)
{
    unsigned src = mi.ops[src_idx].reg;
    bool ok;
    if (isFPReg(src))
        ok = state.mem->storeFP(addr, mi.fp32, state.freg[src - 32]);
    else
        ok = state.mem->store(addr, mi.width ? mi.width : 1,
                              state.ireg[src]);
    if (!ok) {
        TrapKind k = state.mem->lastTrap();
        state.mem->clearTrap();
        if (mi.trapEnabled)
            state.trap(k);
    }
}

/** Read an 8-byte stack slot at sp+off into a register (raw bits for
 *  integers, a double for FP registers). Slot accesses are always
 *  in-frame, so failures are silently dropped. */
inline void
execSlotLoad(unsigned dst, int64_t off, SimState &state)
{
    uint64_t addr = state.sp + static_cast<uint64_t>(off);
    if (isFPReg(dst)) {
        double v = 0;
        if (!state.mem->loadFP(addr, false, v))
            state.mem->clearTrap();
        state.freg[dst - 32] = v;
    } else {
        uint64_t v = 0;
        if (!state.mem->load(addr, 8, v))
            state.mem->clearTrap();
        state.ireg[dst] = v;
    }
}

/** Write a register to the 8-byte stack slot at sp+off. */
inline void
execSlotStore(unsigned src, int64_t off, SimState &state)
{
    uint64_t addr = state.sp + static_cast<uint64_t>(off);
    bool ok;
    if (isFPReg(src))
        ok = state.mem->storeFP(addr, false, state.freg[src - 32]);
    else
        ok = state.mem->store(addr, 8, state.ireg[src]);
    if (!ok)
        state.mem->clearTrap();
}

// --- Conversions -----------------------------------------------------------

/** int -> FP: sign from the SOURCE type, round if the dest is float. */
inline void
execCvtI2F(const MachineInstr &mi, SimState &state)
{
    uint64_t a = state.ireg[mi.ops[1].reg];
    double d = mi.signExt
                   ? static_cast<double>(static_cast<int64_t>(a))
                   : static_cast<double>(a);
    state.freg[mi.ops[0].reg - 32] = fpRound(d, mi.fp32);
}

/** FP -> int, following the interpreter: non-finite -> 0, negative
 *  unsigned -> 0, then canonicalize at the destination width. */
inline void
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
    state.ireg[mi.ops[0].reg] = normInt(r, mi.width, mi.signExt);
}

/** FP -> FP: round when narrowing to float. */
inline void
execCvtF2F(const MachineInstr &mi, SimState &state)
{
    state.freg[mi.ops[0].reg - 32] =
        fpRound(state.freg[mi.ops[1].reg - 32], mi.fp32);
}

/** int -> bool: any nonzero becomes 1. */
inline void
execCvtI2B(const MachineInstr &mi, SimState &state)
{
    state.ireg[mi.ops[0].reg] = state.ireg[mi.ops[1].reg] ? 1 : 0;
}

/** int -> int: re-canonicalize at the destination width/sign. */
inline void
execExt(const MachineInstr &mi, SimState &state)
{
    state.ireg[mi.ops[0].reg] =
        normInt(state.ireg[mi.ops[1].reg], mi.width, mi.signExt);
}

// --- Generic dispatch handlers ---------------------------------------------
//
// The target-independent pseudos (copies, spill code, frame address,
// dynamic alloca): one free function per opcode, shared by every
// target's handlerFor().

inline void
hdlCopy(const MachineInstr &mi, SimState &state)
{
    unsigned dst = mi.ops[0].reg;
    if (isFPReg(dst))
        state.freg[dst - 32] = operandFPValue(mi.ops[1], state);
    else
        state.ireg[dst] = operandIntValue(mi.ops[1], state);
}

inline void
hdlSpill(const MachineInstr &mi, SimState &state)
{
    execSlotStore(mi.ops[0].reg, mi.ops[1].imm, state);
}

inline void
hdlReload(const MachineInstr &mi, SimState &state)
{
    execSlotLoad(mi.ops[0].reg, mi.ops[1].imm, state);
}

inline void
hdlFrameAddr(const MachineInstr &mi, SimState &state)
{
    state.ireg[mi.ops[0].reg] =
        state.sp + static_cast<uint64_t>(mi.ops[1].imm);
}

inline void
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

/** Handler for a generic pseudo opcode, or nullptr. */
inline ExecFn
genericHandler(uint16_t opcode)
{
    switch (opcode) {
      case kOpCopy: return hdlCopy;
      case kOpSpill: return hdlSpill;
      case kOpReload: return hdlReload;
      case kOpFrameAddr: return hdlFrameAddr;
      case kOpDynAlloca: return hdlDynAlloca;
      default: return nullptr;
    }
}

// --- Prologue / epilogue ---------------------------------------------------

/**
 * The frame-code shape shared by both targets: sp -= frameSize and
 * callee-saved stores at function entry; the mirrored loads and
 * sp += frameSize immediately before every return. The simulator
 * driver does not restore sp on return, so the epilogue must.
 * Opcode numbers are the target's sp-adjust / slot-store /
 * slot-load instructions.
 */
inline void
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

// --- Encoding / printing helpers ------------------------------------------

inline bool
fitsInt8(int64_t v)
{
    return v >= -128 && v <= 127;
}

inline bool
fitsInt32(int64_t v)
{
    return v >= INT32_MIN && v <= INT32_MAX;
}

/** SPARC simm13 immediate field. */
inline bool
fitsSimm13(int64_t v)
{
    return v >= -4096 && v <= 4095;
}

/** Fill an encoding buffer of exactly \p size bytes: opcode byte,
 *  operand summary bytes, immediates little-endian. */
inline std::vector<uint8_t>
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

} // namespace tgt
} // namespace llva

#endif // LLVA_TARGET_TARGET_UTIL_H
