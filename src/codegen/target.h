/**
 * @file
 * The target (I-ISA) abstraction. An implementation provides
 * instruction selection from LLVA, register-set information, a byte
 * encoder (so native code size can be measured), and the execution
 * semantics of each machine instruction (so translated code actually
 * runs, on the machine simulator).
 *
 * Three targets are registered (src/codegen/targets.cpp), all built
 * on the common framework in src/target/common/:
 *  - "x86"  : CISC, two-address, 8 integer registers, variable-length
 *             encoding, stack-based calling convention — models the
 *             paper's CISC evaluation machine.
 *  - "sparc": RISC, three-address, 32 integer registers, fixed 4-byte
 *             encoding, register calling convention, sethi+or for
 *             large immediates, delay slots — the paper's RISC
 *             evaluation machine.
 *  - "riscv": RISC, three-address, fixed 4-byte encoding, lui+ori
 *             immediate pairs, eight register arguments, no delay
 *             slots — the framework's proof target.
 */

#ifndef LLVA_CODEGEN_TARGET_H
#define LLVA_CODEGEN_TARGET_H

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "codegen/machine.h"
#include "codegen/memory.h"

namespace llva {

/** A scalar crossing the engine/runtime/driver boundary. */
struct RtValue
{
    uint64_t i = 0;
    double f = 0.0;

    static RtValue
    ofInt(uint64_t v)
    {
        RtValue r;
        r.i = v;
        return r;
    }

    static RtValue
    ofFP(double v)
    {
        RtValue r;
        r.f = v;
        return r;
    }
};

/** Target-independent pseudo opcodes, handled by every target. */
enum GenericOpcode : uint16_t {
    kOpPhi = 0xfff0,       ///< removed by phi elimination
    kOpCopy = 0xfff1,      ///< reg <- reg move
    kOpSpill = 0xfff2,     ///< frame[i] <- reg
    kOpReload = 0xfff3,    ///< reg <- frame[i]
    kOpFrameAddr = 0xfff4, ///< reg <- sp + offsetof(frame[i])
    kOpDynAlloca = 0xfff5, ///< reg <- fresh storage of reg bytes
};

/** Architectural state of the simulated hardware processor. */
struct SimState
{
    /** What the last executed instruction asked the driver to do. */
    enum class Next : uint8_t {
        Fall,     ///< continue to the next instruction
        Branch,   ///< jump to branchTarget
        Return,   ///< pop the call stack
        Call,     ///< call callTarget (direct) or callAddr (indirect)
        Unwind,   ///< pop to the nearest invoke handler
        Trap,     ///< deliverable exception raised
    };

    std::array<uint64_t, 64> ireg{};
    std::array<double, 64> freg{};

    // Comparison state (x86 flags / sparc condition codes).
    int64_t ccSA = 0, ccSB = 0;
    uint64_t ccUA = 0, ccUB = 0;
    double ccFA = 0, ccFB = 0;
    bool ccFP = false;

    uint64_t sp = 0;
    Memory *mem = nullptr;
    /** Addresses assigned to globals at link time. */
    const std::map<const GlobalVariable *, uint64_t> *globalAddrs =
        nullptr;

    Next next = Next::Fall;
    MachineBasicBlock *branchTarget = nullptr;
    const Function *callTarget = nullptr;
    uint64_t callAddr = 0;
    TrapKind trapKind = TrapKind::None;

    void
    trap(TrapKind k)
    {
        next = Next::Trap;
        trapKind = k;
    }
};

/** Description of one target register. */
struct RegDesc
{
    const char *name;
    RegClass cls;
};

class Target
{
  public:
    virtual ~Target() = default;

    virtual const char *name() const = 0;

    /** Allocatable registers by class, in preference order. */
    virtual const std::vector<unsigned> &allocatable(RegClass rc)
        const = 0;

    /** Subset of allocatable regs preserved across calls. */
    virtual const std::vector<unsigned> &calleeSaved(RegClass rc)
        const = 0;

    /** Register holding return values of the given class. */
    virtual unsigned returnReg(RegClass rc) const = 0;

    virtual const char *regName(unsigned reg) const = 0;

    /**
     * Instruction selection: translate a verified LLVA function into
     * machine instructions over virtual registers, emitting its
     * blocks in \p order (empty: the function's own order). Phi
     * nodes become kOpPhi pseudos, later removed by phi elimination.
     */
    virtual void select(const Function &f, MachineFunction &mf,
                        const BlockOrder &order) = 0;

    /**
     * Insert the prologue/epilogue (stack adjustment, callee-saved
     * register saves/restores) after register allocation and frame
     * finalization. Each pair is (physical register, sp-relative
     * byte offset of its save slot).
     */
    virtual void insertPrologueEpilogue(
        MachineFunction &mf,
        const std::vector<std::pair<unsigned, int64_t>> &saved) = 0;

    /** Byte encoding of one instruction (for code-size measurement). */
    virtual std::vector<uint8_t> encode(const MachineInstr &mi)
        const = 0;

    /**
     * The execution semantics of \p mi: a free function that runs
     * it against the architectural state. Handlers assume the
     * simulator set state.next = Fall before the call: every
     * consumer field (branchTarget, callTarget/callAddr, trapKind)
     * is written by the handler that requests the corresponding
     * Next value, so stale values are never observed. A branch
     * jumps to the instruction's first block operand, which the
     * chained form resolves at install (vm/chain.h); that is also
     * where each instruction's handler is resolved, once.
     */
    virtual ExecFn handlerFor(const MachineInstr &mi) const = 0;

    /** Disassembly for debugging and examples. */
    virtual std::string instrToString(const MachineInstr &mi)
        const = 0;

    // Calling-convention marshalling, used by the simulator driver
    // at the program boundary (program entry and runtime calls).

    /** Place \p args where a callee of type \p ft expects them. */
    virtual void writeArgs(SimState &state, const FunctionType *ft,
                           const std::vector<RtValue> &args) const = 0;

    /** Read the arguments a caller just placed for callee \p ft. */
    virtual std::vector<RtValue> readArgs(SimState &state,
                                          const FunctionType *ft)
        const = 0;

    /** Deposit a return value where callers expect it. */
    virtual void writeReturn(SimState &state, const Type *type,
                             RtValue value) const;

    /** Fetch the return value after a call. */
    virtual RtValue readReturn(SimState &state, const Type *type)
        const;
};

/** The registry of built-in targets. */
Target *getTarget(const std::string &name);

/** Names of all built-in targets ("x86", "sparc", "riscv"). */
std::vector<std::string> targetNames();

} // namespace llva

#endif // LLVA_CODEGEN_TARGET_H
