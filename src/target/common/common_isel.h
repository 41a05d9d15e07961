/**
 * @file
 * Shared instruction selection against the common relative opcode
 * layout. CommonISel owns the traversal, the value→vreg mapping, phi
 * pseudo emission, getelementptr address arithmetic and alloca
 * lowering, and lowers everything else from the ABI descriptor:
 * argument and return marshalling, binary ops in either
 * two-address (read-modify-write) or three-address form,
 * immediate-pair materialization (sethi+or / lui+ori), branches,
 * memory, conversions, calls and invokes. A backend supplies only
 * small policy hooks — which immediates encode inline, whether
 * calls/returns need delay-slot fillers, and (for flags-based
 * machines) how comparisons are lowered.
 */

#ifndef LLVA_TARGET_COMMON_COMMON_ISEL_H
#define LLVA_TARGET_COMMON_COMMON_ISEL_H

#include <map>

#include "codegen/machine.h"
#include "ir/instructions.h"
#include "target/common/common_target.h"

namespace llva {
namespace cmn {

class CommonISel
{
  public:
    virtual ~CommonISel() = default;

    /** Translate \p f into \p mf, visiting its blocks in \p order
     *  (empty: the function's own order). */
    void runOn(const Function &f, MachineFunction &mf,
               const BlockOrder &order);

  protected:
    /**
     * \p two_address selects read-modify-write binary lowering
     * (dst <- a; dst <- dst OP b) instead of three-address form.
     * \p lo_bits is the low-half width of the immediate-pair
     * materialization scheme (10 for sethi+or, 12 for lui+ori);
     * 0 materializes everything with plain copies (CISC immediate
     * forms).
     */
    CommonISel(uint16_t opcode_base, const AbiDesc &abi,
               bool two_address, unsigned lo_bits)
        : base_(opcode_base), abi_(abi), twoAddress_(two_address),
          loBits_(lo_bits)
    {}

    // --- Policy hooks -----------------------------------------------------

    /** Whether an integer immediate can ride inline in an operand. */
    virtual bool
    immFits(int64_t v) const
    {
        (void)v;
        return true;
    }

    /** Inline-immediate policy for multiway-branch case values
     *  (x86 compares cannot take imm64 even though moves can). */
    virtual bool
    caseImmFits(int64_t v) const
    {
        return immFits(v);
    }

    /** Delay-slot fillers, emitted right after calls / returns. */
    virtual void afterCall() {}
    virtual void afterRet() {}

    /** One boolean-producing equality test for a multiway-branch
     *  case (default: compare-into-register setcc). */
    virtual void emitCaseSetEq(unsigned dst, unsigned v,
                               const MOperand &b);

    /** setcc (default: compare-into-register). */
    virtual void lowerCompare(const SetCondInst &inst);

    // --- Shared machinery -------------------------------------------------

    uint16_t
    op(unsigned rel) const
    {
        return static_cast<uint16_t>(base_ | rel);
    }

    static MOperand
    R(unsigned reg)
    {
        return MOperand::makeReg(reg);
    }

    static RegClass
    classOf(const Type *t)
    {
        return t->isFloatingPoint() ? RegClass::FP : RegClass::Int;
    }

    static bool
    isFP32(const Type *t)
    {
        return t->kind() == TypeKind::Float;
    }

    MachineInstr *
    emit(uint16_t opcode, std::vector<MOperand> ops, unsigned defs = 0)
    {
        return cur_->append(opcode, std::move(ops), defs);
    }

    /** The vreg that holds \p v's value (creating it for defs). */
    unsigned vregFor(const Value *v);

    /** A vreg holding \p v, materializing constants as needed. */
    unsigned valueReg(const Value *v);

    uint8_t widthOf(const Type *t) const;

    /** Inline a ConstantInt passing immFits; else a register. */
    MOperand intOperand(const Value *v);

  private:
    void dispatch(const Instruction &inst);

    /** Operand for a phi incoming value (constants stay inline). */
    MOperand phiOperand(const Value *v);

    /** MBB that phi copies for edge (pred -> succ) belong in. */
    MachineBasicBlock *edgeBlockFor(const BasicBlock *pred,
                                    const BasicBlock *succ);

    // --- Emit helpers -----------------------------------------------------

    /** dst <- src (register move). */
    void emitMove(unsigned dst, unsigned src, bool fp, bool fp32);
    /** dst <- immediate / global address / function address. */
    void emitMaterialize(unsigned dst, const MOperand &value, bool fp,
                         bool fp32);
    /** dst <- a + b (integer registers). */
    void emitAdd(unsigned dst, unsigned a, unsigned b);
    /** dst <- a + imm. */
    void emitAddImm(unsigned dst, unsigned a, int64_t imm);
    /** dst <- a * imm (pointer scaling). */
    void emitMulImm(unsigned dst, unsigned a, int64_t imm);
    /** dst <- fresh storage of sizeReg bytes (dynamic alloca). */
    void emitDynAlloca(unsigned dst, unsigned size_reg);
    void emitBinImm(unsigned rel, unsigned dst, unsigned a,
                    int64_t imm);

    /** Binary op in the target's address style; returns the ALU
     *  instruction for flag fixup (width, signExt, traps). */
    MachineInstr *emitBin(uint16_t opcode, unsigned dst, unsigned a,
                          const MOperand &b, bool fp, bool fp32);

    void marshalOutgoingArgs(const std::vector<const Value *> &args);
    MachineInstr *emitCallInstr(const Value *callee,
                                std::vector<MOperand> blocks);
    void emitResultCopy(const Instruction &inst);

    // --- Lowerings --------------------------------------------------------

    /** Copy incoming arguments into their vregs (entry block). */
    void lowerArgs();
    void lowerBinary(const BinaryOperator &inst);
    void lowerRet(const ReturnInst &inst);
    void lowerBr(const BranchInst &inst);
    void lowerMBr(const MBrInst &inst);
    void lowerLoad(const LoadInst &inst);
    void lowerStore(const StoreInst &inst);
    void lowerCast(const CastInst &inst);
    void lowerCall(const CallInst &inst);
    void lowerInvoke(const InvokeInst &inst);
    void lowerUnwind(const UnwindInst &inst);
    void lowerGEP(const GetElementPtrInst &inst);
    void lowerAlloca(const AllocaInst &inst);
    void lowerPhi(const PhiNode &inst);

    // --- State ------------------------------------------------------------

    MachineFunction *mf_ = nullptr;
    const Function *f_ = nullptr;
    MachineBasicBlock *cur_ = nullptr;
    std::map<const Value *, unsigned> vregs_;
    std::map<const BasicBlock *, MachineBasicBlock *> blockMap_;
    /** Block that carries phi copies for edges leaving an IR block
     *  through the given (pred, succ) pair — differs from
     *  blockMap_[pred] for invoke edges. */
    std::map<std::pair<const BasicBlock *, const BasicBlock *>,
             MachineBasicBlock *>
        edgeBlock_;
    std::map<const AllocaInst *, int> staticAllocas_;
    unsigned pointerSize_ = 8;

    uint16_t base_;
    AbiDesc abi_;
    bool twoAddress_;
    unsigned loBits_;
};

} // namespace cmn
} // namespace llva

#endif // LLVA_TARGET_COMMON_COMMON_ISEL_H
