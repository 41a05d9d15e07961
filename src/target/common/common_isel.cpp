#include "target/common/common_isel.h"

#include "ir/function.h"
#include "target/target_util.h"

namespace llva {
namespace cmn {

namespace {

/** Relative opcode of an integer ALU V-ISA operation. */
unsigned
intAluRel(Opcode op)
{
    switch (op) {
      case Opcode::Add: return kAdd;
      case Opcode::Sub: return kSub;
      case Opcode::Mul: return kMul;
      case Opcode::Div: return kDiv;
      case Opcode::Rem: return kRem;
      case Opcode::And: return kAnd;
      case Opcode::Or: return kOr;
      case Opcode::Xor: return kXor;
      case Opcode::Shl: return kShl;
      case Opcode::Shr: return kShr;
      default: panic("not an integer ALU opcode");
    }
}

unsigned
fpAluRel(Opcode op)
{
    switch (op) {
      case Opcode::Add: return kFAdd;
      case Opcode::Sub: return kFSub;
      case Opcode::Mul: return kFMul;
      case Opcode::Div: return kFDiv;
      case Opcode::Rem: return kFRem;
      default: panic("not an FP ALU opcode");
    }
}

unsigned
setccRel(Opcode op)
{
    switch (op) {
      case Opcode::SetEQ: return kSetEq;
      case Opcode::SetNE: return kSetNe;
      case Opcode::SetLT: return kSetLt;
      case Opcode::SetGT: return kSetGt;
      case Opcode::SetLE: return kSetLe;
      case Opcode::SetGE: return kSetGe;
      default: panic("not a comparison opcode");
    }
}

} // namespace

void
CommonISel::runOn(const Function &f, MachineFunction &mf)
{
    mf_ = &mf;
    f_ = &f;
    vregs_.clear();
    blockMap_.clear();
    edgeBlock_.clear();
    staticAllocas_.clear();
    pointerSize_ = f.parent()->pointerSize();

    for (const auto &bb : f)
        blockMap_[bb.get()] = mf.createBlock(bb->name());

    cur_ = blockMap_[f.entryBlock()];
    lowerArgs();

    for (const auto &bb : f) {
        cur_ = blockMap_[bb.get()];
        for (const auto &inst : *bb)
            dispatch(*inst);
    }
}

void
CommonISel::dispatch(const Instruction &inst)
{
    switch (inst.opcode()) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::Rem:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
        lowerBinary(static_cast<const BinaryOperator &>(inst));
        return;
      case Opcode::SetEQ:
      case Opcode::SetNE:
      case Opcode::SetLT:
      case Opcode::SetGT:
      case Opcode::SetLE:
      case Opcode::SetGE:
        lowerCompare(static_cast<const SetCondInst &>(inst));
        return;
      case Opcode::Ret:
        lowerRet(static_cast<const ReturnInst &>(inst));
        return;
      case Opcode::Br:
        lowerBr(static_cast<const BranchInst &>(inst));
        return;
      case Opcode::MBr:
        lowerMBr(static_cast<const MBrInst &>(inst));
        return;
      case Opcode::Invoke:
        lowerInvoke(static_cast<const InvokeInst &>(inst));
        return;
      case Opcode::Unwind:
        lowerUnwind(static_cast<const UnwindInst &>(inst));
        return;
      case Opcode::Load:
        lowerLoad(static_cast<const LoadInst &>(inst));
        return;
      case Opcode::Store:
        lowerStore(static_cast<const StoreInst &>(inst));
        return;
      case Opcode::GetElementPtr:
        lowerGEP(static_cast<const GetElementPtrInst &>(inst));
        return;
      case Opcode::Alloca:
        lowerAlloca(static_cast<const AllocaInst &>(inst));
        return;
      case Opcode::Cast:
        lowerCast(static_cast<const CastInst &>(inst));
        return;
      case Opcode::Call:
        lowerCall(static_cast<const CallInst &>(inst));
        return;
      case Opcode::Phi:
        lowerPhi(static_cast<const PhiNode &>(inst));
        return;
    }
    panic("unhandled opcode in instruction selection");
}

unsigned
CommonISel::vregFor(const Value *v)
{
    auto it = vregs_.find(v);
    if (it != vregs_.end())
        return it->second;
    unsigned vreg =
        mf_->createVReg(classOf(v->type()), isFP32(v->type()));
    vregs_[v] = vreg;
    return vreg;
}

unsigned
CommonISel::valueReg(const Value *v)
{
    if (auto *c = dyn_cast<Constant>(v)) {
        bool fp = c->type()->isFloatingPoint();
        unsigned dst = mf_->createVReg(classOf(c->type()),
                                       isFP32(c->type()));
        if (auto *ci = dyn_cast<ConstantInt>(c)) {
            emitMaterialize(dst, MOperand::makeImm(ci->sext()), false,
                            false);
        } else if (auto *cf = dyn_cast<ConstantFP>(c)) {
            emitMaterialize(dst, MOperand::makeFPImm(cf->value()), fp,
                            isFP32(c->type()));
        } else if (isa<ConstantNull>(c) || isa<ConstantUndef>(c)) {
            if (fp)
                emitMaterialize(dst, MOperand::makeFPImm(0.0), true,
                                isFP32(c->type()));
            else
                emitMaterialize(dst, MOperand::makeImm(0), false,
                                false);
        } else if (auto *gv = dyn_cast<GlobalVariable>(c)) {
            emitMaterialize(dst, MOperand::makeGlobal(gv), false,
                            false);
        } else if (auto *fn = dyn_cast<Function>(c)) {
            emitMaterialize(dst, MOperand::makeFunc(fn), false,
                            false);
        } else {
            panic("cannot materialize constant");
        }
        return dst;
    }
    return vregFor(v);
}

MOperand
CommonISel::phiOperand(const Value *v)
{
    if (auto *ci = dyn_cast<ConstantInt>(v))
        return MOperand::makeImm(ci->sext());
    if (auto *cf = dyn_cast<ConstantFP>(v))
        return MOperand::makeFPImm(cf->value());
    if (isa<ConstantNull>(v))
        return MOperand::makeImm(0);
    if (isa<ConstantUndef>(v)) {
        if (v->type()->isFloatingPoint())
            return MOperand::makeFPImm(0.0);
        return MOperand::makeImm(0);
    }
    if (auto *gv = dyn_cast<GlobalVariable>(v))
        return MOperand::makeGlobal(gv);
    if (auto *fn = dyn_cast<Function>(v))
        return MOperand::makeFunc(fn);
    return MOperand::makeReg(vregFor(v));
}

MachineBasicBlock *
CommonISel::edgeBlockFor(const BasicBlock *pred, const BasicBlock *succ)
{
    auto it = edgeBlock_.find({pred, succ});
    if (it != edgeBlock_.end())
        return it->second;
    return blockMap_.at(pred);
}

void
CommonISel::lowerPhi(const PhiNode &phi)
{
    std::vector<MOperand> ops;
    ops.push_back(MOperand::makeReg(vregFor(&phi)));
    for (unsigned i = 0; i < phi.numIncoming(); ++i) {
        ops.push_back(phiOperand(phi.incomingValue(i)));
        ops.push_back(MOperand::makeBlock(edgeBlockFor(
            phi.incomingBlock(i), phi.parent())));
    }
    MachineInstr *mi = emit(kOpPhi, std::move(ops), 1);
    mi->fp32 = isFP32(phi.type());
}

void
CommonISel::lowerGEP(const GetElementPtrInst &gep)
{
    unsigned addr = valueReg(gep.pointer());
    Type *cur = cast<PointerType>(gep.pointer()->type())->pointee();
    int64_t const_off = 0;
    unsigned dst = vregFor(&gep);
    bool addr_is_result = false;

    auto addScaled = [&](const Value *idx, uint64_t scale) {
        if (auto *ci = dyn_cast<ConstantInt>(idx)) {
            const_off +=
                ci->sext() * static_cast<int64_t>(scale);
            return;
        }
        unsigned idx_reg = valueReg(idx);
        unsigned scaled;
        if (scale == 1) {
            scaled = idx_reg;
        } else {
            scaled = mf_->createVReg(RegClass::Int);
            emitMulImm(scaled, idx_reg,
                       static_cast<int64_t>(scale));
        }
        unsigned sum = mf_->createVReg(RegClass::Int);
        emitAdd(sum, addr, scaled);
        addr = sum;
    };

    for (unsigned i = 0; i < gep.numIndices(); ++i) {
        const Value *idx = gep.index(i);
        if (i == 0) {
            addScaled(idx, cur->sizeInBytes(pointerSize_));
            continue;
        }
        if (auto *at = dyn_cast<ArrayType>(cur)) {
            cur = at->element();
            addScaled(idx, cur->sizeInBytes(pointerSize_));
        } else {
            auto *st = cast<StructType>(cur);
            auto *ci = cast<ConstantInt>(idx);
            size_t field = static_cast<size_t>(ci->zext());
            const_off += static_cast<int64_t>(
                st->fieldOffset(field, pointerSize_));
            cur = st->field(field);
        }
    }

    if (const_off != 0) {
        emitAddImm(dst, addr, const_off);
        addr_is_result = true;
    }
    if (!addr_is_result)
        emitMove(dst, addr, false, false);
}

void
CommonISel::lowerAlloca(const AllocaInst &alloca)
{
    unsigned dst = vregFor(&alloca);
    if (alloca.isStatic()) {
        uint64_t count = 1;
        if (auto *ci =
                dyn_cast<ConstantInt>(alloca.arraySize()))
            count = ci->zext();
        Type *t = alloca.allocatedType();
        uint64_t size = t->sizeInBytes(pointerSize_) * count;
        uint64_t align = t->alignment(pointerSize_);
        auto it = staticAllocas_.find(&alloca);
        int slot;
        if (it != staticAllocas_.end()) {
            slot = it->second;
        } else {
            slot = mf_->createFrameObject(size ? size : 1, align);
            staticAllocas_[&alloca] = slot;
        }
        emit(kOpFrameAddr,
             {MOperand::makeReg(dst), MOperand::makeFrame(slot)}, 1);
        return;
    }
    // Dynamic alloca: compute the byte size, then ask the target to
    // produce fresh storage (a runtime-heap call in this
    // implementation; a hardware stack adjustment in a real one).
    unsigned count = valueReg(alloca.arraySize());
    unsigned size = mf_->createVReg(RegClass::Int);
    emitMulImm(size, count,
               static_cast<int64_t>(alloca.allocatedType()->sizeInBytes(
                   pointerSize_)));
    emitDynAlloca(dst, size);
}

uint8_t
CommonISel::widthOf(const Type *t) const
{
    return static_cast<uint8_t>(tgt::widthCodeOf(t, pointerSize_));
}

MOperand
CommonISel::intOperand(const Value *v)
{
    if (auto *ci = dyn_cast<ConstantInt>(v)) {
        int64_t imm = ci->sext();
        if (immFits(imm))
            return MOperand::makeImm(imm);
    }
    return R(valueReg(v));
}

void
CommonISel::emitMove(unsigned dst, unsigned src, bool fp, bool fp32)
{
    (void)fp;
    auto *mi = emit(kOpCopy, {R(dst), R(src)}, 1);
    mi->fp32 = fp32;
}

void
CommonISel::emitMaterialize(unsigned dst, const MOperand &value,
                            bool fp, bool fp32)
{
    (void)fp;
    if (loBits_) {
        if (value.kind == MOperand::FPImm) {
            // No FP-immediate forms on the RISC machines: go through
            // a constant-pool entry whose address is itself an
            // immediate-pair base.
            unsigned t = mf_->createVReg(RegClass::Int);
            emit(op(kHi), {R(t), value}, 1);
            auto *ld = emit(op(kLoadConst), {R(dst), R(t), value}, 1);
            ld->fp32 = fp32;
            return;
        }
        if (value.kind == MOperand::Global ||
            value.kind == MOperand::Func) {
            emit(op(kHi), {R(dst), value}, 1);
            emit(op(kLo), {R(dst), R(dst), value}, 1);
            return;
        }
        if (value.kind == MOperand::Imm && !immFits(value.imm)) {
            int64_t v = value.imm;
            // The high-half op covers everything above the low
            // loBits_, the low-half or's in the rest: two
            // instructions reach any value representable in 32 bits
            // (sign- or zero-extended). Anything wider takes the
            // full six-instruction sequence: build each 32-bit
            // half, shift the high half up, merge.
            if ((v >> 32) == 0 || (v >> 32) == -1) {
                emit(op(kHi), {R(dst), value}, 1);
                emit(op(kLo), {R(dst), R(dst), value}, 1);
                return;
            }
            unsigned t = mf_->createVReg(RegClass::Int);
            MOperand hi = MOperand::makeImm(v >> 32);
            MOperand lo = MOperand::makeImm(v & 0xffffffff);
            emit(op(kHi), {R(t), hi}, 1);
            emit(op(kLo), {R(t), R(t), hi}, 1);
            emit(op(kShl), {R(t), R(t), MOperand::makeImm(32)}, 1);
            emit(op(kHi), {R(dst), lo}, 1);
            emit(op(kLo), {R(dst), R(dst), lo}, 1);
            emit(op(kOr), {R(dst), R(dst), R(t)}, 1);
            return;
        }
    }
    auto *mi = emit(kOpCopy, {R(dst), value}, 1);
    mi->fp32 = fp32;
}

MachineInstr *
CommonISel::emitBin(uint16_t opcode, unsigned dst, unsigned a,
                    const MOperand &b, bool fp, bool fp32)
{
    if (twoAddress_) {
        emitMove(dst, a, fp, fp32);
        return emit(opcode, {R(dst), R(dst), b}, 1);
    }
    return emit(opcode, {R(dst), R(a), b}, 1);
}

void
CommonISel::emitBinImm(unsigned rel, unsigned dst, unsigned a,
                       int64_t imm)
{
    if (immFits(imm)) {
        emitBin(op(rel), dst, a, MOperand::makeImm(imm), false,
                false);
        return;
    }
    unsigned t = mf_->createVReg(RegClass::Int);
    emitMaterialize(t, MOperand::makeImm(imm), false, false);
    emitBin(op(rel), dst, a, R(t), false, false);
}

void
CommonISel::emitAdd(unsigned dst, unsigned a, unsigned b)
{
    emitBin(op(kAdd), dst, a, R(b), false, false);
}

void
CommonISel::emitAddImm(unsigned dst, unsigned a, int64_t imm)
{
    emitBinImm(kAdd, dst, a, imm);
}

void
CommonISel::emitMulImm(unsigned dst, unsigned a, int64_t imm)
{
    emitBinImm(kMul, dst, a, imm);
}

void
CommonISel::emitDynAlloca(unsigned dst, unsigned size_reg)
{
    emit(kOpDynAlloca, {R(dst), R(size_reg)}, 1);
}

void
CommonISel::lowerArgs()
{
    // Register-carried arguments copy out of their ABI registers;
    // the rest live in the caller's outgoing area, reachable through
    // the negative frame index -1-i (resolved during frame
    // finalization).
    for (unsigned i = 0; i < f_->numArgs(); ++i) {
        const auto *a = f_->arg(i);
        unsigned dst = vregFor(a);
        if (i < abi_.numRegArgs) {
            bool fp = a->type()->isFloatingPoint();
            unsigned phys =
                fp ? abi_.fpArgBase + i : abi_.intArgBase + i;
            auto *mi = emit(kOpCopy, {R(dst), R(phys)}, 1);
            mi->fp32 = isFP32(a->type());
        } else {
            emit(op(kLoadStack),
                 {R(dst),
                  MOperand::makeFrame(-1 - static_cast<int>(i))},
                 1);
        }
    }
}

void
CommonISel::lowerBinary(const BinaryOperator &inst)
{
    const Type *t = inst.type();
    unsigned dst = vregFor(&inst);
    if (t->isFloatingPoint()) {
        unsigned a = valueReg(inst.lhs());
        unsigned b = valueReg(inst.rhs());
        auto *mi = emitBin(op(fpAluRel(inst.opcode())), dst, a, R(b),
                           true, isFP32(t));
        mi->fp32 = isFP32(t);
        return;
    }
    unsigned a = valueReg(inst.lhs());
    MOperand b = intOperand(inst.rhs());
    auto *mi = emitBin(op(intAluRel(inst.opcode())), dst, a, b,
                       false, false);
    mi->width = widthOf(t);
    mi->signExt = t->isSignedInteger();
    if (inst.opcode() == Opcode::Div || inst.opcode() == Opcode::Rem)
        mi->trapEnabled = inst.exceptionsEnabled();
}

void
CommonISel::lowerCompare(const SetCondInst &inst)
{
    // Compare-into-register style; flags machines override.
    const Type *t = inst.lhs()->type();
    unsigned dst = vregFor(&inst);
    unsigned a = valueReg(inst.lhs());
    if (t->isFloatingPoint()) {
        unsigned b = valueReg(inst.rhs());
        emit(op(setccRel(inst.opcode())), {R(dst), R(a), R(b)}, 1);
        return;
    }
    MOperand b = intOperand(inst.rhs());
    auto *mi =
        emit(op(setccRel(inst.opcode())), {R(dst), R(a), b}, 1);
    mi->width = widthOf(t);
    mi->signExt = t->isSignedInteger();
}

void
CommonISel::lowerRet(const ReturnInst &inst)
{
    if (const Value *v = inst.returnValue()) {
        bool fp = v->type()->isFloatingPoint();
        unsigned r = valueReg(v);
        auto *cp = emit(
            kOpCopy,
            {R(fp ? abi_.fpRetReg : abi_.intRetReg), R(r)}, 1);
        cp->fp32 = isFP32(v->type());
    }
    emit(op(kRet), {})->isRet = true;
    afterRet();
}

void
CommonISel::lowerBr(const BranchInst &inst)
{
    if (!inst.isConditional()) {
        auto *t = blockMap_.at(inst.target(0));
        emit(op(kBr), {MOperand::makeBlock(t)});
        cur_->successors().push_back(t);
        return;
    }
    unsigned c = valueReg(inst.condition());
    auto *tb = blockMap_.at(inst.target(0));
    auto *fb = blockMap_.at(inst.target(1));
    emit(op(kBrnz), {R(c), MOperand::makeBlock(tb)});
    emit(op(kBr), {MOperand::makeBlock(fb)});
    cur_->successors().push_back(tb);
    cur_->successors().push_back(fb);
}

void
CommonISel::emitCaseSetEq(unsigned dst, unsigned v,
                          const MOperand &b)
{
    // Full canonical 64-bit equality, like the interpreter.
    emit(op(kSetEq), {R(dst), R(v), b}, 1);
}

void
CommonISel::lowerMBr(const MBrInst &inst)
{
    // Materialize one bool per case first, then dispatch with a
    // branch chain. Keeping all the Block-carrying instructions in
    // one trailing run lets phi elimination insert its copies on
    // every outgoing path.
    unsigned v = valueReg(inst.condition());
    std::vector<unsigned> match;
    for (unsigned i = 0; i < inst.numCases(); ++i) {
        int64_t cv = inst.caseValue(i)->sext();
        MOperand b = MOperand::makeImm(cv);
        if (!caseImmFits(cv)) {
            unsigned t = mf_->createVReg(RegClass::Int);
            emitMaterialize(t, MOperand::makeImm(cv), false, false);
            b = R(t);
        }
        unsigned r = mf_->createVReg(RegClass::Int);
        emitCaseSetEq(r, v, b);
        match.push_back(r);
    }
    for (unsigned i = 0; i < inst.numCases(); ++i) {
        auto *bb = blockMap_.at(inst.caseDest(i));
        emit(op(kBrnz), {R(match[i]), MOperand::makeBlock(bb)});
        cur_->successors().push_back(bb);
    }
    auto *def = blockMap_.at(inst.defaultDest());
    emit(op(kBr), {MOperand::makeBlock(def)});
    cur_->successors().push_back(def);
}

void
CommonISel::lowerLoad(const LoadInst &inst)
{
    const Type *t = inst.type();
    unsigned addr = valueReg(inst.pointer());
    auto *mi = emit(op(kLoad), {R(vregFor(&inst)), R(addr)}, 1);
    mi->trapEnabled = inst.exceptionsEnabled();
    if (t->isFloatingPoint()) {
        mi->fp32 = isFP32(t);
    } else {
        mi->width = widthOf(t);
        mi->signExt = t->isSignedInteger();
    }
}

void
CommonISel::lowerStore(const StoreInst &inst)
{
    const Type *t = inst.value()->type();
    unsigned src = valueReg(inst.value());
    unsigned addr = valueReg(inst.pointer());
    auto *mi = emit(op(kStore), {R(src), R(addr)});
    mi->trapEnabled = inst.exceptionsEnabled();
    if (t->isFloatingPoint())
        mi->fp32 = isFP32(t);
    else
        mi->width = widthOf(t);
}

void
CommonISel::lowerCast(const CastInst &inst)
{
    const Type *src = inst.value()->type();
    const Type *dst = inst.type();
    unsigned d = vregFor(&inst);
    unsigned s = valueReg(inst.value());
    if (src->isFloatingPoint() && dst->isFloatingPoint()) {
        auto *mi = emit(op(kCvtF2F), {R(d), R(s)}, 1);
        mi->fp32 = isFP32(dst);
    } else if (src->isFloatingPoint()) {
        auto *mi = emit(op(kCvtF2I), {R(d), R(s)}, 1);
        mi->width = widthOf(dst);
        mi->signExt = dst->isSignedInteger();
    } else if (dst->isFloatingPoint()) {
        auto *mi = emit(op(kCvtI2F), {R(d), R(s)}, 1);
        mi->signExt = src->isSignedInteger();
        mi->fp32 = isFP32(dst);
    } else if (dst->isBool()) {
        emit(op(kCvtI2B), {R(d), R(s)}, 1);
    } else {
        auto *mi = emit(op(kExt), {R(d), R(s)}, 1);
        mi->width = widthOf(dst);
        mi->signExt = dst->isSignedInteger();
    }
}

void
CommonISel::marshalOutgoingArgs(
    const std::vector<const Value *> &args)
{
    for (unsigned i = 0; i < args.size(); ++i) {
        unsigned r = valueReg(args[i]);
        if (i < abi_.numRegArgs) {
            bool fp = args[i]->type()->isFloatingPoint();
            unsigned phys =
                fp ? abi_.fpArgBase + i : abi_.intArgBase + i;
            auto *mi = emit(kOpCopy, {R(phys), R(r)}, 1);
            mi->fp32 = isFP32(args[i]->type());
        } else {
            emit(op(kStoreStack),
                 {R(r),
                  MOperand::makeImm(8 * static_cast<int64_t>(i))});
        }
    }
    if (args.size() > abi_.numRegArgs)
        mf_->noteOutgoingArgs(8ull * args.size());
}

MachineInstr *
CommonISel::emitCallInstr(const Value *callee,
                          std::vector<MOperand> blocks)
{
    std::vector<MOperand> ops;
    if (auto *fn = dyn_cast<Function>(callee))
        ops.push_back(MOperand::makeFunc(fn));
    else
        ops.push_back(R(valueReg(callee)));
    for (auto &b : blocks)
        ops.push_back(b);
    auto *mi = emit(op(kCall), std::move(ops));
    mi->isCall = true;
    return mi;
}

void
CommonISel::emitResultCopy(const Instruction &inst)
{
    const Type *t = inst.type();
    if (t->kind() == TypeKind::Void)
        return;
    bool fp = t->isFloatingPoint();
    auto *cp = emit(
        kOpCopy,
        {R(vregFor(&inst)), R(fp ? abi_.fpRetReg : abi_.intRetReg)},
        1);
    cp->fp32 = isFP32(t);
}

void
CommonISel::lowerCall(const CallInst &inst)
{
    std::vector<const Value *> args;
    for (unsigned i = 0; i < inst.numArgs(); ++i)
        args.push_back(inst.arg(i));
    marshalOutgoingArgs(args);
    emitCallInstr(inst.callee(), {});
    afterCall();
    emitResultCopy(inst);
}

void
CommonISel::lowerInvoke(const InvokeInst &inst)
{
    std::vector<const Value *> args;
    for (unsigned i = 0; i < inst.numArgs(); ++i)
        args.push_back(inst.arg(i));
    marshalOutgoingArgs(args);

    // The simulator driver resumes at the first Block operand on
    // normal return and at the second after an unwind. Each edge
    // gets its own landing block so phi copies can distinguish the
    // two paths.
    auto *ret = mf_->createBlock(cur_->name() + ".invret");
    auto *uw = mf_->createBlock(cur_->name() + ".invuw");
    emitCallInstr(inst.callee(), {MOperand::makeBlock(ret),
                                  MOperand::makeBlock(uw)});
    afterCall();
    cur_->successors().push_back(ret);
    cur_->successors().push_back(uw);
    edgeBlock_[{inst.parent(), inst.normalDest()}] = ret;
    edgeBlock_[{inst.parent(), inst.unwindDest()}] = uw;

    MachineBasicBlock *save = cur_;
    cur_ = ret;
    emitResultCopy(inst);
    auto *nd = blockMap_.at(inst.normalDest());
    emit(op(kBr), {MOperand::makeBlock(nd)});
    ret->successors().push_back(nd);

    cur_ = uw;
    auto *ud = blockMap_.at(inst.unwindDest());
    emit(op(kBr), {MOperand::makeBlock(ud)});
    uw->successors().push_back(ud);
    cur_ = save;
}

void
CommonISel::lowerUnwind(const UnwindInst &inst)
{
    (void)inst;
    emit(op(kUnwind), {});
}

} // namespace cmn
} // namespace llva
