#include "verifier/verifier.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "analysis/dominators.h"
#include "ir/instructions.h"
#include "support/statistic.h"

namespace llva {

namespace {

// Every whole-module check, whoever asks (LLEE after decoding,
// offlineTranslate, the tools, -verify-each after a module pass), is
// timed here: verification is one layer of the cold path.
StageTimer VerifyTime("verify.module", "whole-module verification");

class FunctionVerifier
{
  public:
    FunctionVerifier(const Function &f, VerifyResult &result)
        : f_(f), result_(result)
    {}

    void
    run()
    {
        if (f_.isDeclaration())
            return;
        checkBlocks();
        if (!result_.errors.empty())
            return; // structural errors make SSA checks unreliable
        checkSSADominance();
    }

  private:
    void
    error(const Instruction *inst, const std::string &msg)
    {
        std::ostringstream os;
        os << "in %" << f_.name();
        if (inst && inst->parent())
            os << ", block %" << inst->parent()->name();
        os << ": " << msg;
        result_.errors.push_back(os.str());
    }

    void
    checkBlocks()
    {
        if (!f_.entryBlock()->predecessors().empty())
            error(nullptr, "entry block has predecessors");

        for (const auto &bb : f_) {
            if (bb->empty()) {
                error(nullptr, "block %" + bb->name() + " is empty");
                continue;
            }
            // Exactly one terminator, and it is last.
            size_t idx = 0, n = bb->size();
            for (const auto &inst : *bb) {
                bool is_last = (++idx == n);
                if (inst->isTerminator() != is_last) {
                    error(inst.get(),
                          is_last ? "block does not end in a terminator"
                                  : "terminator in mid-block");
                }
            }
            checkPhis(bb.get());
            for (const auto &inst : *bb)
                checkInstruction(inst.get());
        }
    }

    void
    checkPhis(const BasicBlock *bb)
    {
        std::vector<BasicBlock *> preds = bb->predecessors();
        bool seen_non_phi = false;
        for (const auto &inst : *bb) {
            auto *phi = dyn_cast<PhiNode>(inst.get());
            if (!phi) {
                seen_non_phi = true;
                continue;
            }
            if (seen_non_phi)
                error(phi, "phi node not grouped at block head");
            if (bb == f_.entryBlock())
                error(phi, "phi node in entry block");

            // One incoming value per predecessor, no extras.
            std::set<const BasicBlock *> seen;
            for (unsigned i = 0; i < phi->numIncoming(); ++i) {
                const BasicBlock *in = phi->incomingBlock(i);
                if (!seen.insert(in).second)
                    error(phi, "phi has duplicate incoming block %" +
                                   in->name());
                if (std::find(preds.begin(), preds.end(), in) ==
                    preds.end())
                    error(phi, "phi incoming block %" + in->name() +
                                   " is not a predecessor");
                if (phi->incomingValue(i)->type() != phi->type())
                    error(phi, "phi incoming value type mismatch");
            }
            for (const BasicBlock *pred : preds)
                if (!seen.count(pred))
                    error(phi, "phi missing incoming value for "
                               "predecessor %" +
                                   pred->name());
        }
    }

    void
    typeError(const Instruction *inst, const char *what)
    {
        error(inst, std::string(inst->opcodeStr()) + ": " + what);
    }

    void
    checkInstruction(const Instruction *inst)
    {
        // Generic operand sanity.
        for (size_t i = 0; i < inst->numOperands(); ++i) {
            if (!inst->operand(i)) {
                typeError(inst, "null operand");
                return;
            }
        }

        switch (inst->opcode()) {
          case Opcode::Add:
          case Opcode::Sub:
          case Opcode::Mul:
          case Opcode::Div:
          case Opcode::Rem: {
            auto *b = cast<BinaryOperator>(inst);
            Type *t = b->lhs()->type();
            if (!t->isInteger() && !t->isFloatingPoint())
                typeError(inst, "operands must be numeric");
            if (b->rhs()->type() != t)
                typeError(inst, "operand types differ");
            if (inst->type() != t)
                typeError(inst, "result type mismatch");
            break;
          }
          case Opcode::And:
          case Opcode::Or:
          case Opcode::Xor: {
            auto *b = cast<BinaryOperator>(inst);
            Type *t = b->lhs()->type();
            if (!t->isInteger() && !t->isBool())
                typeError(inst, "operands must be integral");
            if (b->rhs()->type() != t)
                typeError(inst, "operand types differ");
            break;
          }
          case Opcode::Shl:
          case Opcode::Shr: {
            auto *b = cast<BinaryOperator>(inst);
            if (!b->lhs()->type()->isInteger())
                typeError(inst, "shifted value must be integer");
            if (b->rhs()->type()->kind() != TypeKind::UByte)
                typeError(inst, "shift amount must be ubyte");
            break;
          }
          case Opcode::SetEQ:
          case Opcode::SetNE:
          case Opcode::SetLT:
          case Opcode::SetGT:
          case Opcode::SetLE:
          case Opcode::SetGE: {
            auto *s = cast<SetCondInst>(inst);
            Type *t = s->lhs()->type();
            if (!t->isScalar())
                typeError(inst, "operands must be scalar");
            if (s->rhs()->type() != t)
                typeError(inst, "operand types differ");
            if (!inst->type()->isBool())
                typeError(inst, "result must be bool");
            break;
          }
          case Opcode::Ret: {
            auto *r = cast<ReturnInst>(inst);
            Type *expected = f_.returnType();
            if (expected->isVoid()) {
                if (r->returnValue())
                    typeError(inst, "value returned from void function");
            } else if (!r->returnValue()) {
                typeError(inst, "missing return value");
            } else if (r->returnValue()->type() != expected) {
                typeError(inst, "return value type mismatch");
            }
            break;
          }
          case Opcode::Br: {
            auto *b = cast<BranchInst>(inst);
            if (b->isConditional() &&
                !b->condition()->type()->isBool())
                typeError(inst, "condition must be bool");
            break;
          }
          case Opcode::MBr: {
            auto *m = cast<MBrInst>(inst);
            Type *t = m->condition()->type();
            if (!t->isInteger())
                typeError(inst, "mbr value must be integer");
            std::set<uint64_t> cases;
            for (unsigned i = 0; i < m->numCases(); ++i) {
                if (m->caseValue(i)->type() != t)
                    typeError(inst, "case type mismatch");
                if (!cases.insert(m->caseValue(i)->bits()).second)
                    typeError(inst, "duplicate case value");
            }
            break;
          }
          case Opcode::Invoke:
          case Opcode::Call:
            checkCallLike(inst);
            break;
          case Opcode::Unwind:
            break;
          case Opcode::Load: {
            auto *l = cast<LoadInst>(inst);
            auto *pt = dyn_cast<PointerType>(l->pointer()->type());
            if (!pt) {
                typeError(inst, "operand must be a pointer");
            } else {
                if (!pt->pointee()->isFirstClass())
                    typeError(inst, "loaded type must be scalar");
                if (inst->type() != pt->pointee())
                    typeError(inst, "result type mismatch");
            }
            break;
          }
          case Opcode::Store: {
            auto *s = cast<StoreInst>(inst);
            auto *pt = dyn_cast<PointerType>(s->pointer()->type());
            if (!pt) {
                typeError(inst, "destination must be a pointer");
            } else {
                if (!pt->pointee()->isFirstClass())
                    typeError(inst, "stored type must be scalar");
                if (s->value()->type() != pt->pointee())
                    typeError(inst, "stored value type mismatch");
            }
            break;
          }
          case Opcode::GetElementPtr:
            checkGEP(cast<GetElementPtrInst>(inst));
            break;
          case Opcode::Alloca: {
            auto *a = cast<AllocaInst>(inst);
            if (a->arraySize() &&
                !a->arraySize()->type()->isInteger())
                typeError(inst, "array size must be integer");
            if (!inst->type()->isPointer())
                typeError(inst, "result must be pointer");
            break;
          }
          case Opcode::Cast: {
            auto *c = cast<CastInst>(inst);
            Type *src = c->value()->type();
            Type *dst = c->type();
            if (!src->isScalar() || !dst->isScalar())
                typeError(inst, "cast requires scalar types");
            // Pointer <-> FP conversions are not meaningful.
            if ((src->isPointer() && dst->isFloatingPoint()) ||
                (src->isFloatingPoint() && dst->isPointer()))
                typeError(inst, "cannot cast between pointer and FP");
            break;
          }
          case Opcode::Phi:
            break; // handled in checkPhis
        }
    }

    void
    checkCallLike(const Instruction *inst)
    {
        Value *callee;
        std::vector<Value *> args;
        if (auto *c = dyn_cast<CallInst>(inst)) {
            callee = c->callee();
            for (unsigned i = 0; i < c->numArgs(); ++i)
                args.push_back(c->arg(i));
        } else {
            auto *iv = cast<InvokeInst>(inst);
            callee = iv->callee();
            for (unsigned i = 0; i < iv->numArgs(); ++i)
                args.push_back(iv->arg(i));
        }

        auto *pt = dyn_cast<PointerType>(callee->type());
        auto *ft = pt ? dyn_cast<FunctionType>(pt->pointee()) : nullptr;
        if (!ft) {
            typeError(inst, "callee is not a function");
            return;
        }
        if (inst->type() != ft->returnType())
            typeError(inst, "result type does not match callee return");
        if (args.size() < ft->numParams() ||
            (args.size() > ft->numParams() && !ft->isVarArg())) {
            typeError(inst, "argument count mismatch");
            return;
        }
        for (size_t i = 0; i < ft->numParams(); ++i)
            if (args[i]->type() != ft->paramType(i))
                typeError(inst, "argument type mismatch");
    }

    void
    checkGEP(const GetElementPtrInst *gep)
    {
        auto *pt = dyn_cast<PointerType>(gep->pointer()->type());
        if (!pt) {
            typeError(gep, "base must be a pointer");
            return;
        }
        if (gep->numIndices() == 0) {
            typeError(gep, "requires at least one index");
            return;
        }
        Type *cur = pt->pointee();
        for (unsigned i = 0; i < gep->numIndices(); ++i) {
            Value *idx = gep->index(i);
            if (i == 0) {
                if (!idx->type()->isInteger())
                    typeError(gep, "index must be integer");
                continue;
            }
            if (auto *at = dyn_cast<ArrayType>(cur)) {
                if (!idx->type()->isInteger())
                    typeError(gep, "array index must be integer");
                cur = at->element();
            } else if (auto *st = dyn_cast<StructType>(cur)) {
                auto *ci = dyn_cast<ConstantInt>(idx);
                if (!ci ||
                    ci->type()->kind() != TypeKind::UByte) {
                    typeError(gep,
                              "struct index must be constant ubyte");
                    return;
                }
                if (ci->zext() >= st->numFields()) {
                    typeError(gep, "struct index out of range");
                    return;
                }
                cur = st->field(static_cast<size_t>(ci->zext()));
            } else {
                typeError(gep, "cannot index into scalar type");
                return;
            }
        }
        auto *expect = cur->context().pointerTo(cur);
        if (gep->type() != expect)
            typeError(gep, "result type mismatch");
    }

    void
    checkSSADominance()
    {
        DominatorTree dt(f_);
        for (const auto &bb : f_) {
            if (!dt.reachable(bb.get()))
                continue; // dead code: dominance is vacuous
            for (const auto &inst : *bb) {
                for (size_t op = 0; op < inst->numOperands(); ++op) {
                    auto *def =
                        dyn_cast<Instruction>(inst->operand(op));
                    if (!def)
                        continue;
                    if (def->function() != &f_) {
                        error(inst.get(),
                              "operand defined in another function");
                        continue;
                    }
                    if (!dt.dominates(def, inst.get(),
                                      static_cast<unsigned>(op)))
                        error(inst.get(),
                              "use of %" + def->name() +
                                  " is not dominated by its "
                                  "definition");
                }
            }
        }
    }

    const Function &f_;
    VerifyResult &result_;
};

} // namespace

std::string
VerifyResult::str() const
{
    std::string s;
    for (const auto &e : errors) {
        s += e;
        s += '\n';
    }
    return s;
}

VerifyResult
verifyFunction(const Function &f)
{
    VerifyResult r;
    FunctionVerifier(f, r).run();
    return r;
}

VerifyResult
verifyModule(const Module &m)
{
    ScopedStageTimer t(VerifyTime);
    VerifyResult r;
    for (const auto &f : m.functions())
        FunctionVerifier(*f, r).run();
    return r;
}

void
verifyOrDie(const Module &m)
{
    VerifyResult r = verifyModule(m);
    if (!r.ok())
        fatal("module '%s' failed verification:\n%s", m.name().c_str(),
              r.str().c_str());
}

} // namespace llva
