#include "vm/interpreter.h"

#include <cmath>
#include <map>

#include "ir/instructions.h"

/**
 * Direct-threaded dispatch for the interpreter's inner loop. On
 * GCC/Clang each instruction dispatches through one computed goto
 * into a label table indexed by the Opcode value — no switch range
 * check, and the indirect jump gives the branch predictor one
 * prediction site per dispatch instead of a single shared one.
 * Elsewhere the same handler bodies compile as the classic switch.
 * OPCASE introduces a handler; NEXT_INSTR ends one (outer-level
 * `break`s of the old switch — nested switches keep theirs).
 */
#if defined(__GNUC__) || defined(__clang__)
#define LLVA_THREADED_INTERP 1
#endif

#if defined(LLVA_THREADED_INTERP)
#define OPCASE(name) op_##name:
#define NEXT_INSTR goto llva_next_instr
#else
#define OPCASE(name) case Opcode::name:
#define NEXT_INSTR break
#endif

namespace llva {

namespace {

uint64_t
canonInt(uint64_t v, const Type *t)
{
    unsigned bits = t->integerBitWidth();
    if (bits == 0 || bits >= 64)
        return v;
    uint64_t mask = (bits == 64) ? ~0ull : ((1ull << bits) - 1);
    v &= mask;
    if (t->isSignedInteger() && ((v >> (bits - 1)) & 1))
        v |= ~mask;
    return v;
}

/**
 * One defined-function activation. The running frame keeps its
 * position (block, predecessor, cursor) and its values in invoke()'s
 * locals; a suspended one holds them here, with the cursor at its
 * call site.
 */
struct Frame
{
    const Function *fn = nullptr;
    const BasicBlock *block = nullptr;
    const BasicBlock *prev = nullptr;
    BasicBlock::const_iterator cursor;
    std::map<const Value *, RtValue> values;
    uint64_t savedStack = 0; ///< stack break restored on exit
};

} // namespace

ExecResult
Interpreter::run(const Function *f, const std::vector<RtValue> &args)
{
    executed_ = 0;
    return ctx_.deliverTrap(invoke(f, args), [this](auto *hf, auto &a) {
        return invoke(hf, a);
    });
}

/**
 * The activation loop. It has five parts, entered by goto: the call
 * (redirect, external-call rule, depth cap, frame push), block entry
 * (profile, phis), the dispatch loop, the return to the caller's call
 * site, and unwinding to the nearest invoke. A trap anywhere ends the
 * whole run at `done`.
 *
 * The loop starts on a cache line. At the default 16-byte alignment,
 * runs that are almost all interpreter time took about 20% longer
 * when unrelated code linked before it grew by 368 bytes.
 */
__attribute__((aligned(64))) ExecResult
Interpreter::invoke(const Function *f, const std::vector<RtValue> &args,
                    uint64_t stackBase, size_t depth)
{
    Memory &mem = ctx_.memory();
    uint64_t stackBrk = stackBase ? stackBase : mem.stackTop();
    ExecResult out;

    // The frame stack and the running frame's state (see Frame).
    std::vector<Frame> frames;
    Frame *fr = nullptr;
    const BasicBlock *block = nullptr;
    const BasicBlock *prev = nullptr;
    BasicBlock::const_iterator it;
    std::map<const Value *, RtValue> values;

    // The call being made (callee, cargs), then the value it returned.
    const Function *callee = f;
    std::vector<RtValue> cargs = args;
    RtValue rv;

    std::vector<std::pair<const Value *, RtValue>> phis;

    auto eval = [&](const Value *v) -> RtValue {
        if (auto *ci = dyn_cast<ConstantInt>(v))
            return RtValue::ofInt(ci->zext());
        if (auto *cf = dyn_cast<ConstantFP>(v))
            return RtValue::ofFP(cf->value());
        if (isa<ConstantNull>(v) || isa<ConstantUndef>(v))
            return RtValue();
        if (auto *gv = dyn_cast<GlobalVariable>(v))
            return RtValue::ofInt(ctx_.globalAddrs().at(gv));
        if (auto *fn = dyn_cast<Function>(v))
            return RtValue::ofInt(mem.functionAddress(fn));
        auto found = values.find(v);
        LLVA_ASSERT(found != values.end(),
                    "use of undefined value '%s' in %%%s",
                    v->name().c_str(), fr->fn->name().c_str());
        return found->second;
    };

    // A failed access consumes the memory fault and raises it as the
    // run's trap only if the instruction has exceptions enabled.
    auto memTrapped = [&](const Instruction *inst) {
        TrapKind k = mem.lastTrap();
        mem.clearTrap();
        if (inst->exceptionsEnabled())
            out.trap = k;
        return inst->exceptionsEnabled();
    };

  call:
    // SMC redirect: future invocations run the replacement body.
    if (const Function *repl = ctx_.redirectFor(callee))
        callee = repl;
    if (callee->isDeclaration()) {
        ExecResult ext = ctx_.callExternal(callee, cargs);
        if (ext.trap != TrapKind::None) {
            out.trap = ext.trap;
            goto done;
        }
        rv = ext.value;
        goto returned;
    }
    if (depth + frames.size() > kMaxCallDepth) {
        out.trap = TrapKind::StackOverflow;
        goto done;
    }
    fr = &frames.emplace_back();
    fr->fn = callee;
    fr->savedStack = stackBrk;
    values.clear();
    for (size_t i = 0; i < callee->numArgs() && i < cargs.size(); ++i)
        values[callee->arg(i)] = cargs[i];
    prev = nullptr;
    block = callee->entryBlock();

  block_entry:
    if (profile_)
        profile_->note(prev, block);
    // Phi nodes evaluate simultaneously on block entry.
    if (prev) {
        phis.clear();
        for (const auto &inst : *block) {
            auto *phi = dyn_cast<PhiNode>(inst.get());
            if (!phi)
                break;
            const Value *in = phi->incomingValueFor(prev);
            LLVA_ASSERT(in, "phi has no entry for predecessor");
            phis.emplace_back(phi, eval(in));
            ++executed_;
        }
        for (auto &[phi, val] : phis)
            values[phi] = val;
    }
    it = block->firstNonPhi();

  dispatch:
    for (; it != block->end(); ++it) {
        const Instruction *inst = it->get();
        ++executed_;
        if (limit_ && executed_ > limit_)
            fatal("interpreter instruction limit exceeded");

#if defined(LLVA_THREADED_INTERP)
        // Handler-label table in Opcode order (&&label is the GNU
        // address-of-label extension).
        static const void *const kDispatch[kNumOpcodes] = {
            &&op_Add,    &&op_Sub,    &&op_Mul,
            &&op_Div,    &&op_Rem,    &&op_And,
            &&op_Or,     &&op_Xor,    &&op_Shl,
            &&op_Shr,    &&op_SetEQ,  &&op_SetNE,
            &&op_SetLT,  &&op_SetGT,  &&op_SetLE,
            &&op_SetGE,  &&op_Ret,    &&op_Br,
            &&op_MBr,    &&op_Invoke, &&op_Unwind,
            &&op_Load,   &&op_Store,  &&op_GetElementPtr,
            &&op_Alloca, &&op_Cast,   &&op_Call,
            &&op_Phi,
        };
        goto *kDispatch[static_cast<unsigned>(inst->opcode())];
#else
        switch (inst->opcode()) {
#endif
          OPCASE(Add)
          OPCASE(Sub)
          OPCASE(Mul)
          OPCASE(Div)
          OPCASE(Rem) {
            auto *b = static_cast<const BinaryOperator *>(inst);
            Type *t = b->type();
            RtValue lhs = eval(b->lhs()), rhs = eval(b->rhs());
            if (t->isFloatingPoint()) {
                double a = lhs.f, bb = rhs.f, r = 0;
                switch (inst->opcode()) {
                  case Opcode::Add: r = a + bb; break;
                  case Opcode::Sub: r = a - bb; break;
                  case Opcode::Mul: r = a * bb; break;
                  case Opcode::Div: r = a / bb; break;
                  default: r = std::fmod(a, bb); break;
                }
                if (t->kind() == TypeKind::Float)
                    r = static_cast<float>(r);
                values[inst] = RtValue::ofFP(r);
                NEXT_INSTR;
            }
            uint64_t a = canonInt(lhs.i, t);
            uint64_t bb = canonInt(rhs.i, t);
            uint64_t r = 0;
            switch (inst->opcode()) {
              case Opcode::Add: r = a + bb; break;
              case Opcode::Sub: r = a - bb; break;
              case Opcode::Mul: r = a * bb; break;
              case Opcode::Div:
              case Opcode::Rem: {
                if (bb == 0) {
                    if (inst->exceptionsEnabled()) {
                        out.trap = TrapKind::DivByZero;
                        goto done;
                    }
                    break;
                }
                if (t->isSignedInteger()) {
                    int64_t sa = static_cast<int64_t>(a);
                    int64_t sb = static_cast<int64_t>(bb);
                    if (sa == INT64_MIN && sb == -1)
                        r = inst->opcode() == Opcode::Div ? a
                                                          : 0;
                    else
                        r = static_cast<uint64_t>(
                            inst->opcode() == Opcode::Div
                                ? sa / sb
                                : sa % sb);
                } else {
                    r = inst->opcode() == Opcode::Div ? a / bb
                                                      : a % bb;
                }
                break;
              }
              default:
                break;
            }
            values[inst] = RtValue::ofInt(canonInt(r, t));
            NEXT_INSTR;
          }
          OPCASE(And)
          OPCASE(Or)
          OPCASE(Xor) {
            auto *b = static_cast<const BinaryOperator *>(inst);
            uint64_t a = eval(b->lhs()).i, bb = eval(b->rhs()).i;
            uint64_t r = inst->opcode() == Opcode::And ? (a & bb)
                         : inst->opcode() == Opcode::Or
                             ? (a | bb)
                             : (a ^ bb);
            values[inst] = RtValue::ofInt(canonInt(r, b->type()));
            NEXT_INSTR;
          }
          OPCASE(Shl)
          OPCASE(Shr) {
            auto *b = static_cast<const BinaryOperator *>(inst);
            Type *t = b->type();
            uint64_t a = canonInt(eval(b->lhs()).i, t);
            uint64_t sh = eval(b->rhs()).i & 63;
            uint64_t r;
            if (inst->opcode() == Opcode::Shl) {
                r = a << sh;
            } else if (t->isSignedInteger()) {
                r = static_cast<uint64_t>(
                    static_cast<int64_t>(a) >> sh);
            } else {
                unsigned bits = t->integerBitWidth();
                uint64_t ua =
                    bits >= 64 ? a : (a & ((1ull << bits) - 1));
                r = ua >> sh;
            }
            values[inst] = RtValue::ofInt(canonInt(r, t));
            NEXT_INSTR;
          }
          OPCASE(SetEQ)
          OPCASE(SetNE)
          OPCASE(SetLT)
          OPCASE(SetGT)
          OPCASE(SetLE)
          OPCASE(SetGE) {
            auto *c = static_cast<const SetCondInst *>(inst);
            Type *t = c->lhs()->type();
            bool r = false;
            if (t->isFloatingPoint()) {
                double a = eval(c->lhs()).f,
                       b = eval(c->rhs()).f;
                switch (inst->opcode()) {
                  case Opcode::SetEQ: r = a == b; break;
                  case Opcode::SetNE: r = a != b; break;
                  case Opcode::SetLT: r = a < b; break;
                  case Opcode::SetGT: r = a > b; break;
                  case Opcode::SetLE: r = a <= b; break;
                  default: r = a >= b; break;
                }
            } else if (t->isSignedInteger()) {
                int64_t a = static_cast<int64_t>(
                    canonInt(eval(c->lhs()).i, t));
                int64_t b = static_cast<int64_t>(
                    canonInt(eval(c->rhs()).i, t));
                switch (inst->opcode()) {
                  case Opcode::SetEQ: r = a == b; break;
                  case Opcode::SetNE: r = a != b; break;
                  case Opcode::SetLT: r = a < b; break;
                  case Opcode::SetGT: r = a > b; break;
                  case Opcode::SetLE: r = a <= b; break;
                  default: r = a >= b; break;
                }
            } else {
                unsigned bits = t->isPointer()
                                    ? 64
                                    : t->integerBitWidth();
                uint64_t mask =
                    bits >= 64 ? ~0ull : ((1ull << bits) - 1);
                uint64_t a = eval(c->lhs()).i & mask;
                uint64_t b = eval(c->rhs()).i & mask;
                switch (inst->opcode()) {
                  case Opcode::SetEQ: r = a == b; break;
                  case Opcode::SetNE: r = a != b; break;
                  case Opcode::SetLT: r = a < b; break;
                  case Opcode::SetGT: r = a > b; break;
                  case Opcode::SetLE: r = a <= b; break;
                  default: r = a >= b; break;
                }
            }
            values[inst] = RtValue::ofInt(r ? 1 : 0);
            NEXT_INSTR;
          }
          OPCASE(Ret) {
            auto *r = static_cast<const ReturnInst *>(inst);
            rv = r->returnValue() ? eval(r->returnValue())
                                  : RtValue();
            stackBrk = fr->savedStack;
            frames.pop_back();
            goto returned;
          }
          OPCASE(Br) {
            auto *b = static_cast<const BranchInst *>(inst);
            prev = block;
            if (b->isConditional())
                block = eval(b->condition()).i ? b->target(0)
                                               : b->target(1);
            else
                block = b->target(0);
            goto block_entry;
          }
          OPCASE(MBr) {
            auto *m = static_cast<const MBrInst *>(inst);
            uint64_t v = canonInt(eval(m->condition()).i,
                                  m->condition()->type());
            prev = block;
            block = m->defaultDest();
            for (unsigned i = 0; i < m->numCases(); ++i) {
                if (m->caseValue(i)->bits() == v) {
                    block = m->caseDest(i);
                    break;
                }
            }
            goto block_entry;
          }
          OPCASE(Invoke)
          OPCASE(Call) {
            const Value *target;
            cargs.clear();
            if (auto *c = dyn_cast<CallInst>(inst)) {
                target = c->callee();
                for (unsigned i = 0; i < c->numArgs(); ++i)
                    cargs.push_back(eval(c->arg(i)));
            } else {
                auto *iv = static_cast<const InvokeInst *>(inst);
                target = iv->callee();
                for (unsigned i = 0; i < iv->numArgs(); ++i)
                    cargs.push_back(eval(iv->arg(i)));
            }
            callee = dyn_cast<Function>(target);
            if (!callee) {
                callee = mem.functionAt(eval(target).i);
                if (!callee) {
                    // A control transfer to a non-function address
                    // always traps; ExceptionsEnabled only gates
                    // data-side exceptions.
                    out.trap = TrapKind::BadIndirectCall;
                    goto done;
                }
            }
            // Suspend the caller at its call site.
            fr->block = block;
            fr->prev = prev;
            fr->cursor = it;
            fr->values = std::move(values);
            goto call;
          }
          OPCASE(Unwind)
            goto unwinding;
          OPCASE(Load) {
            auto *l = static_cast<const LoadInst *>(inst);
            uint64_t addr = eval(l->pointer()).i;
            Type *t = l->type();
            if (t->isFloatingPoint()) {
                double v = 0;
                if (!mem.loadFP(addr, t->kind() == TypeKind::Float, v) &&
                    memTrapped(inst))
                    goto done;
                values[inst] = RtValue::ofFP(v);
                NEXT_INSTR;
            }
            unsigned width = static_cast<unsigned>(
                t->sizeInBytes(ctx_.module().pointerSize()));
            uint64_t v = 0;
            if (!mem.load(addr, width, v) && memTrapped(inst))
                goto done;
            values[inst] = RtValue::ofInt(canonInt(v, t));
            NEXT_INSTR;
          }
          OPCASE(Store) {
            auto *s = static_cast<const StoreInst *>(inst);
            uint64_t addr = eval(s->pointer()).i;
            Type *t = s->value()->type();
            bool ok;
            if (t->isFloatingPoint())
                ok = mem.storeFP(addr,
                                 t->kind() == TypeKind::Float,
                                 eval(s->value()).f);
            else
                ok = mem.store(
                    addr,
                    static_cast<unsigned>(t->sizeInBytes(
                        ctx_.module().pointerSize())),
                    eval(s->value()).i);
            if (!ok && memTrapped(inst))
                goto done;
            NEXT_INSTR;
          }
          OPCASE(GetElementPtr) {
            auto *g = static_cast<const GetElementPtrInst *>(inst);
            unsigned ps = ctx_.module().pointerSize();
            uint64_t addr = eval(g->pointer()).i;
            Type *cur = cast<PointerType>(g->pointer()->type())->pointee();
            for (unsigned i = 0; i < g->numIndices(); ++i) {
                const Value *idx = g->index(i);
                if (i == 0) {
                    int64_t n = static_cast<int64_t>(canonInt(
                        eval(idx).i, idx->type()));
                    addr += static_cast<uint64_t>(
                        n * static_cast<int64_t>(
                                cur->sizeInBytes(ps)));
                    continue;
                }
                if (auto *at = dyn_cast<ArrayType>(cur)) {
                    cur = at->element();
                    int64_t n = static_cast<int64_t>(canonInt(
                        eval(idx).i, idx->type()));
                    addr += static_cast<uint64_t>(
                        n * static_cast<int64_t>(
                                cur->sizeInBytes(ps)));
                } else {
                    auto *st = cast<StructType>(cur);
                    size_t field = static_cast<size_t>(
                        cast<ConstantInt>(idx)->zext());
                    addr += st->fieldOffset(field, ps);
                    cur = st->field(field);
                }
            }
            values[inst] = RtValue::ofInt(addr);
            NEXT_INSTR;
          }
          OPCASE(Alloca) {
            auto *a = static_cast<const AllocaInst *>(inst);
            unsigned ps = ctx_.module().pointerSize();
            uint64_t count = 1;
            if (a->arraySize())
                count = eval(a->arraySize()).i;
            uint64_t size = a->allocatedType()->sizeInBytes(ps) * count;
            uint64_t align = a->allocatedType()->alignment(ps);
            stackBrk -= size;
            stackBrk &= ~(align - 1);
            if (stackBrk < mem.stackLimit()) {
                out.trap = TrapKind::StackOverflow;
                goto done;
            }
            values[inst] = RtValue::ofInt(stackBrk);
            NEXT_INSTR;
          }
          OPCASE(Cast) {
            auto *c = static_cast<const CastInst *>(inst);
            Type *src = c->value()->type();
            Type *dst = c->type();
            RtValue v = eval(c->value());
            if (src->isFloatingPoint() && dst->isFloatingPoint()) {
                double d = v.f;
                if (dst->kind() == TypeKind::Float)
                    d = static_cast<float>(d);
                values[inst] = RtValue::ofFP(d);
            } else if (src->isFloatingPoint()) {
                uint64_t r = 0;
                if (std::isfinite(v.f)) {
                    if (dst->isSignedInteger())
                        r = static_cast<uint64_t>(
                            static_cast<int64_t>(v.f));
                    else if (v.f > 0)
                        r = static_cast<uint64_t>(v.f);
                }
                values[inst] = RtValue::ofInt(canonInt(r, dst));
            } else if (dst->isFloatingPoint()) {
                uint64_t a = canonInt(v.i, src);
                double d =
                    src->isSignedInteger()
                        ? static_cast<double>(
                              static_cast<int64_t>(a))
                        : static_cast<double>(a);
                if (dst->kind() == TypeKind::Float)
                    d = static_cast<float>(d);
                values[inst] = RtValue::ofFP(d);
            } else {
                // int/bool/pointer to int/bool/pointer.
                uint64_t a = src->isPointer() ? v.i : canonInt(v.i, src);
                if (dst->isBool())
                    values[inst] = RtValue::ofInt(a ? 1 : 0);
                else if (dst->isPointer())
                    values[inst] = RtValue::ofInt(a);
                else
                    values[inst] = RtValue::ofInt(canonInt(a, dst));
            }
            NEXT_INSTR;
          }
          OPCASE(Phi)
            panic("phi after firstNonPhi");
#if defined(LLVA_THREADED_INTERP)
      llva_next_instr:;
#else
          default:
            panic("unhandled opcode in interpreter");
        }
#endif
    }
    panic("block fell through without a terminator");

  returned:
    // The call at the running frame's cursor finished with value rv;
    // with no frame left, the entry function did.
    if (frames.empty()) {
        out.value = rv;
        goto done;
    }
    fr = &frames.back();
    block = fr->block;
    prev = fr->prev;
    it = fr->cursor;
    values = std::move(fr->values);
    if (!(*it)->type()->isVoid())
        values[it->get()] = rv;
    if (auto *iv = dyn_cast<InvokeInst>(it->get())) {
        prev = block;
        block = iv->normalDest();
        goto block_entry;
    }
    ++it;
    goto dispatch;

  unwinding:
    // Pop frames to the nearest invoke call site and resume at its
    // unwind destination; past the entry, the unwind escapes.
    do {
        stackBrk = fr->savedStack;
        frames.pop_back();
        if (frames.empty()) {
            out.unwound = true;
            goto done;
        }
        fr = &frames.back();
    } while (!isa<InvokeInst>(fr->cursor->get()));
    values = std::move(fr->values);
    prev = fr->block;
    block = cast<InvokeInst>(fr->cursor->get())->unwindDest();
    goto block_entry;

  done:
    out.instructionsExecuted = executed_;
    return out;
}

} // namespace llva
