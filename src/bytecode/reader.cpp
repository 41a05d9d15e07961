#include <map>
#include <set>
#include <vector>

#include "bytecode/bytecode.h"
#include "ir/instructions.h"
#include "support/byte_io.h"
#include "support/hashing.h"

namespace llva {

namespace {

// Constant encoding tags (mirrors writer.cpp).
enum ConstTag : uint8_t {
    kConstInt = 0,
    kConstFP = 1,
    kConstNull = 2,
    kConstUndef = 3,
    kConstString = 4,
    kConstAggregate = 5,
    kConstGlobalRef = 6,
    kConstFunctionRef = 7,
};

/** Nesting cap for encoded aggregate constants (anti stack-smash). */
constexpr unsigned kMaxConstantDepth = 512;

/** Raw type record: kind plus unresolved operand indices. */
struct TypeRecord
{
    TypeKind kind;
    std::string name;           // struct name (may be empty)
    std::vector<uint64_t> refs; // pointee/element/fields/ret+params
    uint64_t count = 0;         // array length
    bool vararg = false;
};

/**
 * Decodes one object file. Every declared count is checked against
 * the bytes actually remaining before any allocation sized by it, so
 * a corrupted length field can never balloon memory; every name and
 * index is validated before it reaches a Module factory, so the
 * library's internal invariants (which panic, not throw) are never
 * violated by untrusted input. All rejection paths go through
 * fatal(), which the readBytecode wrapper converts to an Error.
 */
class ModuleReader
{
  public:
    ModuleReader(const uint8_t *data, size_t size)
        : r_(data, size)
    {}

    std::unique_ptr<Module>
    run()
    {
        if (r_.remaining() < 8)
            fatal("not an LLVA object file (too small)");
        if (r_.readByte() != 'L' || r_.readByte() != 'L' ||
            r_.readByte() != 'V' || r_.readByte() != 'A')
            fatal("not an LLVA object file (bad magic)");
        uint8_t version = r_.readByte();
        if (version != kBytecodeVersion)
            fatal("unsupported bytecode version %u", version);
        TargetFlags flags;
        flags.pointerSize = r_.readByte();
        flags.bigEndian = r_.readByte() != 0;
        uint8_t optLevel = r_.readByte();
        if (flags.pointerSize != 4 && flags.pointerSize != 8)
            fatal("bad pointer size %u in header", flags.pointerSize);
        if (optLevel > kMaxOptimizationLevel)
            fatal("bad optimization level %u in header", optLevel);

        std::string name = r_.readString();
        m_ = std::make_unique<Module>(name);
        m_->setTargetFlags(flags);
        m_->setOptimizationLevel(optLevel);

        readTypeTable();
        readGlobals();
        readFunctions();
        if (!r_.atEnd())
            fatal("%zu trailing bytes after module payload",
                  r_.remaining());
        return std::move(m_);
    }

    /**
     * Error-path cleanup: free any orphaned forward-reference
     * placeholders, moving the half-built module's uses of them to
     * its own undef, then destroy the module, so nothing leaks when
     * run() throws out of the middle of a function body.
     */
    void
    discard()
    {
        for (auto &[id, ph] : forwards_) {
            ph->replaceAllUsesWith(m_->constantUndef(ph->type()));
            delete ph;
        }
        forwards_.clear();
        m_.reset();
    }

  private:
    // --- Types ---------------------------------------------------------

    void
    readTypeTable()
    {
        uint64_t count = r_.readVaruint();
        // Each record occupies at least one byte of stream, so a
        // count beyond the remaining bytes is unsatisfiable — reject
        // before sizing any table by it.
        if (count > r_.remaining())
            fatal("type table count %llu exceeds remaining %zu bytes",
                  (unsigned long long)count, r_.remaining());
        records_.resize(count);
        for (auto &rec : records_) {
            rec.kind = static_cast<TypeKind>(r_.readByte());
            switch (rec.kind) {
              case TypeKind::Pointer:
                rec.refs.push_back(r_.readVaruint());
                break;
              case TypeKind::Array:
                rec.refs.push_back(r_.readVaruint());
                rec.count = r_.readVaruint();
                break;
              case TypeKind::Struct: {
                rec.name = r_.readString();
                uint64_t n = r_.readVaruint();
                if (n > r_.remaining())
                    fatal("struct field count %llu exceeds stream",
                          (unsigned long long)n);
                for (uint64_t i = 0; i < n; ++i)
                    rec.refs.push_back(r_.readVaruint());
                break;
              }
              case TypeKind::Function: {
                rec.refs.push_back(r_.readVaruint());
                uint64_t n = r_.readVaruint();
                if (n > r_.remaining())
                    fatal("param count %llu exceeds stream",
                          (unsigned long long)n);
                for (uint64_t i = 0; i < n; ++i)
                    rec.refs.push_back(r_.readVaruint());
                rec.vararg = r_.readByte() != 0;
                break;
              }
              default:
                if (static_cast<uint8_t>(rec.kind) >
                    static_cast<uint8_t>(TypeKind::Function))
                    fatal("bad type kind in type table");
                break;
            }
        }
        resolved_.assign(records_.size(), nullptr);
        resolving_.assign(records_.size(), 0);
        // By-value containment (struct fields, array elements) must
        // be acyclic — a type that contains itself by value has
        // infinite size. Pointers are the only legitimate back edge,
        // so they are excluded from this walk.
        checkContainmentCycles();
        // Named-struct shells first: a pointer record earlier in the
        // table may legally point into a struct defined later, so
        // every shell must exist before any record resolves.
        for (size_t i = 0; i < records_.size(); ++i) {
            TypeRecord &rec = records_[i];
            if (rec.kind != TypeKind::Struct || rec.name.empty())
                continue;
            if (!seenNamedStructs_.insert(rec.name).second)
                fatal("duplicate struct type %%%s",
                      rec.name.c_str());
            resolved_[i] =
                m_->types().getOrCreateNamedStruct(rec.name);
        }
        for (size_t i = 0; i < records_.size(); ++i) {
            TypeRecord &rec = records_[i];
            if (rec.kind == TypeKind::Struct && !rec.name.empty()) {
                std::vector<Type *> fields;
                for (uint64_t ref : rec.refs)
                    fields.push_back(checkedFieldType(ref));
                static_cast<StructType *>(resolved_[i])
                    ->setBody(std::move(fields));
            } else {
                resolveType(i);
            }
        }
    }

    /**
     * Reject type tables whose by-value containment graph has a
     * cycle. Iterative DFS — the table can hold as many records as
     * the stream has bytes, so recursion depth must not scale with
     * attacker-controlled input.
     */
    void
    checkContainmentCycles()
    {
        // 0 = unvisited, 1 = on the DFS stack, 2 = finished.
        std::vector<uint8_t> color(records_.size(), 0);
        std::vector<std::pair<uint64_t, size_t>> stack;
        for (uint64_t root = 0; root < records_.size(); ++root) {
            if (color[root])
                continue;
            color[root] = 1;
            stack.push_back({root, 0});
            while (!stack.empty()) {
                uint64_t idx = stack.back().first;
                const TypeRecord &rec = records_[idx];
                size_t nedges = 0;
                if (rec.kind == TypeKind::Array)
                    nedges = 1;
                else if (rec.kind == TypeKind::Struct)
                    nedges = rec.refs.size();
                if (stack.back().second == nedges) {
                    color[idx] = 2;
                    stack.pop_back();
                    continue;
                }
                uint64_t ref = rec.refs[stack.back().second++];
                if (ref >= records_.size())
                    fatal("type index %llu out of range",
                          (unsigned long long)ref);
                if (color[ref] == 1)
                    fatal("cyclic type table entry %llu",
                          (unsigned long long)ref);
                if (color[ref] == 0) {
                    color[ref] = 1;
                    stack.push_back({ref, 0});
                }
            }
        }
    }

    Type *
    resolveType(uint64_t idx)
    {
        if (idx >= records_.size())
            fatal("type index %llu out of range",
                  (unsigned long long)idx);
        if (resolved_[idx])
            return resolved_[idx];
        // Legitimate recursion always passes through a named-struct
        // shell (installed in resolved_ before its fields resolve);
        // re-entering an unresolved record any other way means the
        // table encodes a cycle that can never terminate.
        if (resolving_[idx])
            fatal("cyclic type table entry %llu",
                  (unsigned long long)idx);
        resolving_[idx] = 1;
        TypeRecord &rec = records_[idx];
        TypeContext &tc = m_->types();
        switch (rec.kind) {
          case TypeKind::Pointer: {
            // The pointee may be an in-progress named struct; named
            // shells are created before their bodies, so recursion
            // terminates there.
            Type *pointee = resolveType(rec.refs[0]);
            if (pointee->isVoid() || pointee->isLabel())
                fatal("pointer to %s in type table",
                      pointee->str().c_str());
            return resolved_[idx] = tc.pointerTo(pointee);
          }
          case TypeKind::Array: {
            Type *elem = resolveType(rec.refs[0]);
            if (elem->isVoid() || elem->isLabel())
                fatal("array of %s in type table",
                      elem->str().c_str());
            return resolved_[idx] = tc.arrayOf(elem, rec.count);
          }
          case TypeKind::Struct: {
            // Named structs were pre-resolved to shells in
            // readTypeTable, so only anonymous structs reach here;
            // their field cycles were rejected by the containment
            // walk above.
            std::vector<Type *> fields;
            for (uint64_t ref : rec.refs)
                fields.push_back(checkedFieldType(ref));
            return resolved_[idx] = tc.structOf(fields);
          }
          case TypeKind::Function: {
            Type *ret = resolveType(rec.refs[0]);
            std::vector<Type *> params;
            for (size_t i = 1; i < rec.refs.size(); ++i)
                params.push_back(checkedFieldType(rec.refs[i]));
            return resolved_[idx] =
                       tc.functionOf(ret, params, rec.vararg);
          }
          default:
            return resolved_[idx] = tc.prim(rec.kind);
        }
    }

    /** Resolve a struct-field / parameter type; void and label are
     *  not storable and would violate TypeContext invariants. */
    Type *
    checkedFieldType(uint64_t ref)
    {
        Type *t = resolveType(ref);
        if (t->isVoid() || t->isLabel())
            fatal("%s is not a storable field/parameter type",
                  t->str().c_str());
        return t;
    }

    Type *
    readTypeRef()
    {
        return resolveType(r_.readVaruint());
    }

    // --- Constants -----------------------------------------------------

    Constant *
    readConstant(unsigned depth = 0)
    {
        if (depth > kMaxConstantDepth)
            fatal("constant nesting exceeds %u levels",
                  kMaxConstantDepth);
        uint8_t tag = r_.readByte();
        switch (tag) {
          case kConstInt: {
            Type *t = readTypeRef();
            if (!t->isInteger() && !t->isBool())
                fatal("integer constant with type %s",
                      t->str().c_str());
            int64_t v = r_.readVarint();
            return m_->constantInt(t, static_cast<uint64_t>(v));
          }
          case kConstFP: {
            Type *t = readTypeRef();
            if (!t->isFloatingPoint())
                fatal("fp constant with type %s", t->str().c_str());
            return m_->constantFP(t, r_.readDouble());
          }
          case kConstNull: {
            Type *t = readTypeRef();
            auto *pt = dyn_cast<PointerType>(t);
            if (!pt)
                fatal("null constant with non-pointer type");
            return m_->constantNull(const_cast<PointerType *>(pt));
          }
          case kConstUndef: {
            Type *t = readTypeRef();
            if (t->isVoid() || t->isLabel())
                fatal("undef constant with type %s",
                      t->str().c_str());
            return m_->constantUndef(t);
          }
          case kConstString:
            return m_->constantString(r_.readString(), /*nul=*/false);
          case kConstAggregate: {
            Type *t = readTypeRef();
            uint64_t n = r_.readVaruint();
            if (n > r_.remaining())
                fatal("aggregate element count %llu exceeds stream",
                      (unsigned long long)n);
            std::vector<Constant *> elems;
            for (uint64_t i = 0; i < n; ++i)
                elems.push_back(readConstant(depth + 1));
            return m_->constantAggregate(t, std::move(elems));
          }
          case kConstFunctionRef: {
            std::string name = r_.readString();
            Function *f = m_->getFunction(name);
            if (!f)
                fatal("reference to unknown function %%%s",
                      name.c_str());
            return f;
          }
          case kConstGlobalRef: {
            std::string name = r_.readString();
            GlobalVariable *g = m_->getGlobal(name);
            if (!g)
                fatal("reference to unknown global %%%s", name.c_str());
            return g;
          }
          default:
            fatal("bad constant tag %u", tag);
        }
    }

    // --- Globals & functions -------------------------------------------

    void
    readGlobals()
    {
        uint64_t count = r_.readVaruint();
        // Two-phase: create all globals first so initializers can
        // reference them... but initializers may also reference
        // functions, which appear later in the file. Defer initializer
        // decoding by recording byte positions? The writer emits
        // initializers inline, so instead create globals with null
        // initializers and decode inline: function refs are resolved
        // against the function table, which is read *after* globals.
        // To keep the format single-pass, initializers that reference
        // functions are re-resolved in a fixup list.
        pendingGlobals_.clear();
        for (uint64_t i = 0; i < count; ++i) {
            std::string name = r_.readString();
            Type *contained = readTypeRef();
            if (contained->isVoid() || contained->isLabel())
                fatal("global %%%s of unstorable type %s",
                      name.c_str(), contained->str().c_str());
            if (m_->getGlobal(name))
                fatal("duplicate global %%%s", name.c_str());
            uint8_t flags = r_.readByte();
            GlobalVariable *gv = m_->createGlobal(
                contained, name, nullptr, (flags & 1) != 0,
                (flags & 2) ? Linkage::Internal : Linkage::External);
            if (r_.readByte()) {
                // Initializer bytes follow; we must decode now, but
                // function refs may be unresolvable. Save position,
                // skip by decoding into a tolerant mode.
                pendingGlobals_.emplace_back(gv, r_.position());
                skipConstant();
            }
        }
    }

    /** Skip an encoded constant without resolving references. */
    void
    skipConstant(unsigned depth = 0)
    {
        if (depth > kMaxConstantDepth)
            fatal("constant nesting exceeds %u levels",
                  kMaxConstantDepth);
        uint8_t tag = r_.readByte();
        switch (tag) {
          case kConstInt:
            r_.readVaruint();
            r_.readVarint();
            break;
          case kConstFP:
            r_.readVaruint();
            r_.readDouble();
            break;
          case kConstNull:
          case kConstUndef:
            r_.readVaruint();
            break;
          case kConstString:
            r_.readString();
            break;
          case kConstAggregate: {
            r_.readVaruint();
            uint64_t n = r_.readVaruint();
            if (n > r_.remaining())
                fatal("aggregate element count %llu exceeds stream",
                      (unsigned long long)n);
            for (uint64_t i = 0; i < n; ++i)
                skipConstant(depth + 1);
            break;
          }
          case kConstFunctionRef:
          case kConstGlobalRef:
            r_.readString();
            break;
          default:
            fatal("bad constant tag %u", tag);
        }
    }

    void
    readFunctions()
    {
        uint64_t count = r_.readVaruint();
        if (count > r_.remaining())
            fatal("function count %llu exceeds remaining %zu bytes",
                  (unsigned long long)count, r_.remaining());
        std::vector<Function *> defined;
        for (uint64_t i = 0; i < count; ++i) {
            std::string name = r_.readString();
            Type *t = readTypeRef();
            auto *ft = dyn_cast<FunctionType>(t);
            if (!ft)
                fatal("function %%%s has non-function type",
                      name.c_str());
            if (m_->getFunction(name))
                fatal("duplicate function %%%s", name.c_str());
            uint8_t flags = r_.readByte();
            Function *f = m_->createFunction(
                const_cast<FunctionType *>(ft), name,
                (flags & 1) ? Linkage::Internal : Linkage::External);
            if (flags & 2)
                defined.push_back(f);
        }

        // Now that all functions exist, decode pending global
        // initializers from their saved positions.
        size_t resume = r_.position();
        for (auto &[gv, pos] : pendingGlobals_) {
            r_.seek(pos);
            gv->setInitializer(readConstant());
        }
        r_.seek(resume);

        for (Function *f : defined)
            readBody(*f);
    }

    // --- Function bodies -----------------------------------------------

    void
    readBody(Function &f)
    {
        uint64_t num_blocks = r_.readVaruint();
        // Every block and pool constant consumes at least one stream
        // byte; counts beyond that are corrupt length fields.
        if (num_blocks > r_.remaining())
            fatal("block count %llu exceeds remaining %zu bytes",
                  (unsigned long long)num_blocks, r_.remaining());
        uint64_t pool_size = r_.readVaruint();
        if (pool_size > r_.remaining())
            fatal("constant pool size %llu exceeds remaining %zu "
                  "bytes",
                  (unsigned long long)pool_size, r_.remaining());

        std::vector<Value *> values;
        for (size_t i = 0; i < f.numArgs(); ++i)
            values.push_back(f.arg(i));
        std::vector<BasicBlock *> blocks;
        for (uint64_t i = 0; i < num_blocks; ++i) {
            BasicBlock *bb =
                f.createBlock("bb" + std::to_string(i));
            blocks.push_back(bb);
            values.push_back(bb);
        }
        for (uint64_t i = 0; i < pool_size; ++i)
            values.push_back(readConstant());

        // Forward references (phi operands): placeholder undefs,
        // tracked in a member so the error path can reclaim them.
        LLVA_ASSERT(forwards_.empty(),
                    "forward table leaked from previous body");

        auto getValue = [&](uint32_t id, Type *expected) -> Value * {
            if (id < values.size())
                return values[id];
            auto it = forwards_.find(id);
            if (it != forwards_.end())
                return it->second;
            if (!expected)
                fatal("forward reference with unknown type "
                      "(malformed object code)");
            // Every future value costs at least one stream byte, so
            // ids beyond values + remaining can never be defined;
            // this also caps the placeholder table's growth.
            if (id - values.size() >= r_.remaining())
                fatal("forward reference %u beyond end of function",
                      id);
            auto *ph = new ConstantUndef(expected);
            forwards_[id] = ph;
            return ph;
        };

        for (BasicBlock *bb : blocks) {
            uint64_t n = r_.readVaruint();
            for (uint64_t i = 0; i < n; ++i) {
                Instruction *inst = readInstruction(*bb, getValue);
                if (!inst->type()->isVoid())
                    values.push_back(inst);
            }
        }

        // Patch forward references. Validate every entry before
        // mutating anything, so a bad one cannot leave the table
        // half-deleted on the error path.
        for (auto &[id, ph] : forwards_) {
            if (id >= values.size())
                fatal("unresolved forward reference %u", id);
            if (values[id]->type() != ph->type())
                fatal("forward reference %u type mismatch", id);
        }
        for (auto &[id, ph] : forwards_) {
            ph->replaceAllUsesWith(values[id]);
            delete ph;
        }
        forwards_.clear();
    }

    template <typename GetValue>
    Instruction *
    readInstruction(BasicBlock &bb, GetValue &getValue)
    {
        uint8_t head = r_.readByte();
        unsigned fmt = head >> 6;
        uint8_t opfield = head & 0x3f;
        bool ee_override = (opfield & 0x20) != 0;
        auto opcode = static_cast<Opcode>(opfield & 0x1f);
        if ((opfield & 0x1f) >= kNumOpcodes)
            fatal("bad opcode %u in object code", opfield & 0x1f);

        Type *type;
        std::vector<uint32_t> ops;
        if (fmt == 0) {
            type = resolveType(r_.readVaruint());
            uint64_t n = r_.readVaruint();
            if (n > r_.remaining())
                fatal("operand count %llu exceeds stream",
                      (unsigned long long)n);
            for (uint64_t i = 0; i < n; ++i)
                ops.push_back(
                    static_cast<uint32_t>(r_.readVaruint()));
        } else {
            type = resolveType(r_.readByte());
            uint32_t tail = static_cast<uint32_t>(r_.readByte()) << 8;
            tail |= r_.readByte();
            if (fmt == 1) {
                if (tail != 0xffff)
                    ops.push_back(tail);
            } else if (fmt == 2) {
                ops.push_back((tail >> 8) & 0xff);
                ops.push_back(tail & 0xff);
            } else {
                ops.push_back((tail >> 11) & 0x1f);
                ops.push_back((tail >> 6) & 0x1f);
                ops.push_back(tail & 0x3f);
            }
        }

        std::unique_ptr<Instruction> inst =
            buildInstruction(opcode, type, ops, getValue);
        if (ee_override)
            inst->setExceptionsEnabled(
                !defaultExceptionsEnabled(opcode));
        Instruction *raw = inst.get();
        bb.append(std::move(inst));
        return raw;
    }

    template <typename GetValue>
    std::unique_ptr<Instruction>
    buildInstruction(Opcode opcode, Type *type,
                     const std::vector<uint32_t> &ops,
                     GetValue &getValue)
    {
        TypeContext &tc = m_->types();

        auto val = [&](size_t i, Type *expected = nullptr) {
            LLVA_ASSERT(i < ops.size(), "operand index out of range");
            return getValue(ops[i], expected);
        };
        auto block = [&](size_t i) {
            Value *v = val(i);
            auto *bb = dyn_cast<BasicBlock>(v);
            if (!bb)
                fatal("expected block operand");
            return const_cast<BasicBlock *>(bb);
        };
        // Ownership note: constructing through make() keeps a
        // half-built instruction owned while later operand decoding
        // may still fatal() (e.g. a bad mbr case), so rejection paths
        // leak nothing.
        auto make = [](Instruction *i) {
            return std::unique_ptr<Instruction>(i);
        };

        switch (opcode) {
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
            requireOps(ops, 2);
            return make(new BinaryOperator(opcode, val(0), val(1)));
          case Opcode::SetEQ:
          case Opcode::SetNE:
          case Opcode::SetLT:
          case Opcode::SetGT:
          case Opcode::SetLE:
          case Opcode::SetGE:
            requireOps(ops, 2);
            return make(new SetCondInst(opcode, val(0), val(1)));
          case Opcode::Ret:
            if (ops.empty())
                return make(new ReturnInst(tc));
            requireOps(ops, 1);
            return make(new ReturnInst(tc, val(0)));
          case Opcode::Br:
            if (ops.size() == 1)
                return make(new BranchInst(tc, block(0)));
            requireOps(ops, 3);
            return make(
                new BranchInst(tc, val(0), block(1), block(2)));
          case Opcode::MBr: {
            if (ops.size() < 2 || ops.size() % 2 != 0)
                fatal("malformed mbr");
            auto m = make(new MBrInst(tc, val(0), block(1)));
            auto *mbr = static_cast<MBrInst *>(m.get());
            for (size_t i = 2; i + 1 < ops.size(); i += 2) {
                auto *ci = dyn_cast<ConstantInt>(val(i));
                if (!ci)
                    fatal("mbr case is not a constant");
                mbr->addCase(const_cast<ConstantInt *>(ci),
                             block(i + 1));
            }
            return m;
          }
          case Opcode::Invoke: {
            if (ops.size() < 3)
                fatal("malformed invoke");
            // Destination blocks first: they fatal() on non-block
            // operands before any instruction exists.
            BasicBlock *normal = block(ops.size() - 2);
            BasicBlock *unwind = block(ops.size() - 1);
            std::vector<Value *> args;
            for (size_t i = 1; i + 2 < ops.size(); ++i)
                args.push_back(val(i));
            return make(
                new InvokeInst(type, val(0), args, normal, unwind));
          }
          case Opcode::Unwind:
            return make(new UnwindInst(tc));
          case Opcode::Load: {
            requireOps(ops, 1);
            Value *ptr = val(0);
            if (!isa<PointerType>(ptr->type()))
                fatal("load from non-pointer operand");
            return make(new LoadInst(ptr));
          }
          case Opcode::Store:
            requireOps(ops, 2);
            return make(new StoreInst(val(0), val(1)));
          case Opcode::GetElementPtr: {
            if (ops.empty())
                fatal("malformed getelementptr");
            std::vector<Value *> indices;
            for (size_t i = 1; i < ops.size(); ++i)
                indices.push_back(val(i));
            // computeResultType (run by the constructor) fatal()s on
            // non-pointer bases and invalid index sequences, before
            // the instruction is allocated.
            return make(new GetElementPtrInst(val(0), indices));
          }
          case Opcode::Alloca: {
            auto *pt = dyn_cast<PointerType>(type);
            if (!pt)
                fatal("malformed alloca (non-pointer result)");
            Value *size = ops.empty() ? nullptr : val(0);
            return make(new AllocaInst(
                const_cast<PointerType *>(pt)->pointee(), size));
          }
          case Opcode::Cast:
            requireOps(ops, 1);
            if (type->isVoid() || type->isLabel())
                fatal("cast to %s", type->str().c_str());
            return make(new CastInst(val(0), type));
          case Opcode::Call: {
            if (ops.empty())
                fatal("malformed call");
            std::vector<Value *> args;
            for (size_t i = 1; i < ops.size(); ++i)
                args.push_back(val(i));
            return make(new CallInst(type, val(0), args));
          }
          case Opcode::Phi: {
            if (ops.size() % 2 != 0)
                fatal("malformed phi");
            if (type->isVoid() || type->isLabel())
                fatal("phi of %s", type->str().c_str());
            auto p = make(new PhiNode(type));
            auto *phi = static_cast<PhiNode *>(p.get());
            for (size_t i = 0; i + 1 < ops.size(); i += 2)
                phi->addIncoming(val(i, type), block(i + 1));
            return p;
          }
        }
        fatal("bad opcode");
    }

    static void
    requireOps(const std::vector<uint32_t> &ops, size_t n)
    {
        if (ops.size() != n)
            fatal("instruction has %zu operands, expected %zu",
                  ops.size(), n);
    }

    ByteReader r_;
    std::unique_ptr<Module> m_;
    std::vector<TypeRecord> records_;
    std::vector<Type *> resolved_;
    std::vector<uint8_t> resolving_;
    std::set<std::string> seenNamedStructs_;
    std::map<uint32_t, ConstantUndef *> forwards_;
    std::vector<std::pair<GlobalVariable *, size_t>> pendingGlobals_;
};

} // namespace

Expected<std::unique_ptr<Module>>
readBytecode(const std::vector<uint8_t> &bytes)
{
    // Verify the integrity trailer before parsing a single record:
    // any flip or truncation anywhere in the file is caught here
    // with probability 1 - 2^-32, and the parser below only ever
    // sees payloads the producer actually wrote (its structural
    // checks remain as defense in depth).
    if (bytes.size() < 8 + kBytecodeTrailerSize)
        return Error("not an LLVA object file (too small)");
    size_t payload = bytes.size() - kBytecodeTrailerSize;
    uint32_t stored = 0;
    for (size_t i = 0; i < kBytecodeTrailerSize; ++i)
        stored |= static_cast<uint32_t>(bytes[payload + i]) << (8 * i);
    if (crc32(bytes.data(), payload) != stored)
        return Error("object file checksum mismatch (corrupt or "
                     "truncated)");

    ModuleReader reader(bytes.data(), payload);
    try {
        return reader.run();
    } catch (const FatalError &e) {
        reader.discard();
        return Error(e.what());
    }
}

} // namespace llva
