#include <map>
#include <set>

#include "analysis/dominators.h"
#include "bytecode/bytecode.h"
#include "ir/instructions.h"
#include "support/byte_io.h"
#include "support/hashing.h"

namespace llva {

namespace {

/** Type table: assigns dense indices; handles recursive structs. */
class TypeTableWriter
{
  public:
    uint32_t
    index(Type *t)
    {
        auto it = indices_.find(t);
        if (it != indices_.end())
            return it->second;
        // Assign the index before visiting children so recursive
        // structs terminate.
        uint32_t idx = static_cast<uint32_t>(records_.size());
        indices_[t] = idx;
        records_.emplace_back();
        ByteWriter payload;
        payload.writeByte(static_cast<uint8_t>(t->kind()));
        switch (t->kind()) {
          case TypeKind::Pointer:
            payload.writeVaruint(index(cast<PointerType>(t)->pointee()));
            break;
          case TypeKind::Array: {
            auto *at = cast<ArrayType>(t);
            payload.writeVaruint(index(at->element()));
            payload.writeVaruint(at->numElements());
            break;
          }
          case TypeKind::Struct: {
            auto *st = cast<StructType>(t);
            payload.writeString(st->name());
            payload.writeVaruint(st->numFields());
            for (Type *f : st->fields())
                payload.writeVaruint(index(f));
            break;
          }
          case TypeKind::Function: {
            auto *ft = cast<FunctionType>(t);
            payload.writeVaruint(index(ft->returnType()));
            payload.writeVaruint(ft->numParams());
            for (Type *p : ft->paramTypes())
                payload.writeVaruint(index(p));
            payload.writeByte(ft->isVarArg() ? 1 : 0);
            break;
          }
          default:
            break; // primitives: kind byte only
        }
        records_[idx] = payload.takeBytes();
        return idx;
    }

    void
    emit(ByteWriter &out)
    {
        out.writeVaruint(records_.size());
        for (const auto &rec : records_)
            out.writeBytes(rec.data(), rec.size());
    }

  private:
    std::map<Type *, uint32_t> indices_;
    std::vector<std::vector<uint8_t>> records_;
};

// Constant encoding tags.
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

class ModuleWriter
{
  public:
    explicit ModuleWriter(const Module &m)
        : m_(m)
    {}

    std::vector<uint8_t>
    run(BytecodeStats *stats)
    {
        // Header.
        out_.writeByte('L');
        out_.writeByte('L');
        out_.writeByte('V');
        out_.writeByte('A');
        out_.writeByte(kBytecodeVersion);
        out_.writeByte(static_cast<uint8_t>(m_.pointerSize()));
        out_.writeByte(m_.targetFlags().bigEndian ? 1 : 0);
        out_.writeByte(static_cast<uint8_t>(m_.optimizationLevel()));
        out_.writeString(m_.name());

        // Type table: pre-index every type the module mentions, then
        // emit. (index() is called during global/function encoding
        // too, so collect first via a dry pass over signatures.)
        ByteWriter globals = encodeGlobals();
        ByteWriter funcTable, bodies;
        encodeFunctions(funcTable, bodies);

        size_t typeStart = out_.size();
        types_.emit(out_);
        size_t typeEnd = out_.size();

        out_.writeBytes(globals.bytes().data(), globals.size());
        size_t globalEnd = out_.size();
        out_.writeBytes(funcTable.bytes().data(), funcTable.size());
        out_.writeBytes(bodies.bytes().data(), bodies.size());

        // Integrity trailer: crc32 over every byte written so far.
        // The reader verifies this before trusting any record.
        out_.writeU32(crc32(out_.bytes()));

        if (stats) {
            stats->totalBytes = out_.size();
            stats->typeTableBytes = typeEnd - typeStart;
            stats->globalBytes = globalEnd - typeEnd;
            stats->instructionWords32 = words32_;
            stats->instructionsExtended = extended_;
            stats->instructionBytes = instBytes_;
        }
        return out_.takeBytes();
    }

  private:
    ByteWriter
    encodeGlobals()
    {
        ByteWriter w;
        w.writeVaruint(m_.globals().size());
        for (const auto &gv : m_.globals()) {
            w.writeString(gv->name());
            w.writeVaruint(types_.index(gv->containedType()));
            uint8_t flags = (gv->isConstant() ? 1 : 0) |
                            (gv->linkage() == Linkage::Internal ? 2 : 0);
            w.writeByte(flags);
            if (gv->initializer()) {
                w.writeByte(1);
                encodeConstant(w, gv->initializer());
            } else {
                w.writeByte(0);
            }
        }
        return w;
    }

    void
    encodeConstant(ByteWriter &w, const Constant *c)
    {
        if (auto *ci = dyn_cast<ConstantInt>(c)) {
            w.writeByte(kConstInt);
            w.writeVaruint(types_.index(ci->type()));
            w.writeVarint(ci->sext());
        } else if (auto *cf = dyn_cast<ConstantFP>(c)) {
            w.writeByte(kConstFP);
            w.writeVaruint(types_.index(cf->type()));
            w.writeDouble(cf->value());
        } else if (isa<ConstantNull>(c)) {
            w.writeByte(kConstNull);
            w.writeVaruint(types_.index(c->type()));
        } else if (isa<ConstantUndef>(c)) {
            w.writeByte(kConstUndef);
            w.writeVaruint(types_.index(c->type()));
        } else if (auto *cs = dyn_cast<ConstantString>(c)) {
            w.writeByte(kConstString);
            w.writeString(cs->data());
        } else if (auto *ca = dyn_cast<ConstantAggregate>(c)) {
            w.writeByte(kConstAggregate);
            w.writeVaruint(types_.index(ca->type()));
            w.writeVaruint(ca->numElements());
            for (size_t i = 0; i < ca->numElements(); ++i)
                encodeConstant(w, ca->element(i));
        } else if (auto *f = dyn_cast<Function>(c)) {
            w.writeByte(kConstFunctionRef);
            w.writeString(f->name());
        } else if (auto *g = dyn_cast<GlobalVariable>(c)) {
            w.writeByte(kConstGlobalRef);
            w.writeString(g->name());
        } else {
            panic("unencodable constant");
        }
    }

    void
    encodeFunctions(ByteWriter &table, ByteWriter &bodies)
    {
        table.writeVaruint(m_.functions().size());
        for (const auto &f : m_.functions()) {
            table.writeString(f->name());
            table.writeVaruint(types_.index(f->functionType()));
            uint8_t flags =
                (f->linkage() == Linkage::Internal ? 1 : 0) |
                (f->isDeclaration() ? 0 : 2);
            table.writeByte(flags);
        }
        for (const auto &f : m_.functions())
            if (!f->isDeclaration())
                encodeBody(bodies, *f);
    }

    void
    encodeBody(ByteWriter &w, const Function &f)
    {
        // Block layout: RPO first, then unreachable blocks.
        std::vector<BasicBlock *> layout =
            reversePostOrder(f);
        {
            std::set<BasicBlock *> reach(layout.begin(), layout.end());
            for (const auto &bb : f)
                if (!reach.count(bb.get()))
                    layout.push_back(bb.get());
        }

        // Value numbering: args, blocks, pool constants, results.
        std::map<const Value *, uint32_t> ids;
        uint32_t next = 0;
        for (size_t i = 0; i < f.numArgs(); ++i)
            ids[f.arg(i)] = next++;
        for (BasicBlock *bb : layout)
            ids[bb] = next++;

        // Constant pool: module-level values and literals used as
        // operands, in first-use order.
        std::vector<const Constant *> pool;
        for (BasicBlock *bb : layout) {
            for (const auto &inst : *bb) {
                for (size_t i = 0; i < inst->numOperands(); ++i) {
                    const Value *op = inst->operand(i);
                    auto *c = dyn_cast<Constant>(op);
                    if (c && !ids.count(op)) {
                        ids[op] = next++;
                        pool.push_back(c);
                    }
                }
            }
        }

        uint32_t firstResultId = next;
        for (BasicBlock *bb : layout)
            for (const auto &inst : *bb)
                if (!inst->type()->isVoid())
                    ids[inst.get()] = next++;

        w.writeVaruint(layout.size());
        w.writeVaruint(pool.size());
        for (const Constant *c : pool)
            encodeConstant(w, c);

        uint32_t decoded_results = firstResultId;
        for (BasicBlock *bb : layout) {
            w.writeVaruint(bb->size());
            for (const auto &inst : *bb) {
                encodeInstruction(w, inst.get(), ids, decoded_results);
                if (!inst->type()->isVoid())
                    ++decoded_results;
            }
        }
    }

    void
    encodeInstruction(ByteWriter &w, const Instruction *inst,
                      const std::map<const Value *, uint32_t> &ids,
                      uint32_t defined_limit)
    {
        size_t start = w.size();
        std::vector<uint32_t> ops;
        for (size_t i = 0; i < inst->numOperands(); ++i) {
            auto it = ids.find(inst->operand(i));
            LLVA_ASSERT(it != ids.end(), "operand not numbered");
            uint32_t id = it->second;
            if (id >= defined_limit && !isa<PhiNode>(inst) &&
                !inst->operand(i)->type()->isLabel() &&
                isa<Instruction>(inst->operand(i)))
                fatal("bytecode: non-phi forward reference in %%%s "
                      "(run simplifycfg to remove unreachable code)",
                      inst->function()->name().c_str());
            ops.push_back(id);
        }

        uint32_t typeIdx = types_.index(inst->type());
        uint8_t opcode = static_cast<uint8_t>(inst->opcode());
        bool ee_override = inst->exceptionsEnabled() !=
                           defaultExceptionsEnabled(inst->opcode());
        // Every instruction's reconstruction is implied by its result
        // type and operands (alloca's allocated type is the result
        // pointer's pointee; cast's destination is the result type).
        if (opcode >= 32)
            panic("opcode exceeds encoding space");
        uint8_t opfield = opcode | (ee_override ? 0x20 : 0);

        // Try the fixed 32-bit formats: byte 0 is
        // [fmt:2][opcode+ee:6], byte 1 the result type index, bytes
        // 2-3 the packed operand ids.
        auto fitsType = typeIdx <= 0xff;
        bool emitted = false;
        auto word32 = [&](unsigned fmt, uint32_t tail16) {
            w.writeByte(static_cast<uint8_t>((fmt << 6) | opfield));
            w.writeByte(static_cast<uint8_t>(typeIdx));
            w.writeByte(static_cast<uint8_t>(tail16 >> 8));
            w.writeByte(static_cast<uint8_t>(tail16));
            emitted = true;
        };
        if (fitsType) {
            if (ops.size() == 1 && ops[0] <= 0xfffe) {
                word32(1, ops[0]);
            } else if (ops.size() == 2 && ops[0] <= 0xff &&
                       ops[1] <= 0xff) {
                word32(2, (ops[0] << 8) | ops[1]);
            } else if (ops.size() == 3 && ops[0] <= 0x1f &&
                       ops[1] <= 0x1f && ops[2] <= 0x3f) {
                word32(3,
                       (ops[0] << 11) | (ops[1] << 6) | ops[2]);
            } else if (ops.empty()) {
                word32(1, 0xffff);
            }
        }
        if (emitted) {
            ++words32_;
        } else {
            // Self-extending form: a one-byte header (fmt 0)
            // followed by varint type, count, and operand ids.
            w.writeByte(opfield);
            w.writeVaruint(typeIdx);
            w.writeVaruint(ops.size());
            for (uint32_t id : ops)
                w.writeVaruint(id);
            ++extended_;
        }
        instBytes_ += w.size() - start;
    }

    const Module &m_;
    ByteWriter out_;
    TypeTableWriter types_;
    size_t words32_ = 0;
    size_t extended_ = 0;
    size_t instBytes_ = 0;
};

} // namespace

std::vector<uint8_t>
writeBytecode(const Module &m)
{
    return ModuleWriter(m).run(nullptr);
}

BytecodeStats
measureBytecode(const Module &m)
{
    BytecodeStats stats;
    ModuleWriter(m).run(&stats);
    return stats;
}

} // namespace llva
