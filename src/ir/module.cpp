#include "ir/module.h"

#include <sstream>

#include "ir/instructions.h"

namespace llva {

Module::Module(const std::string &name)
    : name_(name)
{}

Module::~Module()
{
    // Functions/globals may reference each other (calls, global
    // references), so every def-use edge must go before anything
    // dies. Both ends of each edge die here, so forget them all in
    // one pass rather than unlinking each operand from its value's
    // use list, a search per use of every shared constant, global
    // and callee. Forward-reference placeholders of a failed parse
    // or read are released by their owners first; an edge to or
    // from any other value outside the module shows as a mismatch
    // between the operands and the uses forgotten.
    size_t operands = 0, uses = 0;
    auto forgetUses = [&uses](Value *v) {
        uses += v->users_.size();
        v->users_.clear();
    };
    for (auto &f : functions_) {
        forgetUses(f.get());
        for (auto &arg : f->args())
            forgetUses(arg.get());
        for (auto &bb : *f) {
            forgetUses(bb.get());
            for (auto &inst : *bb) {
                User *u = inst.get();
                for (Value *v : u->operands_)
                    operands += v != nullptr;
                u->operands_.clear();
                forgetUses(u);
            }
        }
    }
    for (auto &g : globals_)
        forgetUses(g.get());
    for (auto &c : ownedConstants_)
        forgetUses(c.get());
    for (auto &c : ownedAggregates_)
        forgetUses(c.get());
    LLVA_ASSERT(operands == uses,
                "module '%s' torn down with %zu operands but %zu uses: "
                "a def-use edge crosses the module boundary",
                name_.c_str(), operands, uses);
}

Function *
Module::createFunction(FunctionType *type, const std::string &name,
                       Linkage linkage)
{
    LLVA_ASSERT(!getFunction(name), "duplicate function %%%s",
                name.c_str());
    auto f = std::make_unique<Function>(type, name, linkage, this);
    functions_.push_back(std::move(f));
    return functions_.back().get();
}

Function *
Module::getFunction(const std::string &name) const
{
    for (const auto &f : functions_)
        if (f->name() == name)
            return f.get();
    return nullptr;
}

Function *
Module::getOrInsertFunction(const std::string &name, FunctionType *type)
{
    if (Function *f = getFunction(name)) {
        LLVA_ASSERT(f->functionType() == type,
                    "function %%%s redeclared with different type",
                    name.c_str());
        return f;
    }
    return createFunction(type, name);
}

GlobalVariable *
Module::createGlobal(Type *contained, const std::string &name,
                     Constant *init, bool is_constant, Linkage linkage)
{
    LLVA_ASSERT(!getGlobal(name), "duplicate global %%%s", name.c_str());
    auto gv = std::make_unique<GlobalVariable>(
        types_.pointerTo(contained), name, init, is_constant, linkage);
    globals_.push_back(std::move(gv));
    return globals_.back().get();
}

GlobalVariable *
Module::getGlobal(const std::string &name) const
{
    for (const auto &g : globals_)
        if (g->name() == name)
            return g.get();
    return nullptr;
}

ConstantInt *
Module::constantInt(Type *type, uint64_t bits)
{
    LLVA_ASSERT(type->isInteger() || type->isBool(),
                "constantInt of non-integer type %s",
                type->str().c_str());
    // Canonicalize to the type's width (sign- or zero-extended).
    unsigned width = type->integerBitWidth();
    if (width < 64) {
        uint64_t mask = (1ull << width) - 1;
        bits &= mask;
        if (type->isSignedInteger() && (bits >> (width - 1)) & 1)
            bits |= ~mask;
    }
    auto key = std::make_pair(type, bits);
    auto it = intConsts_.find(key);
    if (it != intConsts_.end())
        return it->second;
    auto *c = new ConstantInt(type, bits);
    ownedConstants_.emplace_back(c);
    intConsts_[key] = c;
    return c;
}

ConstantInt *
Module::constantBool(bool b)
{
    return constantInt(types_.boolTy(), b ? 1 : 0);
}

ConstantFP *
Module::constantFP(Type *type, double value)
{
    LLVA_ASSERT(type->isFloatingPoint(), "constantFP of non-FP type");
    if (type->kind() == TypeKind::Float)
        value = static_cast<float>(value);
    auto key = std::make_pair(type, value);
    auto it = fpConsts_.find(key);
    if (it != fpConsts_.end())
        return it->second;
    auto *c = new ConstantFP(type, value);
    ownedConstants_.emplace_back(c);
    fpConsts_[key] = c;
    return c;
}

ConstantNull *
Module::constantNull(PointerType *type)
{
    auto it = nullConsts_.find(type);
    if (it != nullConsts_.end())
        return it->second;
    auto *c = new ConstantNull(type);
    ownedConstants_.emplace_back(c);
    nullConsts_[type] = c;
    return c;
}

ConstantUndef *
Module::constantUndef(Type *type)
{
    auto it = undefConsts_.find(type);
    if (it != undefConsts_.end())
        return it->second;
    auto *c = new ConstantUndef(type);
    ownedConstants_.emplace_back(c);
    undefConsts_[type] = c;
    return c;
}

ConstantAggregate *
Module::constantAggregate(Type *type, std::vector<Constant *> elems)
{
    auto agg =
        std::make_unique<ConstantAggregate>(type, std::move(elems));
    ownedAggregates_.push_back(std::move(agg));
    return ownedAggregates_.back().get();
}

ConstantString *
Module::constantString(const std::string &data, bool nul)
{
    std::string bytes = data;
    if (nul)
        bytes.push_back('\0');
    auto *type = types_.arrayOf(types_.ubyteTy(), bytes.size());
    auto *c = new ConstantString(type, bytes);
    ownedConstants_.emplace_back(c);
    return c;
}

Constant *
Module::zeroOf(Type *type)
{
    if (type->isInteger() || type->isBool())
        return constantInt(type, 0);
    if (type->isFloatingPoint())
        return constantFP(type, 0.0);
    if (auto *pt = dyn_cast<PointerType>(type))
        return constantNull(const_cast<PointerType *>(pt));
    panic("zeroOf: type %s has no zero constant", type->str().c_str());
}

size_t
Module::instructionCount() const
{
    size_t n = 0;
    for (const auto &f : functions_)
        n += f->instructionCount();
    return n;
}

std::string
Module::str() const
{
    std::ostringstream os;
    print(os);
    return os.str();
}

} // namespace llva
