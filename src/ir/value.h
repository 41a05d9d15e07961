/**
 * @file
 * Value and User: the SSA def-use graph underlying LLVA.
 *
 * Every register in LLVA is an SSA value (paper Section 3.1: "an
 * infinite, typed register file where all registers are in Static
 * Single Assignment form"). Values track their users so transforms
 * can rewrite def-use chains (replaceAllUsesWith) in O(uses).
 */

#ifndef LLVA_IR_VALUE_H
#define LLVA_IR_VALUE_H

#include <cstdint>
#include <string>
#include <vector>

#include "support/casting.h"
#include "support/error.h"

namespace llva {

class Type;
class User;

/** Dynamic kind tag enabling cheap isa<>/dyn_cast<>. */
enum class ValueKind : uint8_t {
    Argument,
    BasicBlock,
    ConstantInt,
    ConstantFP,
    ConstantNull,
    ConstantUndef,
    ConstantAggregate,
    ConstantString,
    GlobalVariable,
    Function,
    Instruction,
};

/**
 * Base of everything that can appear as an instruction operand:
 * arguments, constants, globals, functions, basic blocks (branch
 * targets), and instruction results.
 */
class Value
{
  public:
    virtual ~Value();

    Value(const Value &) = delete;
    Value &operator=(const Value &) = delete;

    ValueKind valueKind() const { return vkind_; }
    Type *type() const { return type_; }

    const std::string &name() const { return name_; }
    void setName(const std::string &n) { name_ = n; }
    bool hasName() const { return !name_.empty(); }

    /**
     * All users of this value. A user appears once per operand slot
     * that references this value (so duplicates are possible).
     */
    const std::vector<User *> &users() const { return users_; }
    bool hasUses() const { return !users_.empty(); }
    size_t numUses() const { return users_.size(); }

    /** Rewrite every use of this value to use \p repl instead. */
    void replaceAllUsesWith(Value *repl);

    static bool classof(const Value *) { return true; }

  protected:
    Value(Type *type, ValueKind vkind)
        : type_(type), vkind_(vkind)
    {}

  private:
    friend class User;
    friend class Module; // its teardown forgets every use at once
    void addUser(User *u) { users_.push_back(u); }
    void removeUser(User *u);

    Type *type_;
    std::vector<User *> users_;
    std::string name_;
    ValueKind vkind_;
};

/**
 * A Value that references other Values through operand slots
 * (instructions and aggregate constants).
 */
class User : public Value
{
  public:
    ~User() override { dropAllOperands(); }

    size_t numOperands() const { return operands_.size(); }

    Value *
    operand(size_t i) const
    {
        LLVA_ASSERT(i < operands_.size(), "operand index out of range");
        return operands_[i];
    }

    const std::vector<Value *> &operands() const { return operands_; }

    /** Replace operand slot \p i, maintaining use lists. */
    void
    setOperand(size_t i, Value *v)
    {
        LLVA_ASSERT(i < operands_.size(), "operand index out of range");
        if (operands_[i])
            operands_[i]->removeUser(this);
        operands_[i] = v;
        if (v)
            v->addUser(this);
    }

    /** Clear all operand slots (used before deletion). */
    void
    dropAllOperands()
    {
        for (Value *v : operands_)
            if (v)
                v->removeUser(this);
        operands_.clear();
    }

    static bool
    classof(const Value *v)
    {
        return v->valueKind() == ValueKind::Instruction;
    }

  protected:
    User(Type *type, ValueKind vkind)
        : Value(type, vkind)
    {}

    /** Append an operand slot referencing \p v. */
    void
    addOperand(Value *v)
    {
        operands_.push_back(v);
        if (v)
            v->addUser(this);
    }

    /** Remove operand slot \p i entirely (shifts later slots down). */
    void
    removeOperand(size_t i)
    {
        LLVA_ASSERT(i < operands_.size(), "operand index out of range");
        if (operands_[i])
            operands_[i]->removeUser(this);
        operands_.erase(operands_.begin() +
                        static_cast<ptrdiff_t>(i));
    }

  private:
    friend class Module; // its teardown forgets every use at once
    std::vector<Value *> operands_;
};

/** A formal parameter of a Function. */
class Function;

class Argument : public Value
{
  public:
    Argument(Type *type, const std::string &name, Function *parent,
             unsigned index)
        : Value(type, ValueKind::Argument), parent_(parent),
          index_(index)
    {
        setName(name);
    }

    Function *parent() const { return parent_; }
    unsigned index() const { return index_; }

    static bool
    classof(const Value *v)
    {
        return v->valueKind() == ValueKind::Argument;
    }

  private:
    Function *parent_;
    unsigned index_;
};

} // namespace llva

#endif // LLVA_IR_VALUE_H
