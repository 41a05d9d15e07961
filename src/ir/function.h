/**
 * @file
 * Function: a typed global symbol owning a CFG of basic blocks.
 */

#ifndef LLVA_IR_FUNCTION_H
#define LLVA_IR_FUNCTION_H

#include <list>
#include <memory>
#include <string>
#include <vector>

#include "ir/basic_block.h"
#include "ir/constant.h"
#include "ir/type.h"

namespace llva {

class Module;

/**
 * A function definition or declaration. The function's value type is
 * a pointer to its FunctionType, so functions can be passed and
 * called indirectly like any other pointer.
 *
 * A function that never had a basic block is a declaration: either
 * an external symbol resolved at (virtual) link time or one of the
 * LLVA intrinsics (paper Section 3.5), whose names start with "llva.".
 */
class Function : public Constant
{
  public:
    using BlockList = std::list<std::unique_ptr<BasicBlock>>;
    using iterator = BlockList::iterator;
    using const_iterator = BlockList::const_iterator;

    Function(FunctionType *fn_type, const std::string &name,
             Linkage linkage, Module *parent);
    ~Function() override;

    Module *parent() const { return parent_; }
    void setParent(Module *m) { parent_ = m; }

    FunctionType *functionType() const { return fnType_; }
    Type *returnType() const { return fnType_->returnType(); }
    Linkage linkage() const { return linkage_; }
    void setLinkage(Linkage l) { linkage_ = l; }

    /** Fixed when the first block arrives: no path turns a definition
     *  back into a declaration, so this stays false while body surgery
     *  (FunctionSnapshot::restoreInto) empties the block list, and an
     *  engine may read it without the code manager's lock. */
    bool isDeclaration() const { return !defined_; }

    /** LLVA intrinsic functions are declarations named "llva.*". */
    bool
    isIntrinsic() const
    {
        return name().rfind("llva.", 0) == 0;
    }

    // Arguments.
    size_t numArgs() const { return args_.size(); }
    Argument *arg(size_t i) const { return args_[i].get(); }
    const std::vector<std::unique_ptr<Argument>> &args() const
    {
        return args_;
    }

    // Blocks.
    bool empty() const { return blocks_.empty(); }
    size_t size() const { return blocks_.size(); }
    iterator begin() { return blocks_.begin(); }
    iterator end() { return blocks_.end(); }
    const_iterator begin() const { return blocks_.begin(); }
    const_iterator end() const { return blocks_.end(); }

    BasicBlock *
    entryBlock() const
    {
        LLVA_ASSERT(!blocks_.empty(), "declaration has no entry block");
        return blocks_.front().get();
    }

    /** Create and append a new basic block. */
    BasicBlock *createBlock(const std::string &name);

    /** Insert a new block after \p after. */
    BasicBlock *createBlockAfter(BasicBlock *after,
                                 const std::string &name);

    /** Remove and destroy \p bb (must have no users). */
    void eraseBlock(BasicBlock *bb);

    /** Move \p bb to the position before \p before (or end). */
    void moveBlockBefore(BasicBlock *bb, BasicBlock *before);

    /** Find a block by name (nullptr if absent). */
    BasicBlock *findBlock(const std::string &name) const;

    /**
     * Detach and return the whole block list (body surgery; see
     * FunctionSnapshot). The caller must have severed any def-use
     * edges it wants to survive; dropping the returned list destroys
     * the body.
     */
    BlockList takeBlocks();

    /** Append a detached block, taking ownership. */
    BasicBlock *adoptBlock(std::unique_ptr<BasicBlock> bb);

    /** Total instruction count across all blocks. */
    size_t instructionCount() const;

    /**
     * Assign unique printable names: unnamed values get %N slots,
     * duplicate names get numeric suffixes. Used by printer/bytecode.
     */
    void renumberValues();

    static bool
    classof(const Value *v)
    {
        return v->valueKind() == ValueKind::Function;
    }

  private:
    FunctionType *fnType_;
    Module *parent_;
    Linkage linkage_;
    std::vector<std::unique_ptr<Argument>> args_;
    BlockList blocks_;
    bool defined_ = false; ///< set with the first block, never cleared
};

/**
 * An order of one function's blocks, entry first. Trace layout hands
 * one to instruction selection, which emits the machine blocks in it
 * and leaves the function's own order alone.
 */
using BlockOrder = std::vector<const BasicBlock *>;

} // namespace llva

#endif // LLVA_IR_FUNCTION_H
