/**
 * @file
 * Unit tests for the SSA value graph: use lists, RAUW, constants
 * interning, instruction construction/cloning, the 28-opcode set,
 * the ExceptionsEnabled defaults, and CFG surgery on basic blocks.
 */

#include <gtest/gtest.h>

#include "ir/ir_builder.h"
#include "ir/instructions.h"
#include "ir/module.h"

using namespace llva;

class IRTest : public ::testing::Test
{
  protected:
    IRTest()
        : m("t"), tc(m.types())
    {
        f = m.createFunction(tc.functionOf(tc.intTy(), {tc.intTy()}),
                             "f");
        entry = f->createBlock("entry");
    }

    Module m;
    TypeContext &tc;
    Function *f;
    BasicBlock *entry;
};

TEST_F(IRTest, OpcodeCountIsTwentyEight)
{
    EXPECT_EQ(kNumOpcodes, 28u);
    // Table 1's groups: 5 arithmetic, 5 bitwise, 6 comparison,
    // 5 control-flow, 4 memory, 3 other.
    EXPECT_STREQ(opcodeName(Opcode::Add), "add");
    EXPECT_STREQ(opcodeName(Opcode::Shr), "shr");
    EXPECT_STREQ(opcodeName(Opcode::SetGE), "setge");
    EXPECT_STREQ(opcodeName(Opcode::MBr), "mbr");
    EXPECT_STREQ(opcodeName(Opcode::Unwind), "unwind");
    EXPECT_STREQ(opcodeName(Opcode::GetElementPtr),
                 "getelementptr");
    EXPECT_STREQ(opcodeName(Opcode::Phi), "phi");
}

TEST_F(IRTest, ExceptionsEnabledDefaults)
{
    // Section 3.3: "true by default for load, store and div
    // instructions; false by default for all other operations."
    EXPECT_TRUE(defaultExceptionsEnabled(Opcode::Load));
    EXPECT_TRUE(defaultExceptionsEnabled(Opcode::Store));
    EXPECT_TRUE(defaultExceptionsEnabled(Opcode::Div));
    EXPECT_TRUE(defaultExceptionsEnabled(Opcode::Rem));
    EXPECT_FALSE(defaultExceptionsEnabled(Opcode::Add));
    EXPECT_FALSE(defaultExceptionsEnabled(Opcode::Mul));
    EXPECT_FALSE(defaultExceptionsEnabled(Opcode::Call));
    EXPECT_FALSE(defaultExceptionsEnabled(Opcode::Cast));
}

TEST_F(IRTest, UseListsTrackOperands)
{
    IRBuilder b(m, entry);
    Value *arg = f->arg(0);
    EXPECT_EQ(arg->numUses(), 0u);
    Value *x = b.add(arg, b.cInt(1), "x");
    EXPECT_EQ(arg->numUses(), 1u);
    Value *y = b.mul(arg, arg, "y");
    EXPECT_EQ(arg->numUses(), 3u); // one per operand slot
    b.ret(b.add(x, y));
    EXPECT_EQ(x->numUses(), 1u);
}

TEST_F(IRTest, ReplaceAllUsesWith)
{
    IRBuilder b(m, entry);
    Value *arg = f->arg(0);
    Value *x = b.add(arg, b.cInt(1), "x");
    Value *y = b.mul(x, x, "y");
    b.ret(y);

    Value *c = b.cInt(42);
    x->replaceAllUsesWith(c);
    EXPECT_EQ(x->numUses(), 0u);
    auto *mul = cast<BinaryOperator>(y);
    EXPECT_EQ(mul->lhs(), c);
    EXPECT_EQ(mul->rhs(), c);
}

TEST_F(IRTest, ConstantsAreInterned)
{
    EXPECT_EQ(m.constantInt(tc.intTy(), 7),
              m.constantInt(tc.intTy(), 7));
    EXPECT_NE(m.constantInt(tc.intTy(), 7),
              m.constantInt(tc.longTy(), 7));
    EXPECT_EQ(m.constantFP(tc.doubleTy(), 1.5),
              m.constantFP(tc.doubleTy(), 1.5));
    EXPECT_EQ(m.constantNull(tc.pointerTo(tc.intTy())),
              m.constantNull(tc.pointerTo(tc.intTy())));
    EXPECT_EQ(m.constantBool(true), m.constantBool(true));
}

TEST_F(IRTest, ConstantIntCanonicalization)
{
    // Negative value in a signed byte: stored sign-extended.
    ConstantInt *c = m.constantInt(tc.sbyteTy(), 0xff);
    EXPECT_EQ(c->sext(), -1);
    // Same bits in an unsigned byte: stored zero-extended.
    ConstantInt *u = m.constantInt(tc.ubyteTy(), 0xff);
    EXPECT_EQ(u->zext(), 255u);
    // Truncation on overflow.
    EXPECT_EQ(m.constantInt(tc.ubyteTy(), 0x1ff)->zext(), 255u);
}

TEST_F(IRTest, TerminatorClassification)
{
    IRBuilder b(m, entry);
    BasicBlock *other = f->createBlock("other");
    Instruction *br = b.br(other);
    EXPECT_TRUE(br->isTerminator());
    EXPECT_EQ(br->numSuccessors(), 1u);
    EXPECT_EQ(br->successor(0), other);

    b.setInsertPoint(other);
    Instruction *ret = b.ret(b.cInt(0));
    EXPECT_TRUE(ret->isTerminator());
    EXPECT_EQ(ret->numSuccessors(), 0u);
}

TEST_F(IRTest, ConditionalBranchSuccessors)
{
    IRBuilder b(m, entry);
    BasicBlock *t = f->createBlock("t");
    BasicBlock *e = f->createBlock("e");
    Value *c = b.setLT(f->arg(0), b.cInt(5), "c");
    Instruction *br = b.condBr(c, t, e);
    EXPECT_EQ(br->numSuccessors(), 2u);
    EXPECT_EQ(br->successor(0), t);
    EXPECT_EQ(br->successor(1), e);

    // Predecessors derive from the use lists.
    auto preds = t->predecessors();
    ASSERT_EQ(preds.size(), 1u);
    EXPECT_EQ(preds[0], entry);
}

TEST_F(IRTest, MBrCases)
{
    IRBuilder b(m, entry);
    BasicBlock *d = f->createBlock("default");
    BasicBlock *c1 = f->createBlock("c1");
    MBrInst *mbr = b.mbr(f->arg(0), d);
    mbr->addCase(m.constantInt(tc.intTy(), 1), c1);
    mbr->addCase(m.constantInt(tc.intTy(), 2), c1);
    EXPECT_EQ(mbr->numCases(), 2u);
    EXPECT_EQ(mbr->numSuccessors(), 3u);
    EXPECT_EQ(mbr->defaultDest(), d);
    EXPECT_EQ(mbr->caseValue(0)->sext(), 1);
    EXPECT_EQ(mbr->caseDest(1), c1);
    mbr->removeCase(0);
    EXPECT_EQ(mbr->numCases(), 1u);
    EXPECT_EQ(mbr->caseValue(0)->sext(), 2);
}

TEST_F(IRTest, GEPResultTypes)
{
    IRBuilder b(m, entry);
    StructType *qt = tc.namedStruct("struct.QuadTree", {});
    qt->setBody({tc.doubleTy(), tc.arrayOf(tc.pointerTo(qt), 4)});
    Value *p = b.alloca_(qt, nullptr, "t");

    // &T[0].Children[3]: %struct.QuadTree** result.
    Value *g = b.gep(p, {b.cLong(0), b.cUByte(1), b.cLong(3)});
    EXPECT_EQ(g->type(), tc.pointerTo(tc.pointerTo(qt)));

    // &T[0].Data: double*.
    Value *d = b.gep(p, {b.cLong(0), b.cUByte(0)});
    EXPECT_EQ(d->type(), tc.pointerTo(tc.doubleTy()));
}

TEST_F(IRTest, GEPRejectsBadIndices)
{
    IRBuilder b(m, entry);
    Value *p = b.alloca_(tc.intTy());
    EXPECT_THROW(b.gep(p, {b.cLong(0), b.cUByte(0)}), FatalError);
}

TEST_F(IRTest, PhiIncomingManagement)
{
    IRBuilder b(m, entry);
    BasicBlock *l = f->createBlock("l");
    BasicBlock *r = f->createBlock("r");
    BasicBlock *join = f->createBlock("join");
    b.condBr(b.setLT(f->arg(0), b.cInt(0)), l, r);
    b.setInsertPoint(l);
    b.br(join);
    b.setInsertPoint(r);
    b.br(join);
    b.setInsertPoint(join);
    PhiNode *phi = b.phi(tc.intTy(), "p");
    phi->addIncoming(b.cInt(1), l);
    phi->addIncoming(b.cInt(2), r);
    EXPECT_EQ(phi->numIncoming(), 2u);
    EXPECT_EQ(phi->incomingValueFor(l),
              static_cast<Value *>(b.cInt(1)));
    EXPECT_EQ(phi->incomingIndexFor(r), 1);
    phi->removeIncoming(0);
    EXPECT_EQ(phi->numIncoming(), 1u);
    EXPECT_EQ(phi->incomingBlock(0), r);
}

TEST_F(IRTest, CloneCopiesOperandsAndAttributes)
{
    IRBuilder b(m, entry);
    auto *load = cast<LoadInst>(
        b.load(b.alloca_(tc.intTy(), nullptr, "slot"), "v"));
    load->setExceptionsEnabled(false);
    Instruction *clone = load->clone();
    EXPECT_EQ(clone->opcode(), Opcode::Load);
    EXPECT_EQ(clone->operand(0), load->operand(0));
    EXPECT_FALSE(clone->exceptionsEnabled());
    clone->dropAllOperands();
    delete clone;
}

TEST_F(IRTest, EraseInstructionUpdatesUseLists)
{
    IRBuilder b(m, entry);
    Value *arg = f->arg(0);
    Instruction *x =
        cast<Instruction>(b.add(arg, b.cInt(1), "x"));
    EXPECT_EQ(arg->numUses(), 1u);
    x->eraseFromParent();
    EXPECT_EQ(arg->numUses(), 0u);
    EXPECT_TRUE(entry->empty());
}

TEST_F(IRTest, SplitBlockMovesTail)
{
    IRBuilder b(m, entry);
    Value *x = b.add(f->arg(0), b.cInt(1), "x");
    Instruction *y =
        cast<Instruction>(b.mul(x, x, "y"));
    b.ret(cast<Instruction>(y));

    BasicBlock *tail = entry->splitBefore(y, "tail");
    EXPECT_EQ(entry->size(), 2u); // add + br
    EXPECT_EQ(tail->size(), 2u);  // mul + ret
    EXPECT_EQ(entry->terminator()->successor(0), tail);
    EXPECT_EQ(y->parent(), tail);
}

TEST_F(IRTest, DefinitionStaysDefinedWhileItsBodyIsTaken)
{
    // Body surgery (FunctionSnapshot::restoreInto) empties the block
    // list for an instant; engines read isDeclaration() without a
    // lock, so it must not flicker.
    IRBuilder b(m, entry);
    b.ret(f->arg(0));
    Function::BlockList body = f->takeBlocks();
    EXPECT_TRUE(f->empty());
    EXPECT_FALSE(f->isDeclaration());
    for (auto &bb : body)
        f->adoptBlock(std::move(bb));
    EXPECT_FALSE(f->isDeclaration());

    Function *ext =
        m.createFunction(tc.functionOf(tc.intTy(), {}), "ext");
    EXPECT_TRUE(ext->isDeclaration());
}

TEST_F(IRTest, FunctionValueIsPointerToFunctionType)
{
    auto *pt = cast<PointerType>(f->type());
    EXPECT_TRUE(pt->pointee()->isFunction());
    EXPECT_EQ(cast<FunctionType>(pt->pointee())->returnType(),
              tc.intTy());
}

TEST_F(IRTest, IntrinsicNameDetection)
{
    Function *intr = m.createFunction(
        tc.functionOf(tc.voidTy(), {}), "llva.os.set.privileged");
    EXPECT_TRUE(intr->isIntrinsic());
    EXPECT_FALSE(f->isIntrinsic());
}

TEST_F(IRTest, ModuleLookupAndCounts)
{
    EXPECT_EQ(m.getFunction("f"), f);
    EXPECT_EQ(m.getFunction("nope"), nullptr);
    IRBuilder b(m, entry);
    b.ret(b.cInt(0));
    EXPECT_EQ(m.instructionCount(), 1u);
}

TEST_F(IRTest, GlobalVariables)
{
    GlobalVariable *g = m.createGlobal(
        tc.intTy(), "g", m.constantInt(tc.intTy(), 5), false);
    EXPECT_EQ(g->containedType(), tc.intTy());
    EXPECT_EQ(g->type(), tc.pointerTo(tc.intTy()));
    EXPECT_EQ(m.getGlobal("g"), g);
    auto *init = cast<ConstantInt>(g->initializer());
    EXPECT_EQ(init->sext(), 5);
}

TEST_F(IRTest, ConstantStrings)
{
    ConstantString *s = m.constantString("hi");
    EXPECT_EQ(s->data(), std::string("hi\0", 3));
    EXPECT_EQ(s->type(), tc.arrayOf(tc.ubyteTy(), 3));
    ConstantString *raw = m.constantString("hi", false);
    EXPECT_EQ(raw->data().size(), 2u);
}

TEST_F(IRTest, MayTrapFollowsAttribute)
{
    IRBuilder b(m, entry);
    auto *div = cast<Instruction>(
        b.div(f->arg(0), b.cInt(3), "d"));
    EXPECT_TRUE(div->mayTrap());
    div->setExceptionsEnabled(false);
    EXPECT_FALSE(div->mayTrap());
    auto *add = cast<Instruction>(
        b.add(f->arg(0), b.cInt(3), "a"));
    EXPECT_FALSE(add->mayTrap());
}

TEST_F(IRTest, CastBuilderSkipsNoop)
{
    IRBuilder b(m, entry);
    Value *v = f->arg(0);
    EXPECT_EQ(b.cast_(v, tc.intTy()), v);
    EXPECT_NE(b.cast_(v, tc.longTy()), v);
}
