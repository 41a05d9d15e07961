/**
 * @file
 * Fault containment and tiered degradation: the translation rung as
 * the one failure domain (a pass that faults, blows its budget or
 * breaks the IR ends its rung, which restores its snapshot and warns
 * with the pass, the function and the cause), the -O2 -> -O1 -> -O0
 * -> interpreter ladder, the envelope-cached achieved tier, the
 * verify-each and -opt-bisect-limit localization aids, and the
 * AnalysisManager preservation audit. Faults are injected through
 * the TranslationHooks test seams and deliberately broken test-only
 * passes; in every case the program must finish with output
 * byte-identical to the fault-free run.
 */

#include <gtest/gtest.h>

#include <functional>

#include "bytecode/bytecode.h"
#include "ir/instructions.h"
#include "llee/llee.h"
#include "parser/parser.h"
#include "support/statistic.h"
#include "transforms/pass.h"
#include "verifier/verifier.h"
#include "vm/interpreter.h"
#include "vm/machine_sim.h"

using namespace llva;

namespace {

const char *kProgram = R"(
declare void %putint(long %v)
internal int %helper(int %x) {
entry:
    %a = mul int %x, 3
    %b = add int %a, 4
    ret int %b
}
int %main() {
entry:
    %a = call int %helper(int 5)
    %b = call int %helper(int 7)
    %s = add int %a, %b
    %l = cast int %s to long
    call void %putint(long %l)
    ret int %s
}
)";

std::unique_ptr<Module>
parseProgram()
{
    auto m = parseAssembly(kProgram).orDie();
    verifyOrDie(*m);
    return m;
}

struct Baseline
{
    uint64_t value;
    std::string output;
};

Baseline
interpret(Module &m)
{
    ExecutionContext ctx(m);
    Interpreter interp(ctx);
    auto r = interp.run(m.getFunction("main"));
    EXPECT_TRUE(r.ok());
    return {r.value.i, ctx.output()};
}

/** Throws (a pass bug) when visiting the targeted function. */
class FaultPass : public FunctionPass
{
  public:
    explicit FaultPass(std::string only = "")
        : only_(std::move(only))
    {}

    PassResult
    run(Function &f, AnalysisManager &) override
    {
        if (only_.empty() || f.name() == only_)
            fatal("injected fault visiting %s", f.name().c_str());
        return PassResult::unchanged();
    }

    const char *name() const override { return "inject-fault"; }

  private:
    std::string only_;
};

/** Mutates the function, then throws: tests snapshot restore. */
class MutateThenThrowPass : public FunctionPass
{
  public:
    PassResult
    run(Function &f, AnalysisManager &) override
    {
        BasicBlock *bb = f.entryBlock();
        Module &m = *f.parent();
        ConstantInt *one = m.constantInt(m.types().intTy(), 1);
        bb->insertBefore(bb->terminator(),
                         std::unique_ptr<Instruction>(
                             new BinaryOperator(Opcode::Add, one,
                                                one)));
        fatal("fault after mutating %s", f.name().c_str());
    }

    const char *name() const override { return "mutate-throw"; }
};

/** Appends \p count dead instructions (exercises the IR budget). */
class BloatPass : public FunctionPass
{
  public:
    explicit BloatPass(size_t count)
        : count_(count)
    {}

    PassResult
    run(Function &f, AnalysisManager &) override
    {
        BasicBlock *bb = f.entryBlock();
        Module &m = *f.parent();
        ConstantInt *one = m.constantInt(m.types().intTy(), 1);
        for (size_t i = 0; i < count_; ++i)
            bb->insertBefore(bb->terminator(),
                             std::unique_ptr<Instruction>(
                                 new BinaryOperator(Opcode::Add, one,
                                                    one)));
        return PassResult::modified(PreservedAnalyses::all());
    }

    const char *name() const override { return "bloat"; }

  private:
    size_t count_;
};

/** Deletes the entry terminator: leaves verifiably broken IR. */
class CorruptIRPass : public FunctionPass
{
  public:
    PassResult
    run(Function &f, AnalysisManager &) override
    {
        BasicBlock *bb = f.entryBlock();
        bb->erase(bb->terminator());
        return PassResult::modified(PreservedAnalyses::none());
    }

    const char *name() const override { return "corrupt-ir"; }
};

/** Adds 1 to main's return value: a deterministic miscompile. */
class BreakSemanticsPass : public FunctionPass
{
  public:
    PassResult
    run(Function &f, AnalysisManager &) override
    {
        Module &m = *f.parent();
        bool changed = false;
        for (auto &bb : f) {
            auto *ret = dyn_cast<ReturnInst>(bb->terminator());
            if (!ret || !ret->returnValue())
                continue;
            Value *v = ret->returnValue();
            if (v->type() != m.types().intTy())
                continue;
            Instruction *bump = bb->insertBefore(
                ret, std::unique_ptr<Instruction>(new BinaryOperator(
                         Opcode::Add, v,
                         m.constantInt(m.types().intTy(), 1))));
            ret->setOperand(0, bump);
            changed = true;
        }
        return changed
                   ? PassResult::modified(PreservedAnalyses::all())
                   : PassResult::unchanged();
    }

    const char *name() const override { return "break-semantics"; }
};

/** Rewires the CFG but lies that it preserved everything. */
class LyingPass : public FunctionPass
{
  public:
    PassResult
    run(Function &f, AnalysisManager &) override
    {
        BasicBlock *entry = f.entryBlock();
        auto *br = dyn_cast<BranchInst>(entry->terminator());
        if (!br || !br->isConditional())
            return PassResult::unchanged();
        BasicBlock *taken = br->target(0);
        entry->erase(br);
        entry->append(std::unique_ptr<Instruction>(
            new BranchInst(f.parent()->types(), taken)));
        // The CFG changed (one block went unreachable), so any
        // cached DominatorTree is stale — yet we claim otherwise.
        return PassResult::modified(PreservedAnalyses::all());
    }

    const char *name() const override { return "lying-pass"; }
};

/** Counts its applications and changes nothing. */
class CountingPass : public FunctionPass
{
  public:
    explicit CountingPass(size_t &count)
        : count_(count)
    {}

    PassResult
    run(Function &, AnalysisManager &) override
    {
        ++count_;
        return PassResult::unchanged();
    }

    const char *name() const override { return "count"; }

  private:
    size_t &count_;
};

/** What translating kProgram at -O2 with an extended pipeline did. */
struct RungOutcome
{
    std::string warnings; ///< stderr printed while translating
    uint8_t helperTier = 0;
    uint8_t mainTier = 0;
    Baseline run; ///< main, run on the installed translations
};

/**
 * Translate every function of \p m on a CodeManager at -O2 whose
 * extendPipeline hook is \p extend, capturing the rungs' warnings,
 * then run main on what the ladder installed.
 */
RungOutcome
translateAtO2(Module &m,
              std::function<void(PassManager &, unsigned)> extend)
{
    CodeGenOptions opts;
    opts.optLevel = 2;
    CodeManager cm(*getTarget("sparc"), opts);
    TranslationHooks hooks;
    hooks.extendPipeline = std::move(extend);
    cm.setHooks(hooks);

    RungOutcome out;
    testing::internal::CaptureStderr();
    cm.translateAll(m);
    out.warnings = testing::internal::GetCapturedStderr();
    out.helperTier = cm.tierOf(m.getFunction("helper"));
    out.mainTier = cm.tierOf(m.getFunction("main"));

    ExecutionContext ctx(m);
    MachineSimulator sim(ctx, cm);
    auto r = sim.run(m.getFunction("main"));
    EXPECT_TRUE(r.ok()) << trapKindName(r.trap);
    out.run = {r.value.i, ctx.output()};
    return out;
}

} // namespace

// --- A pass failure costs its rung -------------------------------------

TEST(Sandbox, ContainsThrowingPassAndRestoresIR)
{
    // A pass that mutates the body and then throws costs each
    // function its -O2 rung: the rung restores its snapshot and warns
    // with the pass, the function and the cause; -O1 is installed.
    auto m = parseProgram();
    Baseline ref = interpret(*m);
    std::string before = m->str();
    uint64_t contained = stats::value("passes.contained_failures");

    RungOutcome o = translateAtO2(*m, [](PassManager &pm, unsigned level) {
        if (level == 2)
            pm.add(std::make_unique<MutateThenThrowPass>());
    });

    EXPECT_NE(o.warnings.find("translating 'helper' at -O2: pass "
                              "'mutate-throw' failed on function "
                              "'helper': fault after mutating helper"),
              std::string::npos)
        << o.warnings;
    EXPECT_EQ(stats::value("passes.contained_failures"),
              contained + 2); // helper + main
    EXPECT_EQ(o.helperTier, 1);
    EXPECT_EQ(o.mainTier, 1);
    EXPECT_EQ(m->str(), before);
    EXPECT_EQ(o.run.value, ref.value);
    EXPECT_EQ(o.run.output, ref.output);
}

TEST(Sandbox, RestoreIsByteExactWhenEveryPassFails)
{
    // The failing pass is in every rung's pipeline, so every rung
    // fails and both functions end on the interpreter. Each rung's
    // restore leaves the module identical down to value names.
    auto m = parseProgram();
    Baseline ref = interpret(*m);
    std::string before = m->str();
    uint64_t contained = stats::value("passes.contained_failures");

    RungOutcome o = translateAtO2(*m, [](PassManager &pm, unsigned) {
        pm.add(std::make_unique<MutateThenThrowPass>());
    });

    EXPECT_NE(o.warnings.find("translating 'main' at -O0: pass "
                              "'mutate-throw' failed on function "
                              "'main': fault after mutating main"),
              std::string::npos)
        << o.warnings;
    EXPECT_EQ(stats::value("passes.contained_failures"),
              contained + 6); // 2 functions x 3 rungs
    EXPECT_EQ(o.helperTier, kTierInterpreter);
    EXPECT_EQ(o.mainTier, kTierInterpreter);
    EXPECT_EQ(m->str(), before);
    EXPECT_EQ(o.run.value, ref.value);
    EXPECT_EQ(o.run.output, ref.output);
}

TEST(Sandbox, GrowthBudgetRollsBackBloat)
{
    auto m = parseProgram();
    Baseline ref = interpret(*m);
    std::string before = m->str();
    uint64_t contained = stats::value("passes.contained_failures");
    uint64_t exceeded = stats::value("passes.budget_exceeded");

    RungOutcome o = translateAtO2(*m, [](PassManager &pm, unsigned level) {
        if (level != 2)
            return;
        PassBudget budget;
        budget.maxGrowth = 1.5;
        budget.growthFloor = 4;
        pm.setBudget(budget);
        pm.add(std::make_unique<BloatPass>(100));
    });

    EXPECT_NE(o.warnings.find("translating 'helper' at -O2: pass "
                              "'bloat' on function 'helper' exceeded "
                              "its budget: grew"),
              std::string::npos)
        << o.warnings;
    EXPECT_EQ(stats::value("passes.contained_failures"), contained + 2);
    EXPECT_EQ(stats::value("passes.budget_exceeded"), exceeded + 2);
    EXPECT_EQ(o.helperTier, 1);
    EXPECT_EQ(o.mainTier, 1);
    EXPECT_EQ(m->str(), before);
    EXPECT_EQ(o.run.value, ref.value);
    EXPECT_EQ(o.run.output, ref.output);
}

TEST(Sandbox, WallClockBudgetRollsBackSlowPass)
{
    // Against a zero wall-clock budget every pass is too slow, so the
    // first application of the -O2 pipeline (mem2reg) fails its rung.
    auto m = parseProgram();
    Baseline ref = interpret(*m);
    std::string before = m->str();
    uint64_t contained = stats::value("passes.contained_failures");
    uint64_t exceeded = stats::value("passes.budget_exceeded");

    RungOutcome o = translateAtO2(*m, [](PassManager &pm, unsigned level) {
        if (level != 2)
            return;
        PassBudget budget;
        budget.maxSeconds = 0.0; // any measurable time exceeds this
        pm.setBudget(budget);
    });

    EXPECT_NE(o.warnings.find("translating 'helper' at -O2: pass "
                              "'mem2reg' on function 'helper' exceeded "
                              "its budget: "),
              std::string::npos)
        << o.warnings;
    EXPECT_NE(o.warnings.find("wall clock"), std::string::npos)
        << o.warnings;
    EXPECT_EQ(stats::value("passes.contained_failures"), contained + 2);
    EXPECT_EQ(stats::value("passes.budget_exceeded"), exceeded + 2);
    EXPECT_EQ(o.helperTier, 1);
    EXPECT_EQ(o.mainTier, 1);
    EXPECT_EQ(m->str(), before);
    EXPECT_EQ(o.run.value, ref.value);
    EXPECT_EQ(o.run.output, ref.output);
}

TEST(Sandbox, VerifyEachContainsIRBreakingPass)
{
    auto m = parseProgram();
    Baseline ref = interpret(*m);
    std::string before = m->str();
    uint64_t contained = stats::value("passes.contained_failures");

    RungOutcome o = translateAtO2(*m, [](PassManager &pm, unsigned level) {
        if (level != 2)
            return;
        pm.setVerifyEach(true);
        pm.add(std::make_unique<CorruptIRPass>());
    });

    EXPECT_NE(o.warnings.find("translating 'helper' at -O2: "
                              "verification failed after pass "
                              "'corrupt-ir' on function 'helper'"),
              std::string::npos)
        << o.warnings;
    EXPECT_EQ(stats::value("passes.contained_failures"), contained + 2);
    EXPECT_EQ(o.helperTier, 1);
    EXPECT_EQ(o.mainTier, 1);
    EXPECT_EQ(m->str(), before);
    verifyOrDie(*m);
    EXPECT_EQ(o.run.value, ref.value);
    EXPECT_EQ(o.run.output, ref.output);
}

TEST(Sandbox, FailedPassEndsItsRung)
{
    // The rung abandons its output on any failure, so the pipeline
    // stops at the failing pass: nothing after it is applied.
    auto m = parseProgram();
    size_t applied = 0;

    RungOutcome o =
        translateAtO2(*m, [&applied](PassManager &pm, unsigned level) {
            if (level != 2)
                return;
            pm.add(std::make_unique<MutateThenThrowPass>());
            pm.add(std::make_unique<CountingPass>(applied));
        });

    EXPECT_EQ(applied, 0u);
    EXPECT_EQ(o.helperTier, 1);
    EXPECT_EQ(o.mainTier, 1);
}

TEST(Sandbox, BudgetAppliesToEveryRun)
{
    // Outside the translator too: a plain run fails at the first
    // application that blows its budget.
    auto m = parseProgram();
    uint64_t exceeded = stats::value("passes.budget_exceeded");

    PassManager pm;
    PassBudget budget;
    budget.maxGrowth = 1.5;
    budget.growthFloor = 4;
    pm.setBudget(budget);
    pm.add(std::make_unique<BloatPass>(100));
    try {
        pm.run(*m);
        FAIL() << "the budget did not fire";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("bloat"), std::string::npos) << msg;
        EXPECT_NE(msg.find("helper"), std::string::npos) << msg;
        EXPECT_NE(msg.find("grew"), std::string::npos) << msg;
    }
    EXPECT_EQ(stats::value("passes.budget_exceeded"), exceeded + 1);
}

// --- Localization: -verify-each and -opt-bisect-limit ------------------

TEST(VerifyEach, NamesFirstBreakingPassAndFunction)
{
    auto m = parseProgram();

    PassManager pm; // no sandbox: batch tools want this loud
    pm.setVerifyEach(true);
    pm.add(createMem2RegPass());
    pm.add(std::make_unique<CorruptIRPass>());
    try {
        pm.run(*m);
        FAIL() << "verify-each did not fire";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("corrupt-ir"), std::string::npos) << msg;
        EXPECT_NE(msg.find("helper"), std::string::npos) << msg;
    }
}

TEST(OptBisect, BinarySearchPinpointsInjectedPass)
{
    // Reference behaviour with no limit.
    Baseline ref = interpret(*parseProgram());

    // A pipeline with a deterministic miscompile buried in it.
    auto buildPipeline = [](PassManager &pm) {
        pm.add(createMem2RegPass());
        pm.add(createInstCombinePass());
        pm.add(std::make_unique<BreakSemanticsPass>());
        pm.add(createGVNPass());
        pm.add(createADCEPass());
    };

    // Each pass visits helper then main: 10 applications total.
    // runsCorrectly(N) = pipeline truncated at N keeps semantics.
    auto runsCorrectly = [&](int64_t limit) {
        OptBisect::setLimit(limit);
        auto m = parseProgram();
        PassManager pm;
        buildPipeline(pm);
        pm.run(*m);
        Baseline b = interpret(*m);
        return b.value == ref.value && b.output == ref.output;
    };

    const int64_t total = 10;
    ASSERT_TRUE(runsCorrectly(0));
    ASSERT_FALSE(runsCorrectly(total));

    // Classic bisection: find the first application that breaks.
    int64_t lo = 0, hi = total; // lo good, hi bad
    while (hi - lo > 1) {
        int64_t mid = lo + (hi - lo) / 2;
        if (runsCorrectly(mid))
            lo = mid;
        else
            hi = mid;
    }

    // Run once more at the culprit index so the decision log covers
    // it, then name it.
    // The pipeline visits helper before main, so the first breaking
    // application is the injected pass on helper.
    runsCorrectly(hi);
    EXPECT_EQ(OptBisect::description(hi),
              "break-semantics on helper");
    OptBisect::setLimit(-1); // never leak into other tests
}

TEST(OptBisect, DisabledByDefaultAndDeterministic)
{
    OptBisect::setLimit(-1);
    EXPECT_FALSE(OptBisect::enabled());

    // Two identical runs draw identical indices.
    OptBisect::setLimit(3);
    {
        auto m = parseProgram();
        PassManager pm;
        addFunctionPasses(pm, 1);
        pm.run(*m);
    }
    std::string first = OptBisect::description(3);
    int64_t count = OptBisect::count();
    OptBisect::setLimit(3);
    {
        auto m = parseProgram();
        PassManager pm;
        addFunctionPasses(pm, 1);
        pm.run(*m);
    }
    EXPECT_EQ(OptBisect::description(3), first);
    EXPECT_EQ(OptBisect::count(), count);
    EXPECT_NE(first, "");
    OptBisect::setLimit(-1);
}

// --- AnalysisManager preservation audit --------------------------------

TEST(PreservationAudit, CatchesPassLyingAboutDominators)
{
    auto m = parseAssembly(R"(
int %f(bool %c) {
entry:
    br bool %c, label %a, label %b
a:
    ret int 1
b:
    ret int 2
}
)").orDie();
    verifyOrDie(*m);
    Function *f = m->getFunction("f");

    AnalysisManager am;
    am.setAuditPreservation(true);
    am.dominators(*f); // cache the tree the pass will invalidate

    PassManager pm; // no sandbox: a lying pass is a pass bug
    pm.add(std::make_unique<LyingPass>());
    try {
        pm.run(*m, am);
        FAIL() << "preservation audit did not fire";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("lied"),
                  std::string::npos)
            << e.what();
    }
}

TEST(PreservationAudit, HonestPassesAreQuiet)
{
    auto m = parseProgram();
    AnalysisManager am;
    am.setAuditPreservation(true);
    for (const auto &f : m->functions())
        if (!f->isDeclaration())
            am.dominators(*f);
    PassManager pm;
    addFunctionPasses(pm, 2);
    EXPECT_NO_THROW(pm.run(*m, am));
    verifyOrDie(*m);
}

// --- The tier ladder ---------------------------------------------------

TEST(TierLadder, FaultAtO2RetranslatesAtO1)
{
    auto m = parseProgram();
    CodeGenOptions opts;
    opts.optLevel = 2;
    CodeManager cm(*getTarget("sparc"), opts);
    TranslationHooks hooks;
    hooks.extendPipeline = [](PassManager &pm, unsigned level) {
        if (level == 2)
            pm.add(std::make_unique<FaultPass>("helper"));
    };
    cm.setHooks(hooks);

    const Function *helper = m->getFunction("helper");
    const Function *main_fn = m->getFunction("main");
    EXPECT_NE(cm.get(helper), nullptr);
    EXPECT_NE(cm.get(main_fn), nullptr);
    EXPECT_EQ(cm.tierOf(helper), 1); // degraded one rung
    EXPECT_EQ(cm.tierOf(main_fn), 2);
    EXPECT_EQ(cm.tierDowngrades(), 1u);
    EXPECT_FALSE(cm.isInterpreted(helper));
}

TEST(TierLadder, CodegenFaultDegradesToo)
{
    auto m = parseProgram();
    CodeGenOptions opts;
    opts.optLevel = 1;
    CodeManager cm(*getTarget("x86"), opts);
    TranslationHooks hooks;
    hooks.beforeCodegen = [](const Function &f, unsigned level) {
        if (f.name() == "main" && level == 1)
            throw FatalError("injected codegen fault");
    };
    cm.setHooks(hooks);

    EXPECT_NE(cm.get(m->getFunction("main")), nullptr);
    EXPECT_EQ(cm.tierOf(m->getFunction("main")), 0);
    EXPECT_EQ(cm.tierDowngrades(), 1u);
}

TEST(TierLadder, ExhaustedLadderPinsToInterpreter)
{
    auto m = parseProgram();
    uint64_t fallbacks = stats::value("llee.interp_fallbacks");

    CodeGenOptions opts;
    opts.optLevel = 2;
    CodeManager cm(*getTarget("sparc"), opts);
    TranslationHooks hooks;
    hooks.extendPipeline = [](PassManager &pm, unsigned) {
        pm.add(std::make_unique<FaultPass>("helper"));
    };
    cm.setHooks(hooks);

    const Function *helper = m->getFunction("helper");
    EXPECT_EQ(cm.get(helper), nullptr);
    EXPECT_TRUE(cm.isInterpreted(helper));
    EXPECT_EQ(cm.tierDowngrades(), 3u); // O2, O1, O0 all failed
    EXPECT_EQ(stats::value("llee.interp_fallbacks"), fallbacks + 1);
    // Pinned means pinned: a second get() does not retry the ladder.
    EXPECT_EQ(cm.get(helper), nullptr);
    EXPECT_EQ(cm.tierDowngrades(), 3u);
}

TEST(TierLadder, LadderLeavesBytecodeBodyUntouched)
{
    auto m = parseProgram();
    std::string before = m->str();
    CodeGenOptions opts;
    opts.optLevel = 2;
    CodeManager cm(*getTarget("sparc"), opts);
    cm.translateAll(*m);
    // Optimization happened on a scratch body; the persistent
    // representation is untouched.
    EXPECT_EQ(m->str(), before);
}

// --- Interpreter as tier of last resort --------------------------------

TEST(InterpFallback, PinnedCalleeIsInterpretedMidSimulation)
{
    auto m = parseProgram();
    Baseline ref = interpret(*m);

    CodeGenOptions opts;
    CodeManager cm(*getTarget("sparc"), opts);
    TranslationHooks hooks;
    hooks.extendPipeline = [](PassManager &pm, unsigned) {
        pm.add(std::make_unique<FaultPass>("helper"));
    };
    cm.setHooks(hooks);

    ExecutionContext ctx(*m);
    MachineSimulator sim(ctx, cm);
    auto r = sim.run(m->getFunction("main"));
    ASSERT_TRUE(r.ok()) << trapKindName(r.trap);
    EXPECT_EQ(r.value.i, ref.value);
    EXPECT_EQ(ctx.output(), ref.output);
    EXPECT_GT(sim.instructionsInterpreted(), 0u);
    EXPECT_TRUE(cm.isInterpreted(m->getFunction("helper")));
}

TEST(InterpFallback, PinnedEntryFunctionStillRuns)
{
    auto m = parseProgram();
    Baseline ref = interpret(*m);

    CodeGenOptions opts;
    CodeManager cm(*getTarget("x86"), opts);
    TranslationHooks hooks;
    hooks.extendPipeline = [](PassManager &pm, unsigned) {
        pm.add(std::make_unique<FaultPass>()); // every function
    };
    cm.setHooks(hooks);

    ExecutionContext ctx(*m);
    MachineSimulator sim(ctx, cm);
    auto r = sim.run(m->getFunction("main"));
    ASSERT_TRUE(r.ok()) << trapKindName(r.trap);
    EXPECT_EQ(r.value.i, ref.value);
    EXPECT_EQ(ctx.output(), ref.output);
    EXPECT_GT(sim.instructionsInterpreted(), 0u);
}

// --- LLEE end to end ---------------------------------------------------

TEST(LLEELadder, FaultingPassAtO2IsByteIdenticalToBaseline)
{
    auto m = parseProgram();
    auto bytecode = writeBytecode(*m);

    CodeGenOptions opts;
    opts.optLevel = 2;

    LLEE clean(*getTarget("sparc"), nullptr, opts);
    LLEEResult want = clean.execute(bytecode);
    EXPECT_EQ(want.tierDowngrades, 0u);

    LLEE faulty(*getTarget("sparc"), nullptr, opts);
    TranslationHooks hooks;
    hooks.extendPipeline = [](PassManager &pm, unsigned level) {
        if (level == 2)
            pm.add(std::make_unique<FaultPass>("helper"));
    };
    faulty.setHooks(hooks);
    LLEEResult got = faulty.execute(bytecode);

    EXPECT_EQ(got.output, want.output);
    EXPECT_EQ(got.exec.value.i, want.exec.value.i);
    EXPECT_EQ(got.tierDowngrades, 1u);
    EXPECT_EQ(got.functionsInterpreted, 0u);
}

TEST(LLEELadder, AchievedTierIsCachedAcrossRuns)
{
    auto m = parseProgram();
    auto bytecode = writeBytecode(*m);
    Baseline ref = interpret(*m);

    CodeGenOptions opts;
    opts.optLevel = 2;
    MemoryStorage storage;
    TranslationHooks hooks;
    hooks.extendPipeline = [](PassManager &pm, unsigned) {
        pm.add(std::make_unique<FaultPass>("helper")); // all tiers
    };

    LLEE llee(*getTarget("sparc"), &storage, opts);
    llee.setHooks(hooks);

    LLEEResult first = llee.execute(bytecode);
    EXPECT_EQ(first.output, ref.output);
    EXPECT_EQ(first.exec.value.i, ref.value);
    EXPECT_EQ(first.tierDowngrades, 3u);
    EXPECT_EQ(first.functionsInterpreted, 1u);

    // The second run loads the interpreter pin from the envelope
    // cache: no re-walk of the (still faulting) ladder.
    LLEEResult second = llee.execute(bytecode);
    EXPECT_EQ(second.output, ref.output);
    EXPECT_EQ(second.exec.value.i, ref.value);
    EXPECT_EQ(second.tierDowngrades, 0u);
    EXPECT_EQ(second.functionsInterpreted, 1u);
    EXPECT_GE(second.cacheHits, 2u); // helper pin + main code
    EXPECT_EQ(second.cacheMisses, 0u);
}

TEST(LLEELadder, DegradedTierIsCachedAcrossRuns)
{
    auto m = parseProgram();
    auto bytecode = writeBytecode(*m);

    CodeGenOptions opts;
    opts.optLevel = 2;
    MemoryStorage storage;
    TranslationHooks hooks;
    hooks.extendPipeline = [](PassManager &pm, unsigned level) {
        if (level == 2)
            pm.add(std::make_unique<FaultPass>("helper"));
    };

    LLEE llee(*getTarget("sparc"), &storage, opts);
    llee.setHooks(hooks);
    LLEEResult first = llee.execute(bytecode);
    EXPECT_EQ(first.tierDowngrades, 1u);

    LLEEResult second = llee.execute(bytecode);
    EXPECT_EQ(second.tierDowngrades, 0u);
    EXPECT_EQ(second.cacheMisses, 0u);
    EXPECT_EQ(second.output, first.output);
    EXPECT_EQ(second.exec.value.i, first.exec.value.i);
}
