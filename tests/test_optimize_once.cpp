/**
 * @file
 * Optimize once, ahead of time (paper Section 4.2): a module records
 * the standard-pipeline level it has had, virtual object code carries
 * the record, and a translation rung at or below it runs no pass and
 * only generates code. The record is untrusted: a module that claims
 * more than it had still verifies and runs correctly. Also the
 * CodeManager's level check: the ladder's rungs are -O2, -O1, -O0.
 */

#include <gtest/gtest.h>

#include "bytecode/bytecode.h"
#include "llee/llee.h"
#include "llee/mcode_io.h"
#include "parser/parser.h"
#include "support/statistic.h"
#include "transforms/pass.h"
#include "verifier/verifier.h"
#include "vm/interpreter.h"
#include "vm/machine_sim.h"
#include "workloads/workloads.h"

using namespace llva;

namespace {

const char *kProgram = R"(
declare void %putint(long %v)
internal int %helper(int %x) {
entry:
    %p = alloca int
    store int %x, int* %p
    %v = load int* %p
    %a = mul int %v, 3
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

/** Throws on every function it visits. */
class FaultPass : public FunctionPass
{
  public:
    PassResult
    run(Function &f, AnalysisManager &) override
    {
        fatal("injected fault visiting %s", f.name().c_str());
    }

    const char *name() const override { return "inject-fault"; }
};

void
runStandard(Module &m, unsigned level)
{
    PassManager pm;
    addStandardPasses(pm, level);
    pm.run(m);
}

/** Each defined function's installed tier and machine code. */
using Translations =
    std::vector<std::pair<uint8_t, std::vector<uint8_t>>>;

/**
 * Run main of \p m on \p target at -O2 with adaptive promotion armed
 * at \p watermark (0: no profile, so no promotion), then collect what
 * the code cache holds.
 */
Translations
translateAndRun(Module &m, const std::string &target,
                uint64_t watermark, size_t *promotions = nullptr)
{
    CodeGenOptions opts;
    opts.optLevel = 2;
    CodeManager cm(*getTarget(target), opts);
    EdgeProfile profile;
    if (watermark)
        cm.setAdaptive(&profile, watermark);
    {
        ExecutionContext ctx(m);
        MachineSimulator sim(ctx, cm);
        if (watermark)
            sim.setProfile(&profile);
        EXPECT_TRUE(sim.run(m.getFunction("main")).ok()) << target;
    }
    cm.translateAll(m);
    if (promotions)
        *promotions += cm.promotions();
    Translations out;
    for (const auto &f : m.functions()) {
        if (f->isDeclaration())
            continue;
        const MachineFunction *mf = cm.cached(f.get());
        out.emplace_back(cm.tierOf(f.get()),
                         mf ? writeMachineFunction(*mf)
                            : std::vector<uint8_t>{});
    }
    return out;
}

} // namespace

// --- The record --------------------------------------------------------

TEST(OptimizationRecord, CompletedStandardRunRaisesTheLevel)
{
    auto m = parseProgram();
    EXPECT_EQ(m->optimizationLevel(), 0u);

    // The function pipeline alone is not the standard pipeline.
    PassManager fn;
    addFunctionPasses(fn, 2);
    fn.run(*m);
    EXPECT_EQ(m->optimizationLevel(), 0u);

    runStandard(*m, 1);
    EXPECT_EQ(m->optimizationLevel(), 1u);
    runStandard(*m, 2);
    EXPECT_EQ(m->optimizationLevel(), 2u);
    // A lower or empty standard run never lowers the record.
    runStandard(*m, 1);
    EXPECT_EQ(m->optimizationLevel(), 2u);
    runStandard(*m, 0);
    EXPECT_EQ(m->optimizationLevel(), 2u);
}

TEST(OptimizationRecord, FailedOrBisectedRunRecordsNothing)
{
    auto m = parseProgram();
    PassManager failing;
    addStandardPasses(failing, 2);
    failing.add(std::make_unique<FaultPass>());
    EXPECT_THROW(failing.run(*m), FatalError);
    EXPECT_EQ(m->optimizationLevel(), 0u);

    // A run whose applications the bisector skipped did not run the
    // whole pipeline.
    OptBisect::setLimit(3);
    testing::internal::CaptureStderr();
    runStandard(*m, 2);
    testing::internal::GetCapturedStderr();
    OptBisect::setLimit(-1);
    EXPECT_EQ(m->optimizationLevel(), 0u);
}

TEST(OptimizationRecord, LevelsRoundTripThroughBytecode)
{
    for (unsigned level = 0; level <= 2; ++level) {
        auto m = parseProgram();
        m->setOptimizationLevel(level);
        auto bytes = writeBytecode(*m);
        auto back = readBytecode(bytes).orDie();
        EXPECT_EQ(back->optimizationLevel(), level);
        // The record takes the header byte that was reserved: the
        // file is as long as an unrecorded one.
        m->setOptimizationLevel(0);
        EXPECT_EQ(writeBytecode(*m).size(), bytes.size());
    }
    // The textual form carries no record.
    auto m = parseProgram();
    runStandard(*m, 2);
    EXPECT_EQ(parseAssembly(m->str()).orDie()->optimizationLevel(), 0u);
}

// --- The rung rule -----------------------------------------------------

TEST(OptimizationRecord, RecordedRungRunsNoPassAndTakesNoSnapshot)
{
    auto m = parseProgram();
    runStandard(*m, 2);
    Function *helper = m->getFunction("helper");
    const BasicBlock *entry = helper->entryBlock();

    for (unsigned level : {1u, 2u}) {
        CodeGenOptions opts;
        opts.optLevel = static_cast<uint8_t>(level);
        CodeManager cm(*getTarget("x86"), opts);
        const uint64_t before = stats::value("pass.applications");
        cm.translateAll(*m);
        EXPECT_EQ(stats::value("pass.applications"), before) << level;
        EXPECT_EQ(cm.tierOf(helper), level);
        // No snapshot was restored: the body is the one loaded.
        EXPECT_EQ(helper->entryBlock(), entry) << level;
    }
}

TEST(OptimizationRecord, RungAboveTheRecordStillRunsItsPasses)
{
    auto m = parseProgram();
    for (unsigned recorded : {0u, 1u}) {
        m->setOptimizationLevel(recorded);
        CodeGenOptions opts;
        opts.optLevel = 2;
        CodeManager cm(*getTarget("x86"), opts);
        const uint64_t before = stats::value("pass.applications");
        cm.translateAll(*m);
        EXPECT_GT(stats::value("pass.applications"), before)
            << recorded;
    }
}

TEST(OptimizationRecord, FalseClaimStillVerifiesAndRunsCorrectly)
{
    // An unoptimized body that claims -O2: the translator trusts the
    // claim, generates code for the body as it is, and only loses
    // speed.
    for (const WorkloadInfo &w : allWorkloads()) {
        auto m = w.build(w.defaultScale);
        m->setOptimizationLevel(2);
        auto bytes = writeBytecode(*m);
        auto loaded = readBytecode(bytes).orDie();
        ASSERT_EQ(loaded->optimizationLevel(), 2u);
        EXPECT_TRUE(verifyModule(*loaded).ok()) << w.name;

        ExecutionContext ictx(*loaded);
        Interpreter interp(ictx);
        ExecResult want = interp.run(loaded->getFunction("main"));
        ASSERT_TRUE(want.ok()) << w.name;

        for (const std::string &t : targetNames()) {
            CodeGenOptions opts;
            opts.optLevel = 2;
            opts.adaptive = true;
            LLEE llee(*getTarget(t), nullptr, opts);
            LLEEResult got = llee.execute(bytes);
            ASSERT_TRUE(got.exec.ok()) << w.name << " " << t;
            EXPECT_EQ(got.exec.value.i, want.value.i) << w.name << " " << t;
            EXPECT_EQ(got.output, ictx.output()) << w.name << " " << t;
        }
    }
}

TEST(OptimizationRecord, RecordedModulesTranslateByteIdentically)
{
    // On -O2 bytecode the function pipeline changes nothing, so
    // skipping it keeps every byte: at -O2, and through promotion.
    size_t promotions = 0;
    for (const WorkloadInfo &w : allWorkloads()) {
        auto m = w.build(w.defaultScale);
        runStandard(*m, 2);
        auto bytes = writeBytecode(*m);
        for (const std::string &t : targetNames()) {
            for (uint64_t watermark : {uint64_t(0), uint64_t(200)}) {
                auto recorded = readBytecode(bytes).orDie();
                auto cleared = readBytecode(bytes).orDie();
                ASSERT_EQ(recorded->optimizationLevel(), 2u);
                cleared->setOptimizationLevel(0);
                EXPECT_EQ(
                    translateAndRun(*recorded, t, watermark, &promotions),
                    translateAndRun(*cleared, t, watermark))
                    << w.name << " " << t << " watermark " << watermark;
            }
        }
    }
    EXPECT_GT(promotions, 0u);
}

// --- Levels the ladder does not have -------------------------------------

TEST(OptimizationRecord, LevelsAboveTwoAreRejectedWithoutCrashing)
{
    auto m = parseProgram();
    auto bytes = writeBytecode(*m);
    for (unsigned level : {3u, 254u, 255u}) {
        CodeGenOptions opts;
        opts.optLevel = static_cast<uint8_t>(level);
        try {
            CodeManager cm(*getTarget("x86"), opts);
            ADD_FAILURE() << "level " << level << " accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(std::to_string(level)),
                      std::string::npos)
                << e.what();
        }
        MemoryStorage storage;
        LLEE llee(*getTarget("x86"), &storage, opts);
        EXPECT_THROW(llee.execute(bytes), FatalError) << level;
        EXPECT_THROW(llee.offlineTranslate(bytes), FatalError) << level;
    }
    for (unsigned level = 0; level <= 2; ++level) {
        CodeGenOptions opts;
        opts.optLevel = static_cast<uint8_t>(level);
        EXPECT_NO_THROW(CodeManager(*getTarget("x86"), opts));
    }
}
