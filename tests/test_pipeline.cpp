/**
 * @file
 * Staged-pipeline tests: AnalysisManager caching and invalidation
 * driven through the PassManager (observed via the statistics
 * registry), deterministic parallel translation (byte-identical to
 * serial for any worker count), parallel offline translation, and
 * the pass/stage observability surface (-time-passes, -stats).
 */

#include <gtest/gtest.h>

#include <atomic>

#include "analysis/analysis_manager.h"
#include "bytecode/bytecode.h"
#include "codegen/codegen.h"
#include "llee/llee.h"
#include "llee/mcode_io.h"
#include "parser/parser.h"
#include "support/statistic.h"
#include "support/thread_pool.h"
#include "transforms/pass.h"
#include "verifier/verifier.h"
#include "vm/machine_sim.h"
#include "workloads/workloads.h"

using namespace llva;

namespace {

/**
 * One function whose CFG SimplifyCFG will rewrite (constant branch,
 * straight-line merge) and whose allocas Mem2Reg will promote, so a
 * single module exercises both preserving and invalidating passes.
 */
const char *kFoldable = R"(
int %f(int %n) {
entry:
    %p = alloca int
    store int %n, int* %p
    br bool true, label %then, label %else
then:
    %v = load int* %p
    %r = add int %v, 1
    br label %join
else:
    br label %join
join:
    %phi = phi int [ %r, %then ], [ 0, %else ]
    ret int %phi
}
)";

uint64_t
domtreeComputed()
{
    return stats::value("analysis.domtree.computed");
}

uint64_t
domtreeHits()
{
    return stats::value("analysis.domtree.cache_hits");
}

} // namespace

TEST(Pipeline, DomTreeComputedOnceAcrossPreservingPasses)
{
    auto m = parseAssembly(kFoldable).orDie();
    verifyOrDie(*m);

    // Mem2Reg and GVN both request the dominator tree and both
    // preserve the CFG: one construction, the rest cache hits.
    PassManager pm;
    pm.add(createMem2RegPass());
    pm.add(createGVNPass());
    pm.add(createGVNPass());

    uint64_t computed0 = domtreeComputed(), hits0 = domtreeHits();
    AnalysisManager am;
    pm.run(*m, am);
    EXPECT_EQ(domtreeComputed() - computed0, 1u);
    EXPECT_EQ(domtreeHits() - hits0, 2u);
}

TEST(Pipeline, SimplifyCFGInvalidatesDomTree)
{
    auto m = parseAssembly(kFoldable).orDie();
    verifyOrDie(*m);

    // Mem2Reg computes the tree; SimplifyCFG folds the constant
    // branch (PreservedAnalyses::none()); the trailing GVN must see
    // a fresh tree, not the stale pre-fold one.
    PassManager pm;
    pm.add(createMem2RegPass());
    pm.add(createSimplifyCFGPass());
    pm.add(createGVNPass());

    uint64_t computed0 = domtreeComputed();
    AnalysisManager am;
    pm.run(*m, am);
    EXPECT_EQ(domtreeComputed() - computed0, 2u);
    // And the fold actually happened, so the invalidation was real.
    EXPECT_EQ(m->getFunction("f")->size(), 1u);
}

TEST(Pipeline, AnalysisManagerCachesPerFunction)
{
    auto m = parseAssembly(R"(
int %a(int %x) {
entry:
    ret int %x
}
int %b(int %x) {
entry:
    ret int %x
}
)").orDie();
    verifyOrDie(*m);

    AnalysisManager am;
    Function *a = m->getFunction("a"), *b = m->getFunction("b");
    DominatorTree &da = am.dominators(*a);
    EXPECT_TRUE(am.isCached(*a, AnalysisID::DominatorTree));
    EXPECT_FALSE(am.isCached(*b, AnalysisID::DominatorTree));
    // Second request returns the same object.
    EXPECT_EQ(&am.dominators(*a), &da);

    // Invalidation honours the preservation mask per function.
    am.invalidate(*a, PreservedAnalyses::all());
    EXPECT_TRUE(am.isCached(*a, AnalysisID::DominatorTree));
    am.invalidate(*a, PreservedAnalyses::none());
    EXPECT_FALSE(am.isCached(*a, AnalysisID::DominatorTree));
}

TEST(Pipeline, LoopInfoInvalidatedWithCFG)
{
    auto m = parseAssembly(kFoldable).orDie();
    verifyOrDie(*m);
    Function *f = m->getFunction("f");

    AnalysisManager am;
    am.loops(*f); // forces dominators too
    EXPECT_TRUE(am.isCached(*f, AnalysisID::LoopInfo));
    EXPECT_TRUE(am.isCached(*f, AnalysisID::DominatorTree));

    PreservedAnalyses onlyDom =
        PreservedAnalyses::none().preserve(AnalysisID::DominatorTree);
    am.invalidate(*f, onlyDom);
    EXPECT_FALSE(am.isCached(*f, AnalysisID::LoopInfo));
    EXPECT_TRUE(am.isCached(*f, AnalysisID::DominatorTree));
}

TEST(Pipeline, ModulePassChangeFlushesAnalyses)
{
    auto m = parseAssembly(R"(
internal int %callee(int %x) {
entry:
    %r = add int %x, 1
    ret int %r
}
int %main() {
entry:
    %v = call int %callee(int 4)
    ret int %v
}
)").orDie();
    verifyOrDie(*m);

    // Inlining rewrites callers module-wide, so every cached
    // analysis must be dropped at the module-pass barrier.
    PassManager pm;
    pm.add(createMem2RegPass()); // caches domtrees
    pm.add(createInlinerPass());
    AnalysisManager am;
    pm.run(*m, am);
    for (const auto &f : m->functions()) {
        if (!f->isDeclaration()) {
            EXPECT_FALSE(
                am.isCached(*f, AnalysisID::DominatorTree));
        }
    }
}

TEST(Pipeline, PassTimingsArePopulated)
{
    auto m = buildWorkload("ptrdist-anagram");
    PassManager pm;
    addStandardPasses(pm, 2);
    pm.run(*m);

    const auto &timings = pm.timings();
    ASSERT_FALSE(timings.empty());
    for (const auto &t : timings) {
        EXPECT_FALSE(t.name.empty());
        EXPECT_GT(t.invocations, 0u);
        EXPECT_GE(t.seconds, 0.0);
    }
    std::string report = pm.timingReport();
    EXPECT_NE(report.find("mem2reg"), std::string::npos);
    EXPECT_NE(report.find("total"), std::string::npos);
}

TEST(Pipeline, StatsReportNamesPipelineCounters)
{
    auto m = buildWorkload("ptrdist-anagram");
    CodeManager cm(*getTarget("x86"));
    cm.translateAll(*m);
    std::string report = stats::report();
    EXPECT_NE(report.find("codegen.instructions_selected"),
              std::string::npos);
    EXPECT_NE(report.find("translate.isel"), std::string::npos);
    EXPECT_NE(report.find("translate.regalloc"), std::string::npos);
}

TEST(Pipeline, ParallelTranslationIsByteIdentical)
{
    // The acceptance bar for the threaded pipeline: for every
    // function, `-j 4` must produce the same machine code, byte for
    // byte, as serial translation. Several functions so the work
    // actually gets distributed across workers.
    std::string src;
    for (int i = 0; i < 8; ++i) {
        std::string n = std::to_string(i);
        src += "int %fn" + n + "(int %x) {\n"
               "entry:\n"
               "    %a = mul int %x, " + std::to_string(i + 2) + "\n"
               "    %c = setgt int %a, 10\n"
               "    br bool %c, label %big, label %small\n"
               "big:\n"
               "    %b = add int %a, " + n + "\n"
               "    ret int %b\n"
               "small:\n"
               "    ret int %a\n"
               "}\n";
    }
    auto m = parseAssembly(src).orDie();
    verifyOrDie(*m);
    Target &t = *getTarget("x86");

    CodeManager serial(t), parallel(t);
    serial.translateAll(*m);
    parallel.translateAll(*m, 4);

    size_t compared = 0;
    for (const auto &f : m->functions()) {
        if (f->isDeclaration())
            continue;
        ASSERT_TRUE(parallel.has(f.get())) << f->name();
        EXPECT_EQ(writeMachineFunction(*parallel.get(f.get())),
                  writeMachineFunction(*serial.get(f.get())))
            << f->name();
        EXPECT_EQ(encodeFunction(*parallel.get(f.get()), t),
                  encodeFunction(*serial.get(f.get()), t))
            << f->name();
        ++compared;
    }
    EXPECT_GT(compared, 1u);
    EXPECT_EQ(parallel.functionsTranslated(),
              serial.functionsTranslated());
}

TEST(Pipeline, ParallelTranslationRunsCorrectly)
{
    auto m = buildWorkload("ptrdist-anagram");
    Target &t = *getTarget("sparc");

    CodeManager serial(t), parallel(t);
    serial.translateAll(*m);
    parallel.translateAll(*m, 4);

    ExecutionContext ctx1(*m);
    MachineSimulator sim1(ctx1, serial);
    auto r1 = sim1.run(m->getFunction("main"));
    ExecutionContext ctx2(*m);
    MachineSimulator sim2(ctx2, parallel);
    auto r2 = sim2.run(m->getFunction("main"));
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r1.value.i, r2.value.i);
    EXPECT_EQ(ctx1.output(), ctx2.output());
    EXPECT_EQ(sim1.instructionsExecuted(),
              sim2.instructionsExecuted());
}

TEST(Pipeline, ParallelOfflineTranslationMatchesSerial)
{
    auto m = buildWorkload("ptrdist-anagram");
    auto bc = writeBytecode(*m);

    MemoryStorage s1, s2;
    LLEE serial(*getTarget("x86"), &s1);
    LLEE threaded(*getTarget("x86"), &s2);
    threaded.setJobs(4);

    size_t n1 = serial.offlineTranslate(bc);
    size_t n2 = threaded.offlineTranslate(bc);
    EXPECT_EQ(n1, n2);
    EXPECT_GT(n1, 0u);

    // The caches must hold identical artifacts under identical keys.
    auto keys1 = s1.list("llee-native-cache");
    auto keys2 = s2.list("llee-native-cache");
    ASSERT_EQ(keys1, keys2);
    for (const auto &k : keys1) {
        std::vector<uint8_t> b1, b2;
        ASSERT_TRUE(s1.read("llee-native-cache", k, b1));
        ASSERT_TRUE(s2.read("llee-native-cache", k, b2));
        EXPECT_EQ(b1, b2) << k;
    }
}

TEST(Pipeline, ParallelExecuteMatchesSerialExecute)
{
    auto m = buildWorkload("ptrdist-anagram");
    auto bc = writeBytecode(*m);

    LLEE serial(*getTarget("x86"), nullptr);
    LLEE threaded(*getTarget("x86"), nullptr);
    threaded.setJobs(4);
    LLEEResult r1 = serial.execute(bc);
    LLEEResult r2 = threaded.execute(bc);
    ASSERT_TRUE(r1.exec.ok());
    ASSERT_TRUE(r2.exec.ok());
    EXPECT_EQ(r1.exec.value.i, r2.exec.value.i);
    EXPECT_EQ(r1.output, r2.output);
    EXPECT_EQ(r1.machineInstructionsExecuted,
              r2.machineInstructionsExecuted);
}

TEST(Pipeline, ParallelForCoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> counts(1000);
    for (auto &c : counts)
        c.store(0);
    parallelFor(counts.size(), 8,
                [&](size_t i) { counts[i].fetch_add(1); });
    for (auto &c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(Pipeline, ParallelForPropagatesExceptions)
{
    EXPECT_THROW(parallelFor(64, 4,
                             [](size_t i) {
                                 if (i == 13)
                                     throw FatalError("boom");
                             }),
                 FatalError);
}

TEST(Pipeline, ThreadPoolRunsJobsOnItsWorker)
{
    // Workers start on the first enqueue: a pool given no work is
    // destroyed without one.
    {
        ThreadPool idle(2);
    }
    ThreadPool pool(1);
    std::thread::id ran;
    pool.enqueue([&] { ran = std::this_thread::get_id(); }).get();
    EXPECT_NE(ran, std::this_thread::get_id());
    auto failed = pool.enqueue([] { throw FatalError("boom"); });
    EXPECT_THROW(failed.get(), FatalError);
}
