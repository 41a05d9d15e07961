/**
 * @file
 * Staged-pipeline tests: AnalysisManager caching and invalidation
 * driven through the PassManager (observed via the statistics
 * registry), and the pass/stage observability surface
 * (-time-passes, -stats).
 */

#include <gtest/gtest.h>

#include "analysis/analysis_manager.h"
#include "codegen/codegen.h"
#include "parser/parser.h"
#include "support/statistic.h"
#include "transforms/pass.h"
#include "verifier/verifier.h"
#include "vm/code_manager.h"
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

TEST(Pipeline, ModuleVerificationIsTimedAsAStage)
{
    const StageTimer *verify = nullptr;
    for (const StageTimer *t : stats::allTimers())
        if (std::string(t->name()) == "verify.module")
            verify = t;
    ASSERT_NE(verify, nullptr);
    auto m = buildWorkload("ptrdist-anagram");
    uint64_t before = verify->invocations();
    EXPECT_TRUE(verifyModule(*m).ok());
    EXPECT_EQ(verify->invocations(), before + 1);
    // Function-at-a-time checks (-verify-each after a function pass)
    // are part of that pass's time.
    EXPECT_TRUE(verifyFunction(*m->getFunction("main")).ok());
    EXPECT_EQ(verify->invocations(), before + 1);
    EXPECT_NE(stats::timingReport().find("verify.module"),
              std::string::npos);
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
