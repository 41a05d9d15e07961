/**
 * @file
 * Adaptive reoptimization tests (paper Section 4.2 under LLEE):
 * runtime profiling of translated code, watermark-driven promotion
 * to the trace tier, persistence of profiles and trace-tier
 * translations across restarts, and fault containment of the trace
 * tier itself.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "bytecode/bytecode.h"
#include "llee/envelope.h"
#include "llee/llee.h"
#include "parser/parser.h"
#include "support/statistic.h"
#include "trace/profile.h"
#include "transforms/pass.h"
#include "verifier/verifier.h"
#include "vm/interpreter.h"
#include "vm/machine_sim.h"

using namespace llva;

namespace {

constexpr const char *kCache = "llee-native-cache";

/** Throws whenever it is applied: a pass fault. */
class ThrowingPass : public FunctionPass
{
  public:
    PassResult
    run(Function &, AnalysisManager &) override
    {
        throw std::runtime_error("injected trace-tier pass fault");
    }

    const char *name() const override { return "throw"; }
};

// A hot, branch-biased loop: the adaptive tier's bread and butter.
// 'cold' sits between 'head' and 'hot' in source order so the trace
// layout has a measurable fallthrough to win back.
const char *kHotLoop = R"(
declare void %putint(long %v)
int %main() {
entry:
    br label %head
head:
    %i = phi int [ 0, %entry ], [ %i2, %latch ]
    %acc = phi int [ 0, %entry ], [ %acc2, %latch ]
    %r = rem int %i, 100
    %rare = seteq int %r, 99
    br bool %rare, label %cold, label %hot
cold:
    %c2 = mul int %acc, 2
    br label %latch
hot:
    %h2 = add int %acc, 1
    br label %latch
latch:
    %acc2 = phi int [ %c2, %cold ], [ %h2, %hot ]
    %i2 = add int %i, 1
    %more = setlt int %i2, 2000
    br bool %more, label %head, label %out
out:
    %wide = cast int %acc2 to long
    call void %putint(long %wide)
    ret int %acc2
}
)";

std::vector<uint8_t>
hotLoopBytecode()
{
    auto m = parseAssembly(kHotLoop).orDie();
    verifyOrDie(*m);
    return writeBytecode(*m);
}

/** The oracle's value/output for kHotLoop. */
std::pair<int64_t, std::string>
oracle()
{
    auto m = parseAssembly(kHotLoop).orDie();
    ExecutionContext ctx(*m);
    Interpreter interp(ctx);
    auto r = interp.run(m->getFunction("main"));
    EXPECT_TRUE(r.ok());
    return {r.value.i, ctx.output()};
}

CodeGenOptions
adaptiveOpts(uint64_t watermark = 1000)
{
    CodeGenOptions opts;
    opts.optLevel = 2;
    opts.adaptive = true;
    opts.promoteWatermark = watermark;
    return opts;
}

EdgeProfile
sampleProfile()
{
    auto m = parseAssembly(kHotLoop).orDie();
    ExecutionContext ctx(*m);
    Interpreter interp(ctx);
    EdgeProfile profile;
    interp.setProfile(&profile);
    interp.run(m->getFunction("main"));
    return profile;
}

} // namespace

// --- Profile serialization -------------------------------------------

TEST(AdaptiveProfile, SerializationRoundTrip)
{
    EdgeProfile profile = sampleProfile();
    ASSERT_FALSE(profile.empty());

    std::vector<uint8_t> bytes = writeEdgeProfile(profile);
    ASSERT_FALSE(bytes.empty());
    Expected<EdgeProfile> back = readEdgeProfile(bytes);
    ASSERT_TRUE(back.ok()) << back.error().message();
    EdgeProfile p2 = back.take();

    EXPECT_EQ(p2.blocks, profile.blocks);
    EXPECT_EQ(p2.edges, profile.edges);
    EXPECT_EQ(p2.fnSamples, profile.fnSamples);
    EXPECT_EQ(p2.samples, profile.samples);
    EXPECT_EQ(profileHash(p2), profileHash(profile));
}

TEST(AdaptiveProfile, RejectsDamagedBytes)
{
    std::vector<uint8_t> bytes = writeEdgeProfile(sampleProfile());

    // Every single-byte flip must be caught by the CRC.
    for (size_t i = 0; i < bytes.size(); i += 7) {
        std::vector<uint8_t> bad = bytes;
        bad[i] ^= 0x40;
        EXPECT_FALSE(readEdgeProfile(bad).ok())
            << "flip at offset " << i << " accepted";
    }
    // Truncation at any point is damage too.
    for (size_t n : {size_t(0), size_t(3), bytes.size() / 2,
                     bytes.size() - 1}) {
        std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + n);
        EXPECT_FALSE(readEdgeProfile(cut).ok())
            << "truncation to " << n << " bytes accepted";
    }
    // Trailing garbage after a valid image is rejected.
    std::vector<uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(readEdgeProfile(padded).ok());
}

TEST(AdaptiveProfile, MergeAccumulates)
{
    EdgeProfile a = sampleProfile();
    EdgeProfile b = sampleProfile();
    uint64_t fn = functionId("main");
    uint64_t one = a.functionSamples(fn);
    ASSERT_GT(one, 0u);

    a.merge(b);
    EXPECT_EQ(a.functionSamples(fn), 2 * one);
    EXPECT_EQ(a.samples, 2 * b.samples);
    for (const auto &[id, c] : b.blocks)
        EXPECT_EQ(a.blocks.at(id), 2 * c);
}

// --- Runtime promotion -----------------------------------------------

TEST(Adaptive, HotLoopIsPromotedAtRuntime)
{
    auto [refValue, refOutput] = oracle();
    auto bc = hotLoopBytecode();

    for (const char *target : {"x86", "sparc"}) {
        MemoryStorage storage;
        LLEE llee(*getTarget(target), &storage, adaptiveOpts());
        LLEEResult r = llee.execute(bc);

        ASSERT_TRUE(r.exec.ok()) << target;
        EXPECT_EQ(r.exec.value.i, refValue) << target;
        EXPECT_EQ(r.output, refOutput) << target;
        // The loop crosses the watermark long before it finishes,
        // so main is promoted mid-run...
        EXPECT_GE(r.promotions, 1u) << target;
        EXPECT_EQ(r.promotionFailures, 0u) << target;
        EXPECT_GT(r.profileSamples, 0u) << target;
        // ...and the loop body dominates execution, so the formed
        // traces must cover most of it (acceptance: > 0.5).
        EXPECT_GT(r.traceCoverage, 0.5) << target;
        // Cold start: nothing was at the trace tier yet.
        EXPECT_EQ(r.traceTierLoaded, 0u) << target;
        EXPECT_FALSE(r.profileLoaded) << target;
    }
}

TEST(Adaptive, WarmRestartStartsAtTraceTierWithoutReprofiling)
{
    auto [refValue, refOutput] = oracle();
    auto bc = hotLoopBytecode();

    MemoryStorage storage;
    {
        LLEE cold(*getTarget("sparc"), &storage, adaptiveOpts());
        LLEEResult r1 = cold.execute(bc);
        ASSERT_TRUE(r1.exec.ok());
        ASSERT_GE(r1.promotions, 1u);
    }

    // Same storage, fresh environment — the paper's warm restart.
    LLEE warm(*getTarget("sparc"), &storage, adaptiveOpts());
    LLEEResult r2 = warm.execute(bc);
    ASSERT_TRUE(r2.exec.ok());
    EXPECT_EQ(r2.exec.value.i, refValue);
    EXPECT_EQ(r2.output, refOutput);

    // The trace-tier translation is reused straight from the cache
    // (verified through the envelope's achieved-tier field) and the
    // persisted profile is loaded, so nothing is re-promoted.
    EXPECT_GE(r2.traceTierLoaded, 1u);
    EXPECT_TRUE(r2.profileLoaded);
    EXPECT_EQ(r2.promotions, 0u);
    EXPECT_EQ(r2.functionsTranslatedOnline, 0u);
    EXPECT_GE(r2.cacheHits, 1u);
}

TEST(Adaptive, PromotedEnvelopeCarriesTierAndProfileHash)
{
    auto bc = hotLoopBytecode();
    MemoryStorage storage;
    LLEE llee(*getTarget("sparc"), &storage, adaptiveOpts());
    LLEEResult r = llee.execute(bc);
    ASSERT_TRUE(r.exec.ok());
    ASSERT_GE(r.promotions, 1u);

    // Inspect main's envelope directly: achieved tier must be the
    // trace tier, stamped with the hash of a non-empty profile.
    auto m = readBytecode(bc).orDie();
    std::string name = LLEE::translationKey(
        LLEE::programKey(bc), *m->getFunction("main"),
        *getTarget("sparc"), adaptiveOpts());
    std::vector<uint8_t> envelope;
    ASSERT_TRUE(storage.read(kCache, name, envelope));
    TranslationKey key;
    ASSERT_EQ(inspectTranslation(envelope, &key), EnvelopeStatus::Ok);
    EXPECT_EQ(key.tier, kTierTrace);
    EXPECT_NE(key.profileHash, 0u);

    // And it matches the hash of the persisted profile bytes.
    std::vector<uint8_t> profBytes;
    ASSERT_TRUE(storage.read(
        kCache, LLEE::programKey(bc) + ".profile", profBytes));
    Expected<EdgeProfile> persisted = readEdgeProfile(profBytes);
    ASSERT_TRUE(persisted.ok());
    EXPECT_EQ(key.profileHash, profileHash(persisted.take()));
}

TEST(Adaptive, CorruptPersistedProfileIsEvictedNotTrusted)
{
    auto bc = hotLoopBytecode();
    MemoryStorage storage;
    ASSERT_TRUE(storage.createCache(kCache));
    std::string profKey = LLEE::programKey(bc) + ".profile";
    ASSERT_TRUE(storage.write(kCache, profKey,
                              {0xde, 0xad, 0xbe, 0xef, 0x00}));

    LLEE llee(*getTarget("sparc"), &storage, adaptiveOpts());
    LLEEResult r = llee.execute(bc);
    ASSERT_TRUE(r.exec.ok());
    // The garbage was not loaded — profiling restarted from zero —
    // and the run still promoted and replaced the entry with a
    // valid profile.
    EXPECT_FALSE(r.profileLoaded);
    EXPECT_GE(r.promotions, 1u);
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(storage.read(kCache, profKey, bytes));
    EXPECT_TRUE(readEdgeProfile(bytes).ok());
}

TEST(Adaptive, FaultingTraceTierKeepsExistingTranslation)
{
    // The trace tier degrades like any other rung: a promotion whose
    // codegen or passes fault is abandoned and the function keeps
    // running on its existing -O2 body, correctly.
    auto [refValue, refOutput] = oracle();
    auto bc = hotLoopBytecode();

    TranslationHooks codegenFault;
    codegenFault.beforeCodegen = [](const Function &, unsigned level) {
        if (level == kTierTrace)
            throw std::runtime_error("injected trace-tier fault");
    };
    TranslationHooks passFault;
    passFault.extendPipeline = [](PassManager &pm, unsigned level) {
        if (level == kTierTrace)
            pm.add(std::make_unique<ThrowingPass>());
    };

    for (const TranslationHooks &hooks : {codegenFault, passFault}) {
        SCOPED_TRACE(hooks.beforeCodegen ? "codegen fault" : "pass fault");
        MemoryStorage storage;
        LLEE llee(*getTarget("sparc"), &storage, adaptiveOpts());
        llee.setHooks(hooks);
        LLEEResult r = llee.execute(bc);

        ASSERT_TRUE(r.exec.ok());
        EXPECT_EQ(r.exec.value.i, refValue);
        EXPECT_EQ(r.output, refOutput);
        EXPECT_EQ(r.promotions, 0u);
        EXPECT_GE(r.promotionFailures, 1u);
        // The failed promotion never reaches storage as a trace tier.
        auto m = readBytecode(bc).orDie();
        std::string name = LLEE::translationKey(
            LLEE::programKey(bc), *m->getFunction("main"),
            *getTarget("sparc"), adaptiveOpts());
        std::vector<uint8_t> envelope;
        ASSERT_TRUE(storage.read(kCache, name, envelope));
        TranslationKey key;
        ASSERT_EQ(inspectTranslation(envelope, &key), EnvelopeStatus::Ok);
        EXPECT_NE(key.tier, kTierTrace);
    }
}

TEST(Adaptive, SimulatorProfileMatchesInterpreterOnHotBlocks)
{
    // The machine simulator profiles *translated* code, but stable
    // IDs resolve to the same names the interpreter sees, so its
    // block loop must count exactly what the interpreter counts on
    // the same IR: on an -O0 body (whose machine CFG mirrors the IR
    // CFG), and on a warm run — main promoted by the first run, its
    // trace-tier body run from the first instruction — against the
    // IR translation ran -O2 over.
    auto expectInterpreterCounts = [](Module &m, const EdgeProfile &sim,
                                      const std::string &what) {
        Function *f = m.getFunction("main");
        ExecutionContext ctx(m);
        Interpreter interp(ctx);
        EdgeProfile want;
        interp.setProfile(&want);
        ASSERT_TRUE(interp.run(f).ok()) << what;
        for (const auto &bb : *f)
            EXPECT_EQ(sim.blockCount(bb.get()), want.blockCount(bb.get()))
                << what << " block '" << bb->name() << "'";
        ASSERT_FALSE(want.edges.empty()) << what;
        for (const auto &[edge, count] : want.edges) {
            auto it = sim.edges.find(edge);
            EXPECT_EQ(it == sim.edges.end() ? 0 : it->second, count)
                << what;
        }
    };

    for (const std::string &target : targetNames()) {
        {
            auto m = parseAssembly(kHotLoop).orDie();
            CodeManager cm(*getTarget(target), CodeGenOptions{});
            ExecutionContext ctx(*m);
            MachineSimulator sim(ctx, cm);
            EdgeProfile stepped;
            sim.setProfile(&stepped);
            ASSERT_TRUE(sim.run(m->getFunction("main")).ok()) << target;
            expectInterpreterCounts(*m, stepped, target + " -O0");
        }

        auto m = parseAssembly(kHotLoop).orDie();
        Function *f = m->getFunction("main");
        CodeManager cm(*getTarget(target), adaptiveOpts(500));
        EdgeProfile adaptive;
        cm.setAdaptive(&adaptive, 500);
        {
            ExecutionContext ctx(*m);
            MachineSimulator warm(ctx, cm);
            warm.setProfile(&adaptive);
            ASSERT_TRUE(warm.run(f).ok()) << target;
        }
        ASSERT_EQ(cm.tierOf(f), kTierTrace) << target;
        EdgeProfile chained;
        {
            ExecutionContext ctx(*m);
            MachineSimulator sim(ctx, cm);
            sim.setProfile(&chained);
            ASSERT_TRUE(sim.run(f).ok()) << target;
        }
        ASSERT_GE(cm.chainedFunctions(), 1u) << target;
        expectInterpreterCounts(*m, chained, target + " warm chained");
    }
}

// --- Where promotion lands -------------------------------------------
//
// The block loop asks the code manager about promotion at the first
// taken branch of each body entry and then only once the profile
// weight it recorded reaches the distance to the watermark. These
// runs pin each function's count in the attached profile at the
// moment its trace-tier rung ran, to the counts of asking on every
// taken branch.

namespace {

// A loop with no calls, 10 000 iterations long.
const char *kCallFreeLoop = R"(
int %main() {
entry:
    br label %head
head:
    %i = phi int [ 0, %entry ], [ %i2, %head ]
    %acc = phi int [ 0, %entry ], [ %acc2, %head ]
    %acc2 = add int %acc, %i
    %i2 = add int %i, 1
    %more = setlt int %i2, 10000
    br bool %more, label %head, label %out
out:
    ret int %acc2
}
)";

// A loop that calls a leaf function with a branch of its own.
const char *kLeafCalls = R"(
internal int %leaf(int %x) {
entry:
    %odd = rem int %x, 2
    %isodd = seteq int %odd, 1
    br bool %isodd, label %o, label %e
o:
    %a = mul int %x, 3
    br label %done
e:
    %b = add int %x, 7
    br label %done
done:
    %r = phi int [ %a, %o ], [ %b, %e ]
    ret int %r
}
int %main() {
entry:
    br label %loop
loop:
    %j = phi int [ 0, %entry ], [ %j2, %loop ]
    %acc = phi int [ 0, %entry ], [ %acc2, %loop ]
    %w = call int %leaf(int %j)
    %acc2 = add int %acc, %w
    %j2 = add int %j, 1
    %more = setlt int %j2, 3000
    br bool %more, label %loop, label %out
out:
    ret int %acc2
}
)";

const char *kRecursive = R"(
internal int %fib(int %n) {
entry:
    %small = setlt int %n, 2
    br bool %small, label %base, label %rec
base:
    ret int %n
rec:
    %n1 = sub int %n, 1
    %a = call int %fib(int %n1)
    %n2 = sub int %n, 2
    %b = call int %fib(int %n2)
    %s = add int %a, %b
    ret int %s
}
int %main() {
entry:
    %r = call int %fib(int 18)
    ret int %r
}
)";

/** What one profiled run promoted, and where. */
struct Landing
{
    /** Each promoted function's count in the attached profile when
     *  its trace-tier rung ran. */
    std::map<std::string, uint64_t> countAt;
    size_t promotions = 0;
    uint64_t checks = 0; ///< vm.promotion_checks taken by the run
};

using Drive =
    std::function<ExecResult(MachineSimulator &, const Function *)>;

ExecResult
runToEnd(MachineSimulator &sim, const Function *f)
{
    return sim.run(f);
}

/**
 * Run \p source's main on \p target at -O2 under an adaptive manager
 * whose attached profile is \p attached, with the simulator
 * recording into it; \p drive may reconfigure the simulator and runs
 * it. The result must match the interpreter's.
 */
Landing
land(const std::string &target, const char *source, uint64_t watermark,
     EdgeProfile &attached, const Drive &drive = runToEnd)
{
    auto m = parseAssembly(source).orDie();
    Landing out;
    CodeManager cm(*getTarget(target), adaptiveOpts(watermark));
    cm.setAdaptive(&attached, watermark);
    TranslationHooks hooks;
    hooks.beforeCodegen = [&](const Function &f, unsigned tier) {
        if (tier == kTierTrace)
            out.countAt[f.name()] =
                attached.functionSamples(functionId(f.name()));
    };
    cm.setHooks(hooks);

    ExecutionContext ctx(*m);
    MachineSimulator sim(ctx, cm);
    sim.setProfile(&attached);
    uint64_t checks = stats::value("vm.promotion_checks");
    ExecResult r = drive(sim, m->getFunction("main"));
    out.checks = stats::value("vm.promotion_checks") - checks;
    out.promotions = cm.promotions();

    ExecutionContext refCtx(*m);
    Interpreter interp(refCtx);
    ExecResult want = interp.run(m->getFunction("main"));
    EXPECT_TRUE(r.ok()) << target;
    EXPECT_EQ(r.value.i, want.value.i) << target;
    return out;
}

using Counts = std::map<std::string, uint64_t>;

} // namespace

TEST(Adaptive, PromotionLandsWhereItDidInACallFreeLoop)
{
    // Every event of the one-block loop is a taken branch; kHotLoop's
    // crossing can fall on a fallthrough, and promotion then waits
    // for the back-edge.
    for (const std::string &target : targetNames()) {
        EdgeProfile one, hot;
        EXPECT_EQ(land(target, kCallFreeLoop, 1000, one).countAt,
                  (Counts{{"main", 1000}}))
            << target;
        EXPECT_EQ(land(target, kHotLoop, 778, hot).countAt,
                  (Counts{{"main", 779}}))
            << target;
    }
}

TEST(Adaptive, PromotionLandsWhereItDidInALoopCallingALeaf)
{
    for (const std::string &target : targetNames()) {
        EdgeProfile profile;
        Landing l = land(target, kLeafCalls, 777, profile);
        EXPECT_EQ(l.countAt, (Counts{{"leaf", 779}, {"main", 777}}))
            << target;
    }
}

TEST(Adaptive, PromotionLandsWhereItDidInARecursiveFunction)
{
    for (const std::string &target : targetNames()) {
        EdgeProfile profile;
        Landing l = land(target, kRecursive, 777, profile);
        EXPECT_EQ(l.countAt, (Counts{{"fib", 778}})) << target;
    }
}

TEST(Adaptive, PromotionLandsWhereItDidWhenSampling)
{
    auto sampled = [](MachineSimulator &sim, const Function *f) {
        sim.setProfileSampleInterval(16);
        return sim.run(f);
    };
    for (const std::string &target : targetNames()) {
        EdgeProfile calls, loop;
        EXPECT_EQ(land(target, kLeafCalls, 777, calls, sampled).countAt,
                  (Counts{{"leaf", 784}}))
            << target;
        // A loop with no calls spends its budget in weighted samples.
        EXPECT_EQ(land(target, kHotLoop, 778, loop, sampled).countAt,
                  (Counts{{"main", 784}}))
            << target;
    }
}

TEST(Adaptive, PromotionLandsWhereItDidAcrossAPause)
{
    // Paused well before main crosses the watermark, then resumed:
    // the resumed entry asks afresh.
    for (const std::string &target : targetNames()) {
        EdgeProfile profile;
        auto paused = [&](MachineSimulator &sim, const Function *f) {
            sim.setPauseAt(2000);
            ExecResult first = sim.run(f);
            EXPECT_TRUE(first.paused) << target;
            EXPECT_LT(profile.functionSamples(functionId("main")), 778u)
                << target;
            return sim.resume();
        };
        Landing l = land(target, kHotLoop, 778, profile, paused);
        EXPECT_EQ(l.countAt, (Counts{{"main", 779}})) << target;
    }
}

TEST(Adaptive, PreloadedProfilePromotesAtTheFirstTakenBranch)
{
    for (const std::string &target : targetNames()) {
        EdgeProfile profile;
        profile.noteId(BlockId{}, {functionId("main"), fnv1a("head")},
                       778);
        Landing l = land(target, kHotLoop, 778, profile);
        EXPECT_EQ(l.countAt, (Counts{{"main", 781}})) << target;
        EXPECT_EQ(l.checks, 1u) << target;
    }
}

TEST(Adaptive, RecordingIntoAnotherProfileDoesNotPromote)
{
    // The attached profile stays below the watermark: events recorded
    // elsewhere never move it, so the loop asks once and runs on.
    for (const std::string &target : targetNames()) {
        EdgeProfile attached, other;
        auto elsewhere = [&](MachineSimulator &sim, const Function *f) {
            sim.setProfile(&other);
            return sim.run(f);
        };
        Landing l = land(target, kCallFreeLoop, 1000, attached, elsewhere);
        EXPECT_EQ(l.promotions, 0u) << target;
        EXPECT_TRUE(l.countAt.empty()) << target;
        EXPECT_GT(other.functionSamples(functionId("main")), 1000u)
            << target;
        EXPECT_EQ(l.checks, 1u) << target;
    }
}

TEST(Adaptive, CallFreeLoopAsksAboutPromotionAtMostTwice)
{
    for (const std::string &target : targetNames()) {
        EdgeProfile profile;
        Landing l = land(target, kCallFreeLoop, 1000, profile);
        EXPECT_EQ(l.promotions, 1u) << target;
        EXPECT_LE(l.checks, 2u) << target;
    }
}

TEST(Adaptive, PromotionOfARecordedModuleKeepsItsIRBlocks)
{
    // Trace layout reaches instruction selection as a block order:
    // a promotion on a module recorded at its level runs no pass, so
    // it takes no snapshot, whose restore would replace every block.
    for (const std::string &target : targetNames()) {
        auto m = parseAssembly(kHotLoop).orDie();
        PassManager pm;
        addStandardPasses(pm, 2);
        pm.run(*m);
        ASSERT_EQ(m->optimizationLevel(), 2u);
        Function *f = m->getFunction("main");
        std::vector<const BasicBlock *> before;
        for (const auto &bb : *f)
            before.push_back(bb.get());

        CodeManager cm(*getTarget(target), adaptiveOpts(500));
        EdgeProfile profile;
        cm.setAdaptive(&profile, 500);
        ExecutionContext ctx(*m);
        MachineSimulator sim(ctx, cm);
        sim.setProfile(&profile);
        ASSERT_TRUE(sim.run(f).ok()) << target;
        ASSERT_EQ(cm.tierOf(f), kTierTrace) << target;

        std::vector<const BasicBlock *> after;
        for (const auto &bb : *f)
            after.push_back(bb.get());
        EXPECT_EQ(after, before) << target;

        // The promoted body is laid out trace-first all the same:
        // 'cold', between 'head' and 'hot' in the IR, moves behind
        // the hot path.
        std::vector<std::string> irNames, machineNames;
        for (const BasicBlock *bb : after)
            irNames.push_back(bb->name());
        for (const auto &mbb : cm.cached(f)->blocks())
            machineNames.push_back(mbb->name());
        EXPECT_NE(machineNames, irNames) << target;
        EXPECT_EQ(machineNames.front(), irNames.front()) << target;
    }
}

// --- Where the block loop's counts fold ------------------------------
//
// The block loop counts each event into its chain's slot array and
// folds the arrays into the profile before each promotion query, at
// a pause and when the activation ends. These runs pin every
// recorded profile, serialized, to what recording each event
// straight into the profile gave.

namespace {

// A loop that calls a leaf and invokes a callee that unwinds to the
// handler on every seventh iteration, then a recursive function.
const char *kFoldPoints = R"(
internal int %leaf(int %x) {
entry:
    %odd = rem int %x, 2
    %isodd = seteq int %odd, 1
    br bool %isodd, label %o, label %e
o:
    %a = mul int %x, 3
    br label %done
e:
    %b = add int %x, 7
    br label %done
done:
    %r = phi int [ %a, %o ], [ %b, %e ]
    ret int %r
}
internal int %check(int %x) {
entry:
    %r = rem int %x, 7
    %bad = seteq int %r, 3
    br bool %bad, label %throw, label %fine
throw:
    unwind
fine:
    ret int %x
}
internal int %fib(int %n) {
entry:
    %small = setlt int %n, 2
    br bool %small, label %base, label %rec
base:
    ret int %n
rec:
    %n1 = sub int %n, 1
    %a = call int %fib(int %n1)
    %n2 = sub int %n, 2
    %b = call int %fib(int %n2)
    %s = add int %a, %b
    ret int %s
}
int %main() {
entry:
    br label %loop
loop:
    %j = phi int [ 0, %entry ], [ %j2, %next ]
    %acc = phi int [ 0, %entry ], [ %acc3, %next ]
    %w = call int %leaf(int %j)
    %acc2 = add int %acc, %w
    %c = invoke int %check(int %j) to label %ok unwind label %caught
ok:
    br label %next
caught:
    br label %next
next:
    %v = phi int [ %c, %ok ], [ 1000, %caught ]
    %acc3 = add int %acc2, %v
    %j2 = add int %j, 1
    %more = setlt int %j2, 300
    br bool %more, label %loop, label %out
out:
    %f = call int %fib(int 12)
    %r = add int %acc3, %f
    ret int %r
}
)";

constexpr uint64_t kFoldWatermark = 300;

/** A recorded profile, pinned: its total weight and the hash of its
 *  serialized bytes. */
struct Pin
{
    uint64_t samples = 0;
    uint64_t bytes = 0;

    bool
    operator==(const Pin &o) const
    {
        return samples == o.samples && bytes == o.bytes;
    }
};

std::ostream &
operator<<(std::ostream &os, const Pin &p)
{
    return os << "{" << p.samples << ", 0x" << std::hex << p.bytes
              << std::dec << "}";
}

Pin
pinOf(const EdgeProfile &p)
{
    return {p.samples, fnv1a(writeEdgeProfile(p))};
}

/** Run main, which must match the interpreter. */
void
runMatching(MachineSimulator &sim, Module &m, const std::string &what)
{
    ExecResult r = sim.run(m.getFunction("main"));
    ExecutionContext refCtx(m);
    Interpreter interp(refCtx);
    ExecResult want = interp.run(m.getFunction("main"));
    ASSERT_TRUE(r.ok()) << what;
    EXPECT_EQ(r.value.i, want.value.i) << what;
}

} // namespace

TEST(Adaptive, FoldedProfileMatchesEveryEventRecorded)
{
    // -O0 runs the IR's own CFG. The adaptive run promotes leaf,
    // check, fib and main mid-run, each after a fold of its counts;
    // the warm run is their trace-tier bodies from the first call.
    // Block IDs name IR blocks, so all of them count the same events.
    const Pin want{3632, 0x3d024d3e29f2baa8};
    for (const std::string &target : targetNames()) {
        auto m = parseAssembly(kFoldPoints).orDie();
        verifyOrDie(*m);
        EdgeProfile o0;
        {
            CodeManager cm(*getTarget(target), CodeGenOptions{});
            ExecutionContext ctx(*m);
            MachineSimulator sim(ctx, cm);
            sim.setProfile(&o0);
            runMatching(sim, *m, target + " -O0");
        }
        CodeManager cm(*getTarget(target), adaptiveOpts(kFoldWatermark));
        EdgeProfile promoting, warm;
        cm.setAdaptive(&promoting, kFoldWatermark);
        for (EdgeProfile *p : {&promoting, &warm}) {
            ExecutionContext ctx(*m);
            MachineSimulator sim(ctx, cm);
            sim.setProfile(p);
            runMatching(sim, *m, target + " -O2+traces");
        }
        EXPECT_EQ(cm.promotions(), 4u) << target;
        EXPECT_EQ(pinOf(o0), want) << target << " -O0";
        EXPECT_EQ(pinOf(promoting), want) << target << " promoting";
        EXPECT_EQ(pinOf(warm), want) << target << " warm";
    }
}

TEST(Adaptive, BudgetStopKeepsTheCountsRecordedBeforeIt)
{
    // The budget runs out mid-loop, after some promotions: the
    // FatalError leaves every event before it in the profile.
    const std::map<std::string, Pin> want = {
        {"x86", {1031, 0x9d26a36e58e5c031}},
        {"sparc", {1430, 0xffb9a316e7a9afa4}},
        {"riscv", {1527, 0x9f667f6b7de028b7}},
    };
    for (const std::string &target : targetNames()) {
        auto m = parseAssembly(kFoldPoints).orDie();
        CodeManager cm(*getTarget(target), adaptiveOpts(kFoldWatermark));
        EdgeProfile profile;
        cm.setAdaptive(&profile, kFoldWatermark);
        ExecutionContext ctx(*m);
        MachineSimulator sim(ctx, cm);
        sim.setProfile(&profile);
        sim.setInstructionLimit(6000);
        EXPECT_THROW(sim.run(m->getFunction("main")), FatalError)
            << target;
        EXPECT_GE(cm.promotions(), 1u) << target;
        EXPECT_EQ(pinOf(profile), want.at(target)) << target;
    }
}

TEST(Adaptive, RunAfterInvalidationCountsTwice)
{
    // The second run enters a new chain of main, built after the
    // first one was retired and freed: nothing counted against the
    // old chain may leak into the new one.
    for (const std::string &target : targetNames()) {
        auto m = parseAssembly(kFoldPoints).orDie();
        CodeManager cm(*getTarget(target), CodeGenOptions{});
        ExecutionContext ctx(*m);
        MachineSimulator sim(ctx, cm);
        EdgeProfile profile;
        sim.setProfile(&profile);
        runMatching(sim, *m, target);
        EdgeProfile twice = profile;
        twice.merge(profile);

        const size_t reclaimed = cm.reclaimedObjects();
        cm.invalidate(m->getFunction("main"));
        EXPECT_EQ(cm.retiredBodies(), 0u) << target;
        EXPECT_EQ(cm.reclaimedObjects(), reclaimed + 1) << target;
        runMatching(sim, *m, target + " again");
        EXPECT_EQ(writeEdgeProfile(profile), writeEdgeProfile(twice))
            << target;
    }
}

TEST(Adaptive, PausedRunHoldsEveryEventWhileParked)
{
    // Parked mid-loop, after some promotions: the profile already
    // holds every event before the pause (a checkpoint reads it
    // there), and the resumed run ends with the whole run's profile.
    const std::map<std::string, Pin> want = {
        {"x86", {1031, 0x9d26a36e58e5c031}},
        {"sparc", {1431, 0x1289fed4b72f3807}},
        {"riscv", {1528, 0x802b894b23b0a7f9}},
    };
    for (const std::string &target : targetNames()) {
        auto m = parseAssembly(kFoldPoints).orDie();
        CodeManager cm(*getTarget(target), adaptiveOpts(kFoldWatermark));
        EdgeProfile profile;
        cm.setAdaptive(&profile, kFoldWatermark);
        ExecutionContext ctx(*m);
        MachineSimulator sim(ctx, cm);
        sim.setProfile(&profile);
        sim.setPauseAt(6000);
        ASSERT_TRUE(sim.run(m->getFunction("main")).paused) << target;
        EXPECT_GE(cm.promotions(), 1u) << target;
        EXPECT_EQ(pinOf(profile), want.at(target)) << target;
        ASSERT_TRUE(sim.resume().ok()) << target;
        EXPECT_EQ(pinOf(profile), (Pin{3632, 0x3d024d3e29f2baa8}))
            << target;
    }
}
