/**
 * @file
 * Adaptive reoptimization tests (paper Section 4.2 under LLEE):
 * runtime profiling of translated code, watermark-driven promotion
 * to the trace tier, persistence of profiles and trace-tier
 * translations across restarts, and fault containment of the trace
 * tier itself.
 */

#include <gtest/gtest.h>

#include "bytecode/bytecode.h"
#include "llee/envelope.h"
#include "llee/llee.h"
#include "parser/parser.h"
#include "trace/profile.h"
#include "verifier/verifier.h"
#include "vm/interpreter.h"
#include "vm/machine_sim.h"

using namespace llva;

namespace {

constexpr const char *kCache = "llee-native-cache";

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
    // codegen faults is abandoned and the function keeps running on
    // its existing -O2 body, correctly.
    auto [refValue, refOutput] = oracle();
    auto bc = hotLoopBytecode();

    TranslationHooks hooks;
    hooks.beforeCodegen = [](const Function &, unsigned level) {
        if (level == kTierTrace)
            throw std::runtime_error("injected trace-tier fault");
    };

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

TEST(Adaptive, SimulatorProfileMatchesInterpreterOnHotBlocks)
{
    // The machine simulator profiles *translated* code, but stable
    // IDs resolve to the same names the interpreter sees, so both of
    // its loops must count exactly what the interpreter counts on the
    // same IR: the block stepper on an -O0 body (whose machine CFG
    // mirrors the IR CFG), and the chained loop on a warm run — main
    // promoted by the first run, its trace-tier body chained from the
    // first instruction — against the IR translation ran -O2 over.
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
