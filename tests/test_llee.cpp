/**
 * @file
 * LLEE tests (paper Section 4.1): the OS-independent storage API,
 * machine-code serialization ("relocation" on load), offline
 * caching of translations across executions, offline (idle-time)
 * translation, operation without any storage API, staleness
 * detection via content keys, and profile persistence.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "bytecode/bytecode.h"
#include "llee/envelope.h"
#include "llee/fault_storage.h"
#include "llee/llee.h"
#include "llee/mcode_io.h"
#include "parser/parser.h"
#include "support/hashing.h"
#include "support/statistic.h"
#include "verifier/verifier.h"
#include "vm/machine_sim.h"

using namespace llva;

namespace {

const char *kProgram = R"(
declare void %putint(long %v)
internal int %helper(int %x) {
entry:
    %r = mul int %x, 3
    ret int %r
}
int %main() {
entry:
    %a = call int %helper(int 5)
    %b = call int %helper(int 7)
    %s = add int %a, %b
    call void %putint(long 11)
    ret int %s
}
)";

std::vector<uint8_t>
program()
{
    auto m = parseAssembly(kProgram).orDie();
    verifyOrDie(*m);
    return writeBytecode(*m);
}

} // namespace

TEST(Storage, MemoryStorageBasics)
{
    MemoryStorage s;
    EXPECT_TRUE(s.createCache("c"));
    EXPECT_EQ(s.cacheSize("c"), 0u);
    EXPECT_EQ(s.cacheSize("absent"), UINT64_MAX);

    std::vector<uint8_t> data = {1, 2, 3};
    EXPECT_TRUE(s.write("c", "a", data));
    EXPECT_EQ(s.cacheSize("c"), 3u);
    std::vector<uint8_t> back;
    EXPECT_TRUE(s.read("c", "a", back));
    EXPECT_EQ(back, data);
    EXPECT_FALSE(s.read("c", "missing", back));

    uint64_t t1 = s.timestamp("c", "a");
    EXPECT_NE(t1, 0u);
    EXPECT_EQ(s.timestamp("c", "missing"), 0u);
    s.write("c", "a", data);
    EXPECT_GT(s.timestamp("c", "a"), t1); // newer write, newer stamp

    EXPECT_EQ(s.list("c").size(), 1u);
    EXPECT_TRUE(s.remove("c", "a"));
    EXPECT_FALSE(s.remove("c", "a")); // already gone
    EXPECT_EQ(s.timestamp("c", "a"), 0u);
    EXPECT_TRUE(s.deleteCache("c"));
    EXPECT_EQ(s.cacheSize("c"), UINT64_MAX);
}

TEST(Storage, FileStorageBasics)
{
    std::string root =
        ::testing::TempDir() + "/llva_storage_test";
    FileStorage s(root);
    EXPECT_TRUE(s.createCache("c"));
    std::vector<uint8_t> data = {9, 8, 7, 6};
    EXPECT_TRUE(s.write("c", "prog.fn.x86", data));
    std::vector<uint8_t> back;
    EXPECT_TRUE(s.read("c", "prog.fn.x86", back));
    EXPECT_EQ(back, data);
    EXPECT_NE(s.timestamp("c", "prog.fn.x86"), 0u);
    EXPECT_EQ(s.cacheSize("c"), 4u);
    EXPECT_TRUE(s.remove("c", "prog.fn.x86"));
    EXPECT_EQ(s.timestamp("c", "prog.fn.x86"), 0u);
    EXPECT_TRUE(s.deleteCache("c"));
}

TEST(Storage, FileStorageIgnoresTornTempFiles)
{
    // A crash mid-write leaves only a "<name>.tmp" partial; the
    // published entry is written via temp-file + fsync + rename, so
    // readers never see torn bytes and orphaned temps are invisible.
    std::string root = ::testing::TempDir() + "/llva_torn_test";
    std::filesystem::remove_all(root);
    FileStorage s(root);
    ASSERT_TRUE(s.createCache("c"));
    {
        std::ofstream torn(root + "/c/entry.tmp", std::ios::binary);
        torn << "partial-garbage";
    }
    EXPECT_TRUE(s.list("c").empty());
    EXPECT_EQ(s.cacheSize("c"), 0u);

    // The next write of the same entry replaces the orphan and
    // publishes atomically.
    std::vector<uint8_t> data = {1, 2, 3, 4, 5};
    EXPECT_TRUE(s.write("c", "entry", data));
    std::vector<uint8_t> back;
    EXPECT_TRUE(s.read("c", "entry", back));
    EXPECT_EQ(back, data);
    EXPECT_EQ(s.list("c").size(), 1u);
    EXPECT_FALSE(
        std::filesystem::exists(root + "/c/entry.tmp"));
    std::filesystem::remove_all(root);
}

TEST(Storage, FileStorageFailsSoftlyOnBadRoot)
{
    // Root whose parent is a regular file: every directory creation
    // fails. The API must report false, never throw.
    std::string blocker = ::testing::TempDir() + "/llva_blocker";
    std::filesystem::remove_all(blocker);
    {
        std::ofstream f(blocker);
        f << "x";
    }
    FileStorage s(blocker + "/sub");
    EXPECT_FALSE(s.createCache("c"));
    EXPECT_FALSE(s.write("c", "a", {1, 2, 3}));
    std::vector<uint8_t> back;
    EXPECT_FALSE(s.read("c", "a", back));
    EXPECT_EQ(s.timestamp("c", "a"), 0u);
    EXPECT_EQ(s.cacheSize("c"), UINT64_MAX);
    EXPECT_TRUE(s.list("c").empty());
    EXPECT_FALSE(s.remove("c", "a"));
    std::filesystem::remove_all(blocker);
}

TEST(Storage, FileStorageRecreatesDeletedCacheDirOnWrite)
{
    std::string root = ::testing::TempDir() + "/llva_recreate_test";
    std::filesystem::remove_all(root);
    FileStorage s(root);
    ASSERT_TRUE(s.createCache("c"));
    std::filesystem::remove_all(root); // rug pulled
    EXPECT_TRUE(s.write("c", "a", {7, 8}));
    std::vector<uint8_t> back;
    EXPECT_TRUE(s.read("c", "a", back));
    EXPECT_EQ(back, (std::vector<uint8_t>{7, 8}));
    std::filesystem::remove_all(root);
}

TEST(MCodeIO, RoundTripsTranslation)
{
    auto m = parseAssembly(kProgram).orDie();
    Function *f = m->getFunction("helper");
    auto mf = translateFunction(*f, *getTarget("sparc"));
    auto bytes = writeMachineFunction(*mf);
    auto back = readMachineFunction(bytes, *m, f).orDie();

    EXPECT_EQ(back->frameSize(), mf->frameSize());
    EXPECT_EQ(back->blocks().size(), mf->blocks().size());
    EXPECT_EQ(back->instructionCount(), mf->instructionCount());
    // Deep equality: re-serialization is byte-identical.
    EXPECT_EQ(writeMachineFunction(*back), bytes);
}

TEST(MCodeIO, RoundTripsSuccessorListLongerThanBlockList)
{
    // A folded multiway compare chain gives one block more successor
    // entries than the function has blocks — the same target listed
    // once per arm (197.parser's digit dispatch: 12 successors over
    // 11 blocks). The reader used to treat successor-count >
    // block-count as a corrupt length field and reject the valid
    // entry at load time.
    auto m = parseAssembly(kProgram).orDie();
    Function *f = m->getFunction("helper");
    auto mf = std::make_unique<MachineFunction>(f, "x86");
    auto *dispatch = mf->createBlock("dispatch");
    auto *hit = mf->createBlock("hit");
    auto *miss = mf->createBlock("miss");
    for (int i = 0; i < 10; ++i)
        dispatch->successors().push_back(hit);
    dispatch->successors().push_back(miss);
    ASSERT_GT(dispatch->successors().size(), mf->blocks().size());

    auto bytes = writeMachineFunction(*mf);
    auto back = readMachineFunction(bytes, *m, f).orDie();
    ASSERT_EQ(back->blocks().size(), 3u);
    EXPECT_EQ(back->blocks()[0]->successors().size(), 11u);
    EXPECT_EQ(writeMachineFunction(*back), bytes);
}

TEST(MCodeIO, CachedCodeStillRuns)
{
    auto m = parseAssembly(kProgram).orDie();
    verifyOrDie(*m);
    Target &t = *getTarget("x86");

    // Translate everything, serialize, reload into a fresh manager.
    CodeManager cm1(t);
    cm1.translateAll(*m);
    CodeManager cm2(t);
    for (const auto &f : m->functions()) {
        if (f->isDeclaration())
            continue;
        auto bytes = writeMachineFunction(*cm1.get(f.get()));
        cm2.install(f.get(),
                    readMachineFunction(bytes, *m, f.get()).orDie(),
                    cm1.tierOf(f.get()));
    }
    ExecutionContext ctx(*m);
    MachineSimulator sim(ctx, cm2);
    auto r = sim.run(m->getFunction("main"));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(static_cast<int64_t>(r.value.i), 36);
    EXPECT_EQ(cm2.functionsTranslated(), 0u); // all from "cache"
}

TEST(MCodeIO, RejectsWrongFunction)
{
    auto m = parseAssembly(kProgram).orDie();
    auto mf = translateFunction(*m->getFunction("helper"),
                                *getTarget("sparc"));
    auto bytes = writeMachineFunction(*mf);
    auto r = readMachineFunction(bytes, *m, m->getFunction("main"));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message().find("helper"), std::string::npos);
}

TEST(MCodeIO, EveryCorruptionRejectedOrDecodesNoCrash)
{
    // The mcode reader sits *behind* the envelope checksum in
    // production, but must stand alone: no damaged input may crash,
    // leak, or escape as an exception. (Unlike the bytecode reader
    // there is no checksum here, so some flips decode successfully —
    // that is fine; the envelope is the integrity layer.)
    auto m = parseAssembly(kProgram).orDie();
    Function *f = m->getFunction("helper");
    auto mf = translateFunction(*f, *getTarget("sparc"));
    auto bytes = writeMachineFunction(*mf);
    for (size_t i = 0; i < bytes.size(); ++i) {
        for (uint8_t delta : {uint8_t(0x01), uint8_t(0xff)}) {
            std::vector<uint8_t> bad = bytes;
            bad[i] ^= delta;
            auto r = readMachineFunction(bad, *m, f);
            (void)r; // Error or a decodable function — never a throw
        }
    }
    for (size_t len = 0; len < bytes.size(); ++len) {
        std::vector<uint8_t> bad(bytes.begin(), bytes.begin() + len);
        auto r = readMachineFunction(bad, *m, f);
        EXPECT_FALSE(r.ok()) << "truncation to " << len;
    }
}

TEST(MCodeIO, InstallCacheEntryAppliesTheOneEntryRule)
{
    // Every cache entry LLEE loads or a checkpoint restores enters the
    // code cache through installCacheEntry: a function gets either a
    // native body at a tier or an interpreter pin, never both.
    auto m = parseAssembly(kProgram).orDie();
    verifyOrDie(*m);
    Target &t = *getTarget("x86");
    const Function *helper = m->getFunction("helper");
    const std::vector<uint8_t> body =
        writeMachineFunction(*translateFunction(*helper, t));

    // An empty interpreter-tier payload is a pin.
    CodeManager pinned(t);
    EXPECT_TRUE(
        installCacheEntry(pinned, *m, helper, kTierInterpreter, {}));
    EXPECT_TRUE(pinned.isInterpreted(helper));
    EXPECT_FALSE(pinned.has(helper));

    // An interpreter-tier payload that carries a body is rejected.
    CodeManager both(t);
    EXPECT_FALSE(
        installCacheEntry(both, *m, helper, kTierInterpreter, body));
    EXPECT_FALSE(both.isInterpreted(helper));
    EXPECT_FALSE(both.has(helper));

    // A garbage native payload is rejected.
    CodeManager garbage(t);
    EXPECT_FALSE(
        installCacheEntry(garbage, *m, helper, 0, {0xde, 0xad, 0xbe}));
    EXPECT_FALSE(garbage.isInterpreted(helper));
    EXPECT_FALSE(garbage.has(helper));

    // A valid native payload is installed at its tier.
    CodeManager native(t);
    EXPECT_TRUE(installCacheEntry(native, *m, helper, 2, body));
    EXPECT_FALSE(native.isInterpreted(helper));
    ASSERT_TRUE(native.has(helper));
    EXPECT_EQ(native.tierOf(helper), 2u);
    EXPECT_EQ(writeMachineFunction(*native.cached(helper)), body);
}

TEST(LLEE, ColdRunTranslatesWarmRunHitsCache)
{
    auto bc = program();
    MemoryStorage storage;
    LLEE llee(*getTarget("sparc"), &storage);

    LLEEResult cold = llee.execute(bc);
    ASSERT_TRUE(cold.exec.ok());
    EXPECT_EQ(static_cast<int64_t>(cold.exec.value.i), 36);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.cacheMisses, 2u); // main + helper
    EXPECT_EQ(cold.functionsTranslatedOnline, 2u);

    LLEEResult warm = llee.execute(bc);
    ASSERT_TRUE(warm.exec.ok());
    EXPECT_EQ(warm.exec.value.i, cold.exec.value.i);
    EXPECT_EQ(warm.output, cold.output);
    EXPECT_EQ(warm.cacheHits, 2u);
    EXPECT_EQ(warm.cacheMisses, 0u);
    EXPECT_EQ(warm.functionsTranslatedOnline, 0u);
}

TEST(LLEE, UnverifiableModuleIsRejected)
{
    // %x is defined only on a branch that is not taken, yet returned:
    // the bytecode decodes, but the verifier rejects the module. LLEE
    // refuses it before translating, running or caching anything.
    auto m = parseAssembly(R"(
int %main() {
entry:
    br bool false, label %def, label %use
def:
    %x = add int 1, 2
    br label %use
use:
    ret int %x
}
)").orDie();
    ASSERT_FALSE(verifyModule(*m).ok());
    auto bc = writeBytecode(*m);
    ASSERT_TRUE(readBytecode(bc).ok());

    for (const std::string &target : targetNames()) {
        MemoryStorage storage;
        LLEE llee(*getTarget(target), &storage);
        EXPECT_THROW(llee.execute(bc), FatalError) << target;
        EXPECT_THROW(llee.offlineTranslate(bc), FatalError) << target;
        EXPECT_EQ(storage.cacheSize("llee-native-cache"), 0u) << target;
    }
}

TEST(LLEE, OversizedGlobalImageIsRejected)
{
    // The globals do not fit below the 64 MiB context's stack region:
    // laying them out is a FatalError, like unverifiable bytecode,
    // not an abort when the string initializer is written past the
    // end of memory.
    auto m = parseAssembly(R"(
%big = global [70000000 x ubyte] zeroinitializer
%msg = global [3 x sbyte] c"hi\00"
int %main() {
entry:
    ret int 0
}
)").orDie();
    verifyOrDie(*m);
    EXPECT_THROW(ExecutionContext ctx(*m), FatalError);
    auto bc = writeBytecode(*m);

    for (const std::string &target : targetNames()) {
        MemoryStorage storage;
        LLEE llee(*getTarget(target), &storage);
        EXPECT_THROW(llee.execute(bc), FatalError) << target;
        EXPECT_EQ(storage.cacheSize("llee-native-cache"), 0u) << target;
    }
}

TEST(LLEE, WorksWithoutStorageAPI)
{
    // "they are strictly optional and the system will operate
    // correctly in their absence."
    auto bc = program();
    LLEE llee(*getTarget("x86"), nullptr);
    LLEEResult r1 = llee.execute(bc);
    LLEEResult r2 = llee.execute(bc);
    ASSERT_TRUE(r1.exec.ok());
    EXPECT_EQ(r1.exec.value.i, r2.exec.value.i);
    // Every run translates online (the DAISY/Crusoe situation).
    EXPECT_EQ(r2.functionsTranslatedOnline, 2u);
    EXPECT_EQ(r2.cacheHits, 0u);
}

TEST(LLEE, OfflineTranslationPrimesTheCache)
{
    auto bc = program();
    MemoryStorage storage;
    LLEE llee(*getTarget("sparc"), &storage);

    // Idle-time translation without execution.
    EXPECT_EQ(llee.offlineTranslate(bc), 2u);
    EXPECT_EQ(llee.offlineTranslate(bc), 0u); // already current

    LLEEResult run = llee.execute(bc);
    ASSERT_TRUE(run.exec.ok());
    EXPECT_EQ(run.cacheHits, 2u);
    EXPECT_EQ(run.functionsTranslatedOnline, 0u);
}

TEST(LLEE, OfflineTranslationSkipsCurrentEntries)
{
    // Regression test for §4.2 incremental retranslation: an entry
    // whose storage timestamp is already set is current (the content
    // hash in its key guarantees validity) and must be skipped, not
    // retranslated or overwritten.
    auto bc = program();
    auto m = readBytecode(bc).orDie();
    MemoryStorage storage;
    Target &t = *getTarget("sparc");
    LLEE llee(t, &storage);

    // Pre-populate main's slot with sentinel bytes; its timestamp is
    // now nonzero, so offline translation must leave it alone.
    std::string mainKey = LLEE::translationKey(
        LLEE::programKey(bc), *m->getFunction("main"), t, {});
    std::vector<uint8_t> sentinel = {0xde, 0xad, 0xbe, 0xef};
    ASSERT_TRUE(storage.createCache("llee-native-cache"));
    ASSERT_TRUE(storage.write("llee-native-cache", mainKey, sentinel));
    uint64_t stamp = storage.timestamp("llee-native-cache", mainKey);
    ASSERT_NE(stamp, 0u);

    // Only %helper is missing, so exactly one function translates.
    EXPECT_EQ(llee.offlineTranslate(bc), 1u);

    std::vector<uint8_t> back;
    ASSERT_TRUE(storage.read("llee-native-cache", mainKey, back));
    EXPECT_EQ(back, sentinel); // untouched
    EXPECT_EQ(storage.timestamp("llee-native-cache", mainKey), stamp);

    // A second pass now finds every entry current and does nothing.
    EXPECT_EQ(llee.offlineTranslate(bc), 0u);
}

TEST(LLEE, ModifiedProgramMissesStaleCache)
{
    MemoryStorage storage;
    LLEE llee(*getTarget("sparc"), &storage);
    auto bc1 = program();
    llee.execute(bc1);

    // A different program (content hash differs) must not reuse the
    // old translations — the timestamp/validity check of §4.1.
    auto m = parseAssembly(R"(
int %main() {
entry:
    ret int 1
}
)").orDie();
    auto bc2 = writeBytecode(*m);
    LLEEResult r = llee.execute(bc2);
    EXPECT_EQ(r.cacheHits, 0u);
    EXPECT_EQ(static_cast<int64_t>(r.exec.value.i), 1);
}

TEST(LLEE, SeparateCachesPerTargetAndAllocator)
{
    auto bc = program();
    MemoryStorage storage;
    LLEE sparc(*getTarget("sparc"), &storage);
    sparc.execute(bc);

    // Same storage, different target: no sharing.
    LLEE x86(*getTarget("x86"), &storage);
    LLEEResult r = x86.execute(bc);
    EXPECT_EQ(r.cacheHits, 0u);

    // Same target, different allocator: no sharing either.
    CodeGenOptions local;
    local.allocator = CodeGenOptions::Allocator::Local;
    LLEE sparcLocal(*getTarget("sparc"), &storage, local);
    LLEEResult r2 = sparcLocal.execute(bc);
    EXPECT_EQ(r2.cacheHits, 0u);
    EXPECT_EQ(r2.exec.value.i, r.exec.value.i);
}

TEST(LLEE, CachedAndFreshRunsAgreeOnWorkStatistics)
{
    auto bc = program();
    MemoryStorage storage;
    LLEE llee(*getTarget("x86"), &storage);
    LLEEResult cold = llee.execute(bc);
    LLEEResult warm = llee.execute(bc);
    // Same machine instructions executed either way.
    EXPECT_EQ(cold.machineInstructionsExecuted,
              warm.machineInstructionsExecuted);
    EXPECT_EQ(cold.output, warm.output);
}

TEST(LLEE, ProfilePersistence)
{
    auto m = parseAssembly(kProgram).orDie();
    verifyOrDie(*m);
    auto bc = writeBytecode(*m);

    EdgeProfile profile;
    ExecutionContext ctx(*m);
    Interpreter interp(ctx);
    interp.setProfile(&profile);
    interp.run(m->getFunction("main"));
    EXPECT_FALSE(profile.blocks.empty());

    MemoryStorage storage;
    LLEE llee(*getTarget("sparc"), &storage);
    EXPECT_TRUE(llee.writeProfile(bc, profile, *m));
    std::vector<uint8_t> bytes;
    EXPECT_TRUE(storage.read("llee-native-cache",
                             LLEE::programKey(bc) + ".profile",
                             bytes));
    EXPECT_FALSE(bytes.empty());
}

// --- Trust boundary: the cache is untrusted input --------------------

namespace {

constexpr const char *kCache = "llee-native-cache";

/** Cache entry names of translations (profiles excluded). */
std::vector<std::string>
translationEntries(StorageAPI &s)
{
    std::vector<std::string> out;
    for (const std::string &name : s.list(kCache))
        if (name.find(".profile") == std::string::npos)
            out.push_back(name);
    return out;
}

} // namespace

TEST(Envelope, SealOpenRoundTrip)
{
    TranslationKey key;
    key.targetName = "sparc";
    key.allocator = 1;
    key.coalesce = 1;
    key.sourceHash = 0xabcdef;
    std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
    auto env = sealTranslation(key, payload);

    std::vector<uint8_t> back;
    EXPECT_EQ(openTranslation(env, key, back), EnvelopeStatus::Ok);
    EXPECT_EQ(back, payload);

    // Any single-byte damage -> Corrupt, payload untouched.
    for (size_t i = 0; i < env.size(); ++i) {
        auto bad = env;
        bad[i] ^= 0x40;
        std::vector<uint8_t> out = {9};
        EXPECT_EQ(openTranslation(bad, key, out),
                  EnvelopeStatus::Corrupt)
            << "byte " << i;
        EXPECT_EQ(out, (std::vector<uint8_t>{9}));
    }
    // Any truncation -> Corrupt.
    for (size_t len = 0; len < env.size(); ++len) {
        std::vector<uint8_t> bad(env.begin(), env.begin() + len);
        std::vector<uint8_t> out;
        EXPECT_EQ(openTranslation(bad, key, out),
                  EnvelopeStatus::Corrupt)
            << "length " << len;
    }

    // Intact but mismatched key -> Incompatible / Stale.
    TranslationKey other = key;
    other.targetName = "x86";
    std::vector<uint8_t> out;
    EXPECT_EQ(openTranslation(env, other, out),
              EnvelopeStatus::Incompatible);
    other = key;
    other.allocator = 0;
    EXPECT_EQ(openTranslation(env, other, out),
              EnvelopeStatus::Incompatible);
    other = key;
    other.sourceHash = 0x1234;
    EXPECT_EQ(openTranslation(env, other, out),
              EnvelopeStatus::Stale);

    EXPECT_EQ(inspectTranslation(env), EnvelopeStatus::Ok);
    TranslationKey seen;
    inspectTranslation(env, &seen);
    EXPECT_EQ(seen.targetName, "sparc");
    EXPECT_EQ(seen.sourceHash, 0xabcdefu);
}

TEST(LLEE, CorruptedCacheEntryIsEvictedAndRepaired)
{
    auto bc = program();
    MemoryStorage storage;
    LLEE llee(*getTarget("sparc"), &storage);
    llee.execute(bc);
    auto entries = translationEntries(storage);
    ASSERT_EQ(entries.size(), 2u);

    // Flip a byte in the middle of one cached translation.
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(storage.read(kCache, entries[0], bytes));
    bytes[bytes.size() / 2] ^= 0x10;
    ASSERT_TRUE(storage.write(kCache, entries[0], bytes));

    uint64_t corruptBefore = stats::value("llee.cache_corrupt");
    LLEEResult r = llee.execute(bc);
    ASSERT_TRUE(r.exec.ok());
    EXPECT_EQ(static_cast<int64_t>(r.exec.value.i), 36);
    EXPECT_EQ(r.cacheHits, 1u);
    EXPECT_EQ(r.cacheMisses, 1u);
    EXPECT_EQ(r.cacheInvalid, 1u);
    EXPECT_EQ(stats::value("llee.cache_corrupt"), corruptBefore + 1);

    // The damaged entry was evicted and rewritten: full hit now.
    LLEEResult healed = llee.execute(bc);
    EXPECT_EQ(healed.cacheHits, 2u);
    EXPECT_EQ(healed.cacheInvalid, 0u);
    EXPECT_EQ(static_cast<int64_t>(healed.exec.value.i), 36);
}

TEST(LLEE, TruncatedCacheEntryIsEvictedAndRepaired)
{
    // A torn write that somehow landed (storage without atomic
    // publish): the envelope rejects it, LLEE retranslates.
    auto bc = program();
    MemoryStorage storage;
    LLEE llee(*getTarget("sparc"), &storage);
    llee.execute(bc);
    auto entries = translationEntries(storage);
    ASSERT_EQ(entries.size(), 2u);
    for (const auto &name : entries) {
        std::vector<uint8_t> bytes;
        ASSERT_TRUE(storage.read(kCache, name, bytes));
        bytes.resize(bytes.size() / 3);
        ASSERT_TRUE(storage.write(kCache, name, bytes));
    }

    LLEEResult r = llee.execute(bc);
    ASSERT_TRUE(r.exec.ok());
    EXPECT_EQ(static_cast<int64_t>(r.exec.value.i), 36);
    EXPECT_EQ(r.cacheHits, 0u);
    EXPECT_EQ(r.cacheInvalid, 2u);
    LLEEResult healed = llee.execute(bc);
    EXPECT_EQ(healed.cacheHits, 2u);
}

TEST(LLEE, IncompatibleAndStaleEntriesAreRejected)
{
    auto bc = program();
    auto m = readBytecode(bc).orDie();
    MemoryStorage storage;
    Target &t = *getTarget("sparc");
    LLEE llee(t, &storage);

    // Plant intact envelopes under main's key whose compatibility
    // keys are wrong: one from an "other translator" (allocator
    // byte differs), one derived from different source bytecode.
    std::string mainKey = LLEE::translationKey(
        LLEE::programKey(bc), *m->getFunction("main"), t, {});
    ASSERT_TRUE(storage.createCache(kCache));

    TranslationKey alien;
    alien.targetName = "sparc";
    alien.allocator = 0x7f; // no such configuration
    alien.coalesce = 1;
    std::vector<uint8_t> payload = {1, 2, 3};
    ASSERT_TRUE(storage.write(kCache, mainKey,
                              sealTranslation(alien, payload)));

    uint64_t incompatBefore =
        stats::value("llee.cache_incompatible");
    LLEEResult r1 = llee.execute(bc);
    ASSERT_TRUE(r1.exec.ok());
    EXPECT_EQ(static_cast<int64_t>(r1.exec.value.i), 36);
    EXPECT_GE(r1.cacheInvalid, 1u);
    EXPECT_EQ(stats::value("llee.cache_incompatible"),
              incompatBefore + 1);

    // Now a stale one: right configuration, wrong source hash.
    CodeGenOptions defaults;
    TranslationKey stale;
    stale.targetName = "sparc";
    stale.allocator = static_cast<uint8_t>(defaults.allocator);
    stale.coalesce = defaults.coalesce ? 1 : 0;
    stale.sourceHash = 0xdeadbeef; // not this program
    ASSERT_TRUE(storage.write(kCache, mainKey,
                              sealTranslation(stale, payload)));
    uint64_t staleBefore = stats::value("llee.cache_stale");
    LLEEResult r2 = llee.execute(bc);
    ASSERT_TRUE(r2.exec.ok());
    EXPECT_EQ(static_cast<int64_t>(r2.exec.value.i), 36);
    EXPECT_EQ(stats::value("llee.cache_stale"), staleBefore + 1);
}

TEST(LLEE, InterpreterTierEntryCarryingABodyIsEvicted)
{
    // A correctly sealed entry for helper, under the right
    // compatibility key, whose tier says "pinned to the interpreter"
    // but whose payload is a valid body. It is neither a pin nor a
    // native entry, so LLEE must evict it as Corrupt and retranslate
    // rather than install the body beside a pin.
    auto bc = program();
    auto m = readBytecode(bc).orDie();
    Target &t = *getTarget("x86");
    const Function *helper = m->getFunction("helper");
    const CodeGenOptions defaults;
    TranslationKey k;
    k.targetName = t.name();
    k.allocator = static_cast<uint8_t>(defaults.allocator);
    k.coalesce = defaults.coalesce ? 1 : 0;
    k.optLevel = defaults.optLevel;
    k.tier = kTierInterpreter;
    k.sourceHash = fnv1a(
        reinterpret_cast<const uint8_t *>(helper->name().data()),
        helper->name().size(), fnv1a(bc));
    const std::string name = LLEE::translationKey(LLEE::programKey(bc),
                                                  *helper, t, defaults);
    MemoryStorage storage;
    ASSERT_TRUE(storage.createCache(kCache));
    ASSERT_TRUE(storage.write(
        kCache, name,
        sealTranslation(
            k, writeMachineFunction(*translateFunction(*helper, t)))));

    ExecutionContext oracleCtx(*m);
    Interpreter interp(oracleCtx);
    ExecResult oracle = interp.run(m->getFunction("main"));
    ASSERT_TRUE(oracle.ok());

    uint64_t corruptBefore = stats::value("llee.cache_corrupt");
    LLEE llee(t, &storage);
    LLEEResult r = llee.execute(bc);
    ASSERT_TRUE(r.exec.ok());
    EXPECT_EQ(r.exec.value.i, oracle.value.i);
    EXPECT_EQ(r.output, oracleCtx.output());
    EXPECT_EQ(r.cacheInvalid, 1u);
    EXPECT_EQ(r.cacheHits, 0u);
    EXPECT_EQ(r.functionsInterpreted, 0u);
    EXPECT_EQ(stats::value("llee.cache_corrupt"), corruptBefore + 1);

    // The entry was rewritten as a real translation.
    std::vector<uint8_t> sealed, payload;
    ASSERT_TRUE(storage.read(kCache, name, sealed));
    uint8_t tier = kTierInterpreter;
    ASSERT_EQ(openTranslation(sealed, k, payload, &tier),
              EnvelopeStatus::Ok);
    EXPECT_EQ(tier, 0u);
    EXPECT_TRUE(readMachineFunction(payload, *m, helper).ok());
}

TEST(LLEE, CrossTargetCacheEntryIsIncompatibleNotCorrupt)
{
    // A translation cached for one I-ISA planted under the storage
    // key of another must classify as Incompatible (the key's
    // targetName protects it), NOT Corrupt: the envelope is intact,
    // it just encodes a different machine's opcodes. It is evicted
    // and retranslated without touching the corruption statistic.
    auto bc = program();
    auto m = readBytecode(bc).orDie();
    Target &sparc = *getTarget("sparc");
    Target &riscv = *getTarget("riscv");

    // Populate a cache with genuine sparc translations.
    MemoryStorage sparcStore;
    LLEE sparcLLEE(sparc, &sparcStore);
    ASSERT_TRUE(sparcLLEE.execute(bc).exec.ok());
    std::string sparcKey = LLEE::translationKey(
        LLEE::programKey(bc), *m->getFunction("main"), sparc, {});
    std::vector<uint8_t> env;
    ASSERT_TRUE(sparcStore.read(kCache, sparcKey, env));

    // Plant the sparc envelope where the riscv configuration will
    // look for main.
    std::string riscvKey = LLEE::translationKey(
        LLEE::programKey(bc), *m->getFunction("main"), riscv, {});
    MemoryStorage planted;
    ASSERT_TRUE(planted.createCache(kCache));
    ASSERT_TRUE(planted.write(kCache, riscvKey, env));

    uint64_t corruptBefore = stats::value("llee.cache_corrupt");
    uint64_t incompatBefore =
        stats::value("llee.cache_incompatible");
    LLEE riscvLLEE(riscv, &planted);
    LLEEResult r = riscvLLEE.execute(bc);
    ASSERT_TRUE(r.exec.ok());
    EXPECT_EQ(static_cast<int64_t>(r.exec.value.i), 36);
    EXPECT_GE(r.cacheInvalid, 1u);
    EXPECT_EQ(stats::value("llee.cache_corrupt"), corruptBefore);
    EXPECT_EQ(stats::value("llee.cache_incompatible"),
              incompatBefore + 1);

    // The foreign entry was evicted and replaced by a riscv
    // translation: clean hits from here on.
    LLEEResult healed = riscvLLEE.execute(bc);
    ASSERT_TRUE(healed.exec.ok());
    EXPECT_EQ(healed.cacheHits, 2u);
    EXPECT_EQ(healed.cacheInvalid, 0u);
    EXPECT_EQ(static_cast<int64_t>(healed.exec.value.i), 36);
}

TEST(LLEE, DeadStorageDegradesToNoStorageBehaviour)
{
    // failRate 1.0: every storage call fails. Must behave exactly
    // like the no-storage configuration — correct output, online
    // translation every run, no crash.
    auto bc = program();
    LLEE baseline(*getTarget("sparc"), nullptr);
    LLEEResult want = baseline.execute(bc);

    MemoryStorage inner;
    FaultConfig cfg;
    cfg.failRate = 1.0;
    FaultInjectingStorage dead(inner, cfg);
    LLEE llee(*getTarget("sparc"), &dead);
    for (int run = 0; run < 2; ++run) {
        LLEEResult r = llee.execute(bc);
        ASSERT_TRUE(r.exec.ok());
        EXPECT_EQ(r.exec.value.i, want.exec.value.i);
        EXPECT_EQ(r.output, want.output);
        EXPECT_EQ(r.cacheHits, 0u);
        EXPECT_EQ(r.functionsTranslatedOnline, 2u);
    }
    EXPECT_GT(dead.opsFailed(), 0u);
}

TEST(LLEE, MidWriteCrashSimulationOnDisk)
{
    // FileStorage end-to-end: a run populates the cache, then a
    // "crash" leaves a torn temp file beside a valid entry. The
    // next run must ignore the orphan and still hit both entries.
    std::string root = ::testing::TempDir() + "/llva_llee_crash_test";
    std::filesystem::remove_all(root);
    {
        FileStorage storage(root);
        LLEE llee(*getTarget("x86"), &storage);
        auto bc = program();
        llee.execute(bc);

        auto entries = translationEntries(storage);
        ASSERT_EQ(entries.size(), 2u);
        {
            std::ofstream torn(root + "/" + std::string(kCache) +
                                   "/" + entries[0] + ".tmp",
                               std::ios::binary);
            torn << "torn-mid-write";
        }
        LLEEResult r = llee.execute(bc);
        ASSERT_TRUE(r.exec.ok());
        EXPECT_EQ(static_cast<int64_t>(r.exec.value.i), 36);
        EXPECT_EQ(r.cacheHits, 2u);
        EXPECT_EQ(r.cacheInvalid, 0u);
    }
    std::filesystem::remove_all(root);
}
