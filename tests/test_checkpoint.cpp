/**
 * @file
 * VM checkpoint/restore tests: a running program's heap, globals,
 * captured output, OS state (SMC redirects), code-cache index, and
 * runtime profile must round-trip through a sealed checkpoint into a
 * fresh context — including onto a *different* target ISA, where
 * native entries classify as Incompatible and heal by on-demand
 * retranslation while the carried profile re-promotes immediately.
 * Suspended activations round-trip same-target (and are rejected
 * cross-target), and damaged or mismatched blobs never restore.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <fstream>

#include "bytecode/bytecode.h"
#include "llee/checkpoint.h"
#include "llee/envelope.h"
#include "parser/parser.h"
#include "support/hashing.h"
#include "trace/profile.h"
#include "verifier/verifier.h"
#include "vm/machine_sim.h"

using namespace llva;

namespace {

// Two-phase program: init() mallocs an array, fills it with running
// sums, stashes the pointer in a global, and prints; finish() walks
// the array through the global and prints again. Only a checkpoint
// that faithfully reproduces the heap, the global, and the captured
// output can run finish() correctly in a fresh context.
const char *kPhases = R"(
%cells = global long* null

declare ubyte* %malloc(ulong %n)
declare void %putint(long %v)

long %init(long %n) {
entry:
    %raw = call ubyte* %malloc(ulong 800)
    %p = cast ubyte* %raw to long*
    store long* %p, long** %cells
    br label %head
head:
    %i = phi long [ 0, %entry ], [ %i2, %head ]
    %acc = phi long [ 0, %entry ], [ %acc2, %head ]
    %acc2 = add long %acc, %i
    %slot = getelementptr long* %p, long %i
    store long %acc2, long* %slot
    %i2 = add long %i, 1
    %more = setlt long %i2, %n
    br bool %more, label %head, label %out
out:
    call void %putint(long %acc2)
    ret long %acc2
}

long %finish(long %n) {
entry:
    %p = load long** %cells
    br label %head
head:
    %i = phi long [ 0, %entry ], [ %i2, %head ]
    %acc = phi long [ 0, %entry ], [ %acc2, %head ]
    %slot = getelementptr long* %p, long %i
    %v = load long* %slot
    %acc2 = add long %acc, %v
    %i2 = add long %i, 1
    %more = setlt long %i2, %n
    br bool %more, label %head, label %out
out:
    call void %putint(long %acc2)
    ret long %acc2
}
)";

// sum(0..99) and sum of its running sums.
constexpr int64_t kInitSum = 4950;
constexpr int64_t kFinishSum = 166650;

// The hot-call module from the dispatch tests: work() crosses a
// 500-sample watermark during main() and gets trace-tier promoted.
const char *kHotCalls = R"(
internal int %work(int %n) {
entry:
    br label %head
head:
    %i = phi int [ 0, %entry ], [ %i2, %head ]
    %acc = phi int [ 0, %entry ], [ %acc2, %head ]
    %acc2 = add int %acc, %i
    %i2 = add int %i, 1
    %more = setlt int %i2, %n
    br bool %more, label %head, label %out
out:
    ret int %acc2
}
int %main() {
entry:
    br label %loop
loop:
    %j = phi int [ 0, %entry ], [ %j2, %loop ]
    %acc = phi int [ 0, %entry ], [ %acc2, %loop ]
    %w = call int %work(int 100)
    %acc2 = add int %acc, %w
    %j2 = add int %j, 1
    %more = setlt int %j2, 40
    br bool %more, label %loop, label %out
out:
    ret int %acc2
}
)";

CodeGenOptions
adaptiveOpts(uint64_t watermark = 500)
{
    CodeGenOptions opts;
    opts.optLevel = 2;
    opts.adaptive = true;
    opts.promoteWatermark = watermark;
    return opts;
}

uint64_t
hashOf(const Module &m)
{
    return fnv1a(writeBytecode(m));
}

/** The page addresses in a memory image, in image order. */
std::vector<uint64_t>
imagePages(const Memory &mem)
{
    ByteWriter w;
    mem.serialize(w);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.readU64(), mem.size());
    std::vector<uint64_t> pages(r.readVaruint());
    std::vector<uint8_t> bytes;
    for (uint64_t &p : pages) {
        p = r.readU64();
        bytes.resize(r.readVaruint());
        r.readBytes(bytes.data(), bytes.size());
    }
    return pages;
}

/** Resident memory of this process, in bytes (Linux only). */
uint64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    uint64_t total = 0, resident = 0;
    statm >> total >> resident;
    return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

} // namespace

TEST(Checkpoint, RoundTripCarriesHeapGlobalsAndOutput)
{
    auto m = parseAssembly(kPhases).orDie();
    verifyOrDie(*m);
    uint64_t hash = hashOf(*m);

    ExecutionContext ctx1(*m);
    CodeManager cm1(*getTarget("x86"));
    MachineSimulator sim1(ctx1, cm1);
    auto r1 = sim1.run(m->getFunction("init"), {RtValue::ofInt(100)});
    ASSERT_TRUE(r1.ok());
    EXPECT_EQ(static_cast<int64_t>(r1.value.i), kInitSum);
    EXPECT_EQ(ctx1.output(), std::to_string(kInitSum));

    auto blob = captureCheckpoint(hash, ctx1, cm1, nullptr);

    ExecutionContext ctx2(*m);
    CodeManager cm2(*getTarget("x86"));
    auto st = restoreCheckpoint(blob, hash, ctx2, cm2, nullptr);
    ASSERT_TRUE(st.ok()) << st.error().message();
    // init()'s translation travels same-target; nothing is dropped.
    EXPECT_EQ(st->codeRestored, 1u);
    EXPECT_EQ(st->codeIncompatible, 0u);
    EXPECT_EQ(st->codeRejected, 0u);
    EXPECT_FALSE(st->suspended);
    EXPECT_TRUE(cm2.has(m->getFunction("init")));
    EXPECT_EQ(cm2.functionsTranslated(), 0u);

    // finish() reads the heap through the restored global pointer
    // and appends to the restored output.
    MachineSimulator sim2(ctx2, cm2);
    auto r2 = sim2.run(m->getFunction("finish"), {RtValue::ofInt(100)});
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(static_cast<int64_t>(r2.value.i), kFinishSum);
    EXPECT_EQ(ctx2.output(), std::to_string(kInitSum) +
                                 std::to_string(kFinishSum));
}

TEST(Checkpoint, CrossTargetRestoreHealsByRetranslation)
{
    auto m = parseAssembly(kPhases).orDie();
    verifyOrDie(*m);
    uint64_t hash = hashOf(*m);

    ExecutionContext ctx1(*m);
    CodeManager cm1(*getTarget("x86"));
    MachineSimulator sim1(ctx1, cm1);
    ASSERT_TRUE(
        sim1.run(m->getFunction("init"), {RtValue::ofInt(100)}).ok());
    auto blob = captureCheckpoint(hash, ctx1, cm1, nullptr);

    // Restore onto a different target ISA: the x86 body of init()
    // classifies as Incompatible and is dropped; program state is
    // target-independent and restores in full.
    ExecutionContext ctx2(*m);
    CodeManager cm2(*getTarget("riscv"));
    auto st = restoreCheckpoint(blob, hash, ctx2, cm2, nullptr);
    ASSERT_TRUE(st.ok()) << st.error().message();
    EXPECT_EQ(st->codeIncompatible, 1u);
    EXPECT_EQ(st->codeRestored, 0u);
    EXPECT_FALSE(cm2.has(m->getFunction("init")));

    // The migrated program continues on the new ISA: finish() is
    // retranslated on demand (healing) and computes the same answer
    // from the restored heap.
    MachineSimulator sim2(ctx2, cm2);
    auto r2 = sim2.run(m->getFunction("finish"), {RtValue::ofInt(100)});
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(static_cast<int64_t>(r2.value.i), kFinishSum);
    EXPECT_EQ(ctx2.output(), std::to_string(kInitSum) +
                                 std::to_string(kFinishSum));
    EXPECT_GE(cm2.functionsTranslated(), 1u);
}

TEST(Checkpoint, CarriedProfileRepromotesImmediately)
{
    auto m = parseAssembly(kHotCalls).orDie();
    verifyOrDie(*m);
    uint64_t hash = hashOf(*m);
    const Function *work = m->getFunction("work");

    // Heat up work() on x86 until it is trace-tier promoted.
    ExecutionContext ctx1(*m);
    CodeManager cm1(*getTarget("x86"), adaptiveOpts());
    EdgeProfile profile1;
    cm1.setAdaptive(&profile1, 500);
    MachineSimulator sim1(ctx1, cm1);
    sim1.setProfile(&profile1);
    auto r1 = sim1.run(m->getFunction("main"));
    ASSERT_TRUE(r1.ok());
    EXPECT_EQ(static_cast<int64_t>(r1.value.i), 198000);
    ASSERT_GE(cm1.promotions(), 1u);

    auto blob = captureCheckpoint(hash, ctx1, cm1, &profile1);

    // Migrate to riscv: the trace-tier body is Incompatible, but the
    // carried profile keeps its heat — a single call to work() (far
    // below the watermark on its own) re-promotes immediately.
    ExecutionContext ctx2(*m);
    CodeManager cm2(*getTarget("riscv"), adaptiveOpts());
    EdgeProfile profile2;
    cm2.setAdaptive(&profile2, 500);
    auto st = restoreCheckpoint(blob, hash, ctx2, cm2, &profile2);
    ASSERT_TRUE(st.ok()) << st.error().message();
    EXPECT_TRUE(st->profileRestored);
    EXPECT_GE(st->codeIncompatible, 1u);

    MachineSimulator sim2(ctx2, cm2);
    sim2.setProfile(&profile2);
    auto r2 = sim2.run(work, {RtValue::ofInt(100)});
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(static_cast<int64_t>(r2.value.i), 4950);
    EXPECT_EQ(cm2.promotions(), 1u);
    EXPECT_EQ(cm2.tierOf(work), kTierTrace);

    // Control: without the carried profile, the same single call
    // stays below the watermark and nothing is promoted.
    ExecutionContext ctx3(*m);
    CodeManager cm3(*getTarget("riscv"), adaptiveOpts());
    EdgeProfile profile3;
    cm3.setAdaptive(&profile3, 500);
    MachineSimulator sim3(ctx3, cm3);
    sim3.setProfile(&profile3);
    ASSERT_TRUE(sim3.run(work, {RtValue::ofInt(100)}).ok());
    EXPECT_EQ(cm3.promotions(), 0u);
}

TEST(Checkpoint, InterpreterPinTravelsSameTargetOnly)
{
    auto m = parseAssembly(kHotCalls).orDie();
    verifyOrDie(*m);
    uint64_t hash = hashOf(*m);
    const Function *work = m->getFunction("work");

    // Pin work() to the interpreter by failing every codegen tier.
    ExecutionContext ctx1(*m);
    CodeManager cm1(*getTarget("x86"), adaptiveOpts());
    TranslationHooks hooks;
    hooks.beforeCodegen = [](const Function &f, unsigned) {
        if (f.name() == "work")
            throw std::runtime_error("injected codegen fault");
    };
    cm1.setHooks(hooks);
    ASSERT_EQ(cm1.get(work), nullptr);
    ASSERT_TRUE(cm1.isInterpreted(work));

    auto blob = captureCheckpoint(hash, ctx1, cm1, nullptr);

    // Same target: the pin travels (don't walk the failing ladder
    // again) ...
    ExecutionContext ctx2(*m);
    CodeManager cm2(*getTarget("x86"), adaptiveOpts());
    auto st2 = restoreCheckpoint(blob, hash, ctx2, cm2, nullptr);
    ASSERT_TRUE(st2.ok()) << st2.error().message();
    EXPECT_EQ(st2->codeRestored, 1u);
    EXPECT_TRUE(cm2.isInterpreted(work));

    // ... but a ladder that failed on one ISA says nothing about
    // another: cross-target, the pin is dropped with the rest.
    ExecutionContext ctx3(*m);
    CodeManager cm3(*getTarget("riscv"), adaptiveOpts());
    auto st3 = restoreCheckpoint(blob, hash, ctx3, cm3, nullptr);
    ASSERT_TRUE(st3.ok()) << st3.error().message();
    EXPECT_EQ(st3->codeIncompatible, 1u);
    EXPECT_FALSE(cm3.isInterpreted(work));
}

TEST(Checkpoint, DamagedOrMismatchedBlobsAreRejected)
{
    auto m = parseAssembly(kPhases).orDie();
    verifyOrDie(*m);
    uint64_t hash = hashOf(*m);

    ExecutionContext ctx1(*m);
    CodeManager cm1(*getTarget("x86"));
    MachineSimulator sim1(ctx1, cm1);
    ASSERT_TRUE(
        sim1.run(m->getFunction("init"), {RtValue::ofInt(100)}).ok());
    auto blob = captureCheckpoint(hash, ctx1, cm1, nullptr);

    ExecutionContext ctx2(*m);
    CodeManager cm2(*getTarget("x86"));

    // Wrong virtual object code.
    EXPECT_FALSE(
        restoreCheckpoint(blob, hash + 1, ctx2, cm2, nullptr).ok());

    // A flipped byte anywhere fails the envelope CRC.
    auto flipped = blob;
    flipped[flipped.size() / 2] ^= 0xff;
    auto st = restoreCheckpoint(flipped, hash, ctx2, cm2, nullptr);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.error().message().find("corrupt"), std::string::npos);

    // Truncation and garbage likewise.
    auto truncated = blob;
    truncated.resize(truncated.size() - 5);
    EXPECT_FALSE(
        restoreCheckpoint(truncated, hash, ctx2, cm2, nullptr).ok());
    EXPECT_FALSE(restoreCheckpoint({}, hash, ctx2, cm2, nullptr).ok());
}

TEST(Checkpoint, OversizedLengthsAreErrors)
{
    // A validly sealed blob can still lie about its lengths: CRC32 is
    // no MAC. A profile or a code entry that claims 2^60 bytes must be
    // an error result, not a 2^60-byte allocation.
    auto m = parseAssembly(kPhases).orDie();
    verifyOrDie(*m);
    uint64_t hash = hashOf(*m);
    const char magic[4] = {'L', 'V', 'C', 'K'};
    const uint64_t huge = uint64_t(1) << 60;

    for (bool inProfile : {true, false}) {
        ExecutionContext ctx(*m);
        ByteWriter w;
        w.writeU64(hash);
        w.writeString("x86");
        w.writeByte(0);
        ctx.serialize(w);
        if (inProfile) {
            w.writeVaruint(huge);
        } else {
            w.writeVaruint(0); // no profile
            w.writeVaruint(1); // one code entry
            w.writeString("init");
            w.writeByte(0);
            w.writeVaruint(huge);
        }
        auto blob = sealBlob(magic, kCheckpointVersion, w.takeBytes());

        CodeManager cm(*getTarget("x86"));
        auto st = restoreCheckpoint(blob, hash, ctx, cm, nullptr);
        ASSERT_FALSE(st.ok()) << (inProfile ? "profile" : "code entry");
        EXPECT_NE(st.error().message().find("truncated"),
                  std::string::npos);
    }
}

TEST(Checkpoint, MemoryRestoreRejectsAWrappingPageRecord)
{
    // p + n wraps past 2^64 to a small in-bounds value: the bounds
    // check must still reject the record instead of writing 8 KiB
    // at p.
    auto m = parseAssembly(kPhases).orDie();
    Memory mem;
    ByteWriter w;
    w.writeU64(mem.size());
    w.writeVaruint(1);
    w.writeU64(~uint64_t(0) - 4095); // 2^64 - 4096
    w.writeVaruint(8192);
    const std::vector<uint8_t> page(8192, 0xab);
    w.writeBytes(page.data(), page.size());
    ByteReader r(w.bytes());
    EXPECT_FALSE(mem.restore(r, *m));
}

TEST(Checkpoint, MemoryStoreStraddlingAPageBoundaryImagesBothPages)
{
    Memory mem;
    ASSERT_TRUE(mem.store(0x20000 - 4, 8, 0x1122334455667788ull));
    ASSERT_TRUE(mem.storeFP(0x22000 - 4, false, 0.1)); // no zero half
    EXPECT_EQ(imagePages(mem),
              (std::vector<uint64_t>{0x1f000, 0x20000, 0x21000,
                                     0x22000}));
}

TEST(Checkpoint, MemoryPageWrittenOnlyWithZerosIsNotImaged)
{
    Memory mem;
    ASSERT_TRUE(mem.store(0x30000, 8, 0));
    ASSERT_TRUE(mem.storeFP(0x30100, false, 0.0));
    EXPECT_TRUE(imagePages(mem).empty());
    ASSERT_TRUE(mem.store(0x30200, 1, 7));
    EXPECT_EQ(imagePages(mem), std::vector<uint64_t>{0x30000});
}

TEST(Checkpoint, MemoryMultiPageWriteRawImagesEveryPage)
{
    // [0x40800, 0x42800): half of the first and last page, all of
    // the one between.
    Memory mem;
    const std::vector<uint8_t> data(0x2000, 0xab);
    mem.writeRaw(0x40800, data.data(), data.size());
    EXPECT_EQ(imagePages(mem),
              (std::vector<uint64_t>{0x40000, 0x41000, 0x42000}));
}

TEST(Checkpoint, MemoryRestoreZeroesPagesTheImageDoesNotCarry)
{
    auto m = parseAssembly(kPhases).orDie();
    Memory src;
    ASSERT_TRUE(src.store(0x50000, 8, 42));
    ByteWriter w;
    src.serialize(w);

    // The restoring memory was dirtied at other pages first.
    Memory dst;
    ASSERT_TRUE(dst.store(0x60000, 8, 99));
    const std::vector<uint8_t> junk(0x1800, 0xcd);
    dst.writeRaw(0x70400, junk.data(), junk.size());
    ByteReader r(w.bytes());
    ASSERT_TRUE(dst.restore(r, *m));

    uint64_t v = 1;
    for (uint64_t addr : {0x60000ull, 0x70400ull, 0x71000ull}) {
        ASSERT_TRUE(dst.load(addr, 8, v));
        EXPECT_EQ(v, 0u) << std::hex << addr;
    }
    ASSERT_TRUE(dst.load(0x50000, 8, v));
    EXPECT_EQ(v, 42u);
    EXPECT_EQ(imagePages(dst), std::vector<uint64_t>{0x50000});
}

TEST(Checkpoint, MemoryImageRoundTripsByteIdentical)
{
    // A real image: globals, a heap array and function addresses.
    auto m = parseAssembly(kPhases).orDie();
    verifyOrDie(*m);
    ExecutionContext ctx(*m);
    CodeManager cm(*getTarget("x86"));
    MachineSimulator sim(ctx, cm);
    ASSERT_TRUE(sim.run(m->getFunction("init"), {RtValue::ofInt(100)})
                    .ok());
    ASSERT_FALSE(imagePages(ctx.memory()).empty());

    ByteWriter first;
    ctx.memory().serialize(first);
    Memory restored;
    ByteReader r(first.bytes());
    ASSERT_TRUE(restored.restore(r, *m));
    ByteWriter second;
    restored.serialize(second);
    EXPECT_EQ(first.bytes(), second.bytes());
}

TEST(Checkpoint, MemoryLiveContextsCostOnlyTheirWrittenPages)
{
#ifndef __linux__
    GTEST_SKIP() << "reads resident memory from /proc/self/statm";
#endif
    // Four live 64 MiB contexts, each with its globals laid out: the
    // image is demand-zero, so together they stay resident well
    // under the size of one.
    const uint64_t kImage = 64ull << 20;
    {
        // The image is only as lazy as the host's calloc: one that
        // writes every page (ThreadSanitizer's does) leaves nothing
        // to check.
        const uint64_t before = residentBytes();
        std::unique_ptr<void, void (*)(void *)> probe(
            std::calloc(kImage, 1), std::free);
        const uint64_t probed = residentBytes();
        if (probed > before && probed - before > kImage / 2)
            GTEST_SKIP() << "this host's calloc writes every page";
    }
    auto m = parseAssembly(kPhases).orDie();
    verifyOrDie(*m);
    const uint64_t before = residentBytes();
    std::vector<std::unique_ptr<ExecutionContext>> contexts;
    for (int i = 0; i < 4; ++i)
        contexts.push_back(std::make_unique<ExecutionContext>(*m));
    ASSERT_EQ(contexts.front()->memory().size(), kImage);
    const uint64_t after = residentBytes();
    EXPECT_LT(after - std::min(after, before), kImage);
}

TEST(Checkpoint, SuspendedActivationRoundTrips)
{
    auto m = parseAssembly(kHotCalls).orDie();
    verifyOrDie(*m);
    uint64_t hash = hashOf(*m);

    // Uninterrupted baseline.
    ExecutionContext ctxB(*m);
    CodeManager cmB(*getTarget("x86"));
    MachineSimulator simB(ctxB, cmB);
    auto rB = simB.run(m->getFunction("main"));
    ASSERT_TRUE(rB.ok());
    ASSERT_GT(simB.instructionsExecuted(), 3000u);

    // Pause mid-run — almost certainly inside work() with main()'s
    // frame on the stack, so the suspended section carries frames.
    ExecutionContext ctx1(*m);
    CodeManager cm1(*getTarget("x86"));
    MachineSimulator sim1(ctx1, cm1);
    sim1.setPauseAt(1500);
    auto r1 = sim1.run(m->getFunction("main"));
    EXPECT_TRUE(r1.paused);
    ASSERT_TRUE(sim1.paused());

    auto blob = captureCheckpoint(hash, ctx1, cm1, nullptr, &sim1);

    // Restore into a fresh process image and resume to completion.
    ExecutionContext ctx2(*m);
    CodeManager cm2(*getTarget("x86"));
    MachineSimulator sim2(ctx2, cm2);
    auto st = restoreCheckpoint(blob, hash, ctx2, cm2, nullptr, &sim2);
    ASSERT_TRUE(st.ok()) << st.error().message();
    EXPECT_TRUE(st->suspended);
    ASSERT_TRUE(sim2.paused());
    auto r2 = sim2.resume();
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r2.value.i, rB.value.i);
    EXPECT_EQ(ctx2.output(), ctxB.output());
    EXPECT_FALSE(sim2.paused());

    // The original can also resume in-process, identically.
    auto r1b = sim1.resume();
    ASSERT_TRUE(r1b.ok());
    EXPECT_EQ(r1b.value.i, rB.value.i);
    EXPECT_EQ(sim1.instructionsExecuted(), simB.instructionsExecuted());
}

TEST(Checkpoint, SuspendedCrossTargetRestoreIsRejected)
{
    auto m = parseAssembly(kHotCalls).orDie();
    verifyOrDie(*m);
    uint64_t hash = hashOf(*m);

    ExecutionContext ctx1(*m);
    CodeManager cm1(*getTarget("x86"));
    MachineSimulator sim1(ctx1, cm1);
    sim1.setPauseAt(1500);
    sim1.run(m->getFunction("main"));
    ASSERT_TRUE(sim1.paused());
    auto blob = captureCheckpoint(hash, ctx1, cm1, nullptr, &sim1);

    // A suspended activation is I-ISA state: migrating it to
    // another target must fail loudly, not restore garbage.
    ExecutionContext ctx2(*m);
    CodeManager cm2(*getTarget("riscv"));
    MachineSimulator sim2(ctx2, cm2);
    auto st = restoreCheckpoint(blob, hash, ctx2, cm2, nullptr, &sim2);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.error().message().find("quiescent"),
              std::string::npos);
    EXPECT_FALSE(sim2.paused());
}

TEST(Checkpoint, SmcReplaceThenCheckpointThenRestore)
{
    // The live-update sequence from the issue: replace a function
    // via llva.smc.replace.function, checkpoint, restore — the
    // redirect must survive into the restored image.
    auto m = parseAssembly(R"(
declare void %llva.smc.replace.function(ubyte* %t, ubyte* %r)
internal long %work(long %n) {
entry:
    ret long 1
}
internal long %work2(long %n) {
entry:
    ret long 7
}
long %doswap() {
entry:
    %t = cast long (long)* %work to ubyte*
    %r = cast long (long)* %work2 to ubyte*
    call void %llva.smc.replace.function(ubyte* %t, ubyte* %r)
    %v = call long %work(long 0)
    ret long %v
}
long %callwork() {
entry:
    %v = call long %work(long 0)
    ret long %v
}
)").orDie();
    verifyOrDie(*m);
    uint64_t hash = hashOf(*m);

    ExecutionContext ctx1(*m);
    CodeManager cm1(*getTarget("x86"));
    MachineSimulator sim1(ctx1, cm1);
    auto r1 = sim1.run(m->getFunction("doswap"));
    ASSERT_TRUE(r1.ok());
    EXPECT_EQ(static_cast<int64_t>(r1.value.i), 7);

    auto blob = captureCheckpoint(hash, ctx1, cm1, nullptr);

    ExecutionContext ctx2(*m);
    CodeManager cm2(*getTarget("x86"));
    auto st = restoreCheckpoint(blob, hash, ctx2, cm2, nullptr);
    ASSERT_TRUE(st.ok()) << st.error().message();
    MachineSimulator sim2(ctx2, cm2);
    auto r2 = sim2.run(m->getFunction("callwork"));
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(static_cast<int64_t>(r2.value.i), 7);

    // Control: without the restored OS state the original binding
    // is still in effect.
    ExecutionContext ctx3(*m);
    CodeManager cm3(*getTarget("x86"));
    MachineSimulator sim3(ctx3, cm3);
    auto r3 = sim3.run(m->getFunction("callwork"));
    ASSERT_TRUE(r3.ok());
    EXPECT_EQ(static_cast<int64_t>(r3.value.i), 1);
}
