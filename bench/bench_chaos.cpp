/**
 * @file
 * Chaos harness: live-update under fire. For every workload, a
 * multi-threaded serving loop executes the program repeatedly from
 * one shared CodeManager while dedicated adversary threads inject
 * faults the whole time:
 *
 *  - an SMC thread replaces (replaceFunctionLive) and invalidates
 *    translations of the very functions being executed,
 *  - the same thread runs checkpoint/restore cycles on a dedicated
 *    VM — pause mid-run, capture, restore into a fresh context
 *    against the shared (still churning) code cache, resume,
 *  - a storage thread serves the program through LLEE over a
 *    FaultInjectingStorage (failed ops, damaged payloads),
 *  - the translation pipeline itself faults deterministically on a
 *    fraction of -O2 codegens (tier degradation under fire).
 *
 * Every execution — workers, resumed checkpoints, faulted-storage
 * runs — must produce the byte-identical output of the quiet
 * baseline; any divergence is fatal. A final quiet phase migrates
 * each workload's completed state cross-ISA (x86 -> riscv) through
 * a checkpoint: wrong-target code classifies Incompatible, heals by
 * retranslation, and the carried profile re-promotes immediately.
 *
 * Knobs: --threads=N (workers), --iters=N (runs per worker),
 * --workloads=N (first N only), --scale=N (workload scale).
 * Results land in BENCH_chaos.json.
 */

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "llee/checkpoint.h"
#include "llee/fault_storage.h"
#include "llee/llee.h"
#include "support/hashing.h"

using namespace llva;
using namespace llva::bench;

namespace {

struct Knobs
{
    unsigned threads = 4;
    unsigned iters = 4;
    size_t workloads = 0; ///< 0 = all
    int scale = 1;
};

CodeGenOptions
adaptiveOpts()
{
    CodeGenOptions opts;
    opts.optLevel = 2;
    opts.adaptive = true;
    opts.promoteWatermark = 500;
    return opts;
}

struct Baseline
{
    uint64_t value = 0;
    std::string output;
};

Baseline
quietBaseline(Module &m)
{
    ExecutionContext ctx(m);
    CodeManager cm(*getTarget("x86"), adaptiveOpts());
    EdgeProfile profile;
    cm.setAdaptive(&profile, adaptiveOpts().promoteWatermark);
    MachineSimulator sim(ctx, cm);
    sim.setProfile(&profile);
    auto r = sim.run(m.getFunction("main"));
    if (!r.ok())
        fatal("chaos baseline trapped: %s", trapKindName(r.trap));
    return {r.value.i, ctx.output()};
}

/** ExecutionContext construction walks module constants while the
 *  shared manager may be optimizing bodies in place; take the same
 *  reader lock the interpreter tier takes. */
std::unique_ptr<ExecutionContext>
freshContext(Module &m, CodeManager &cm)
{
    auto lock = cm.readLock();
    return std::make_unique<ExecutionContext>(m);
}

struct ChaosOutcome
{
    size_t runs = 0;
    size_t mismatches = 0;
    size_t replacements = 0;
    size_t invalidations = 0;
    size_t checkpointCycles = 0;
    size_t checkpointAborts = 0;
    size_t storageRuns = 0;
    size_t storageOpsFailed = 0;
    size_t storagePayloadsDamaged = 0;
    size_t tierDowngrades = 0;
    size_t reclaimed = 0;
    size_t promotions = 0;
    size_t retiredLeaked = 0;
    double seconds = 0;
};

ChaosOutcome
chaosPhase(Module &m, const std::vector<uint8_t> &bc,
           const Baseline &base, const Knobs &knobs)
{
    const uint64_t hash = fnv1a(bc);
    CodeManager cm(*getTarget("x86"), adaptiveOpts());
    EdgeProfile master;
    cm.setAdaptive(&master, adaptiveOpts().promoteWatermark);

    // Deterministic pass faults: every 5th -O2 codegen attempt
    // throws, degrading that one translation a tier. Degradation
    // changes speed, never semantics — output must stay identical.
    std::atomic<uint64_t> codegenAttempts{0};
    TranslationHooks hooks;
    hooks.beforeCodegen = [&](const Function &, unsigned level) {
        if (level == 2 &&
            codegenAttempts.fetch_add(
                1, std::memory_order_relaxed) % 5 == 4)
            throw std::runtime_error("chaos: injected codegen fault");
    };
    cm.setHooks(hooks);

    std::vector<const Function *> defined;
    for (const auto &f : m.functions())
        if (!f->isDeclaration())
            defined.push_back(f.get());

    ChaosOutcome out;
    std::atomic<bool> stop{false};
    std::atomic<size_t> mismatches{0};
    std::atomic<size_t> replacements{0};
    std::atomic<size_t> invalidations{0};
    std::atomic<size_t> storageRuns{0};

    auto check = [&](bool ok, uint64_t value,
                     const std::string &output) {
        if (!ok || value != base.value || output != base.output)
            mismatches.fetch_add(1, std::memory_order_relaxed);
    };

    Timer timer;

    // The SMC + checkpoint adversary.
    std::thread smc([&] {
        uint64_t rng = 0x9e3779b97f4a7c15ull;
        size_t step = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            const Function *f = defined[step % defined.size()];
            rng = rng * 6364136223846793005ull +
                  1442695040888963407ull;
            if ((rng >> 33) & 1) {
                if (cm.replaceFunctionLive(f))
                    replacements.fetch_add(
                        1, std::memory_order_relaxed);
            } else {
                cm.invalidate(f);
                invalidations.fetch_add(1,
                                        std::memory_order_relaxed);
            }
            if (++step % 16 == 0) {
                // Checkpoint/restore cycle on a dedicated VM while
                // everything above keeps churning the shared cache.
                auto cctx = freshContext(m, cm);
                MachineSimulator csim(*cctx, cm);
                csim.setPauseAt(2000);
                auto r = csim.run(m.getFunction("main"));
                if (!csim.paused()) {
                    check(r.ok(), r.value.i, cctx->output());
                    continue;
                }
                auto blob = captureCheckpoint(hash, *cctx, cm,
                                              nullptr, &csim);
                auto rctx = freshContext(m, cm);
                MachineSimulator rsim(*rctx, cm);
                auto st = restoreCheckpoint(blob, hash, *rctx, cm,
                                            nullptr, &rsim);
                if (st.ok() && rsim.paused()) {
                    auto rr = rsim.resume();
                    check(rr.ok(), rr.value.i, rctx->output());
                    ++out.checkpointCycles;
                } else {
                    // A replacement changed the installed body's
                    // shape between capture and restore; the
                    // restore refused rather than resume onto the
                    // wrong code. Abort the cycle, never diverge.
                    ++out.checkpointAborts;
                }
                // The original VM resumes in-process regardless —
                // its epoch pin kept the captured body alive.
                auto cr = csim.resume();
                check(cr.ok(), cr.value.i, cctx->output());
            }
            std::this_thread::yield();
        }
    });

    // The storage adversary: full LLEE runs (own module, own code
    // manager) over fault-injecting storage, concurrently.
    size_t storageFailed = 0, storageDamaged = 0;
    std::thread storageThread([&] {
        MemoryStorage inner;
        FaultConfig fc;
        fc.seed = 42;
        fc.failRate = 0.10;
        fc.corruptRate = 0.10;
        FaultInjectingStorage storage(inner, fc);
        while (!stop.load(std::memory_order_relaxed)) {
            LLEE llee(*getTarget("x86"), &storage, adaptiveOpts());
            auto r = llee.execute(bc);
            check(r.exec.ok(), r.exec.value.i, r.output);
            storageRuns.fetch_add(1, std::memory_order_relaxed);
        }
        storageFailed = storage.opsFailed();
        storageDamaged = storage.payloadsDamaged();
    });

    // The serving loop: workers execute from the shared cache with
    // thread-local profiles, publishing heat via mergeProfile.
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < knobs.threads; ++t)
        workers.emplace_back([&] {
            for (unsigned it = 0; it < knobs.iters; ++it) {
                EdgeProfile local;
                auto ctx = freshContext(m, cm);
                MachineSimulator sim(*ctx, cm);
                sim.setProfile(&local);
                auto r = sim.run(m.getFunction("main"));
                check(r.ok(), r.value.i, ctx->output());
                cm.mergeProfile(local);
            }
        });
    for (auto &w : workers)
        w.join();
    stop.store(true, std::memory_order_relaxed);
    smc.join();
    storageThread.join();
    out.seconds = timer.seconds();

    // After the fire: the shared cache must still serve a quiet run
    // exactly, and every retired body (with its chain) must have
    // been reclaimed (no pins remain — nothing may leak).
    {
        EdgeProfile local;
        auto ctx = freshContext(m, cm);
        MachineSimulator sim(*ctx, cm);
        sim.setProfile(&local);
        auto r = sim.run(m.getFunction("main"));
        check(r.ok(), r.value.i, ctx->output());
    }
    out.retiredLeaked = cm.retiredBodies();

    out.runs = size_t(knobs.threads) * knobs.iters + 1;
    out.mismatches = mismatches.load();
    out.replacements = replacements.load();
    out.invalidations = invalidations.load();
    out.storageRuns = storageRuns.load();
    out.storageOpsFailed = storageFailed;
    out.storagePayloadsDamaged = storageDamaged;
    out.tierDowngrades = cm.tierDowngrades();
    out.reclaimed = cm.reclaimedObjects();
    out.promotions = cm.promotions();
    return out;
}

struct MigrationOutcome
{
    bool ok = true;
    size_t codeIncompatible = 0;
    size_t codeRestored = 0;
    size_t promotions = 0;
    bool profileRestored = false;
};

/** Quiet cross-ISA migration: x86 run -> checkpoint -> riscv
 *  restore (Incompatible entries heal by retranslation, profile
 *  keeps its heat) -> riscv serving run, byte-identical. */
MigrationOutcome
migrationPhase(Module &m, const std::vector<uint8_t> &bc,
               const Baseline &base)
{
    const uint64_t hash = fnv1a(bc);
    MigrationOutcome out;

    ExecutionContext ctx1(m);
    CodeManager cm1(*getTarget("x86"), adaptiveOpts());
    EdgeProfile p1;
    cm1.setAdaptive(&p1, adaptiveOpts().promoteWatermark);
    MachineSimulator sim1(ctx1, cm1);
    sim1.setProfile(&p1);
    auto r1 = sim1.run(m.getFunction("main"));
    out.ok &= r1.ok() && r1.value.i == base.value &&
              ctx1.output() == base.output;
    auto blob = captureCheckpoint(hash, ctx1, cm1, &p1);

    ExecutionContext ctx2(m);
    CodeManager cm2(*getTarget("riscv"), adaptiveOpts());
    EdgeProfile p2;
    cm2.setAdaptive(&p2, adaptiveOpts().promoteWatermark);
    auto st = restoreCheckpoint(blob, hash, ctx2, cm2, &p2);
    if (!st.ok()) {
        out.ok = false;
        return out;
    }
    out.codeIncompatible = st->codeIncompatible;
    out.codeRestored = st->codeRestored;
    out.profileRestored = st->profileRestored;
    // The migrated image is byte-identical, including its captured
    // output so far.
    out.ok &= ctx2.output() == base.output;

    // The next serving cycle on the new ISA: healed on demand, and
    // the carried profile promotes the hot functions immediately.
    ExecutionContext fresh(m);
    MachineSimulator sim2(fresh, cm2);
    sim2.setProfile(&p2);
    auto r2 = sim2.run(m.getFunction("main"));
    out.ok &= r2.ok() && r2.value.i == base.value &&
              fresh.output() == base.output;
    out.promotions = cm2.promotions();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Knobs knobs;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (!std::strncmp(argv[i], "--threads=", 10))
            knobs.threads = std::atoi(argv[i] + 10);
        else if (!std::strncmp(argv[i], "--iters=", 8))
            knobs.iters = std::atoi(argv[i] + 8);
        else if (!std::strncmp(argv[i], "--workloads=", 12))
            knobs.workloads = std::atoi(argv[i] + 12);
        else if (!std::strncmp(argv[i], "--scale=", 8))
            knobs.scale = std::atoi(argv[i] + 8);
        else
            argv[kept++] = argv[i];
    }
    argc = kept;
    if (knobs.threads < 1)
        knobs.threads = 1;
    if (knobs.iters < 1)
        knobs.iters = 1;
    if (knobs.scale < 1)
        knobs.scale = 1;

    auto workloads = allWorkloads();
    if (knobs.workloads && knobs.workloads < workloads.size())
        workloads.resize(knobs.workloads);

    std::printf("Chaos harness: %u workers x %u iters per workload, "
                "concurrent SMC replacement + checkpoint/restore + "
                "faulting storage + pass faults\n",
                knobs.threads, knobs.iters);
    hr('=');
    std::printf("%-18s %5s %6s %6s %6s %5s %6s %6s %7s %7s %6s\n",
                "Program", "runs", "repl", "inval", "ckpt", "abort",
                "store", "downgr", "reclaim", "incomp", "mism");
    hr();

    JsonReport report("chaos");
    size_t totalMismatches = 0, totalLeaked = 0;
    size_t migrationFailures = 0;
    for (const auto &info : workloads) {
        auto m = prepared(info, 2, knobs.scale);
        auto bc = writeBytecode(*m);
        Baseline base = quietBaseline(*m);

        ChaosOutcome c = chaosPhase(*m, bc, base, knobs);
        MigrationOutcome mig = migrationPhase(*m, bc, base);

        totalMismatches += c.mismatches;
        totalLeaked += c.retiredLeaked;
        if (!mig.ok)
            ++migrationFailures;

        std::printf("%-18s %5zu %6zu %6zu %6zu %5zu %6zu %6zu "
                    "%7zu %7zu %6zu\n",
                    info.name.c_str(), c.runs, c.replacements,
                    c.invalidations, c.checkpointCycles,
                    c.checkpointAborts, c.storageRuns,
                    c.tierDowngrades, c.reclaimed,
                    mig.codeIncompatible, c.mismatches);

        report.beginRow()
            .field("program", info.name)
            .field("runs", double(c.runs))
            .field("mismatches", double(c.mismatches))
            .field("replacements", double(c.replacements))
            .field("invalidations", double(c.invalidations))
            .field("checkpoint_cycles", double(c.checkpointCycles))
            .field("checkpoint_aborts", double(c.checkpointAborts))
            .field("storage_runs", double(c.storageRuns))
            .field("storage_ops_failed", double(c.storageOpsFailed))
            .field("storage_payloads_damaged",
                   double(c.storagePayloadsDamaged))
            .field("tier_downgrades", double(c.tierDowngrades))
            .field("retired_reclaimed", double(c.reclaimed))
            .field("retired_leaked", double(c.retiredLeaked))
            .field("promotions", double(c.promotions))
            .field("chaos_seconds", c.seconds)
            .field("migration_ok", mig.ok ? 1.0 : 0.0)
            .field("migration_code_incompatible",
                   double(mig.codeIncompatible))
            .field("migration_profile_restored",
                   mig.profileRestored ? 1.0 : 0.0)
            .field("migration_promotions", double(mig.promotions));
    }
    hr();
    report.write();
    std::printf("Every run under chaos (workers, resumed "
                "checkpoints, faulted storage) is checked against "
                "the quiet baseline byte-for-byte; mism must be 0. "
                "ckpt = completed mid-run checkpoint/restore/resume "
                "cycles; abort = cycles refused because the code "
                "cache changed shape between capture and restore "
                "(refusal, never divergence). incomp = x86 entries "
                "healed by riscv retranslation in the quiet "
                "migration phase.\n");

    if (totalMismatches)
        fatal("chaos: %zu execution(s) diverged from the quiet "
              "baseline", totalMismatches);
    if (totalLeaked)
        fatal("chaos: %zu retired object(s) never reclaimed",
              totalLeaked);
    if (migrationFailures)
        fatal("chaos: %zu cross-ISA migration(s) failed",
              migrationFailures);

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

// Timed: one serving iteration from a warm shared cache with a
// replacement storm in the background, vs the figure a quiet run
// gets (compare against bench_throughput).
static void
BM_ServeUnderReplacementStorm(benchmark::State &state)
{
    auto m = prepared(allWorkloads()[0], 2, 1);
    CodeManager cm(*getTarget("x86"), adaptiveOpts());
    EdgeProfile profile;
    cm.setAdaptive(&profile, 500);
    const Function *main = m->getFunction("main");
    {
        ExecutionContext ctx(*m);
        MachineSimulator sim(ctx, cm);
        sim.setProfile(&profile);
        sim.run(main);
    }
    std::vector<const Function *> defined;
    for (const auto &f : m->functions())
        if (!f->isDeclaration())
            defined.push_back(f.get());
    std::atomic<bool> stop{false};
    std::thread storm([&] {
        size_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            cm.replaceFunctionLive(defined[i++ % defined.size()]);
            std::this_thread::yield();
        }
    });
    for (auto _ : state) {
        ExecutionContext ctx(*m);
        MachineSimulator sim(ctx, cm);
        sim.setProfile(&profile);
        benchmark::DoNotOptimize(sim.run(main).value.i);
    }
    stop.store(true, std::memory_order_relaxed);
    storm.join();
}
BENCHMARK(BM_ServeUnderReplacementStorm);
