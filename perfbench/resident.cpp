/**
 * @file
 * The resident workloads: programs served repeatedly from one
 * CodeManager per (program, target) that outlives the runs.
 *
 *  - steady_exec: each pair is warmed up once (translate, promote,
 *    chain), then timed runs measure the dispatch loop alone.
 *  - live_update: one executor thread serves the multi-function
 *    programs while an open-loop replacer thread calls
 *    replaceFunctionLive on the pair being served at a fixed rate.
 *
 * Each pair owns its module: translation optimizes bodies in place,
 * so two code managers must never share one.
 */

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "bytecode/bytecode.h"
#include "llee/envelope.h"
#include "llee/llee.h"
#include "llee/mcode_io.h"
#include "support/error.h"
#include "support/thread_pool.h"
#include "suite.h"

namespace perfbench {

using namespace llva;

namespace {

/**
 * steady_exec scales: per program, the scale at which one x86 run
 * executes about 2.5-5.5 million simulated instructions at the seed
 * commit (a few tens of ms).
 */
const std::vector<ProgramSpec> kSteadySpecs = {
    {"ptrdist-anagram", 16}, {"ptrdist-ks", 16},  {"ptrdist-ft", 16},
    {"ptrdist-yacr2", 16},   {"ptrdist-bc", 4},   {"179.art", 4},
    {"183.equake", 4},       {"181.mcf", 4},      {"256.bzip2", 4},
    {"164.gzip", 16},        {"197.parser", 128}, {"188.ammp", 3},
    {"175.vpr", 4},          {"300.twolf", 24},   {"186.crafty", 32},
    {"255.vortex", 20},      {"254.gap", 32},
};

/**
 * live_update: the multi-function programs, at scales where one
 * quiet x86 run takes 5-20 ms, so a run spans a few replacements.
 */
const std::vector<ProgramSpec> kLiveSpecs = {
    {"ptrdist-bc", 2},
    {"197.parser", 32},
    {"175.vpr", 2},
    {"186.crafty", 16},
};

/**
 * Open-loop replacement interval of live_update. A replacement
 * retranslates at the baseline tier, so a hot function runs slower
 * until the promotion thread re-promotes it. The more often that
 * happens, the more the executor's rate follows how much CPU the host
 * leaves the replacer and promotion threads: with replacements every
 * 8 ms it varied almost twofold between runs of the same code.
 */
constexpr double kReplaceIntervalMs = 20.0;

/** Replacements a live_update run needs (>= 10 beyond p99). */
constexpr size_t kMinReplacements = 1000;

/** One resident (program, target): its module, code cache, profile. */
struct Resident
{
    const Program *program = nullptr;
    Target *target = nullptr;
    std::unique_ptr<Module> module;
    std::unique_ptr<EdgeProfile> profile;
    std::unique_ptr<CodeManager> cm;
    std::vector<const Function *> defined;
};

/** Timings and counts of one served run. */
struct RunOutcome
{
    double launchMs = 0; ///< context build + run + context teardown
    double runMs = 0;    ///< MachineSimulator::run alone
    double contextMs = 0;
    uint64_t instructions = 0;
    uint64_t interpreted = 0;
};

/**
 * Serve one run of \p res: build a context (under the code cache's
 * reader lock, since a concurrent replacement may be optimizing the
 * module's bodies in place), run main, check the output against the
 * oracle, tear the context down.
 */
RunOutcome
serve(Resident &res, Report &r, const std::string &what,
      bool profiled = true, uint64_t sampleInterval = kSampleInterval,
      const std::function<void()> &beforeRun = {})
{
    RunOutcome out;
    const double t0 = nowSeconds();
    try {
        std::unique_ptr<ExecutionContext> ctx;
        {
            auto lock = res.cm->readLock();
            ctx = std::make_unique<ExecutionContext>(*res.module);
        }
        if (beforeRun)
            beforeRun();
        const double t1 = nowSeconds();
        ExecResult er;
        uint64_t instructions = 0, interpreted = 0;
        {
            MachineSimulator sim(*ctx, *res.cm);
            sim.setProfileSampleInterval(sampleInterval);
            sim.setProfile(profiled ? res.profile.get() : nullptr);
            er = sim.run(res.module->getFunction("main"));
            instructions = sim.instructionsExecuted();
            interpreted = sim.instructionsInterpreted();
        }
        const double t2 = nowSeconds();
        const bool ok = matchesOracle(*res.program, er, ctx->output());
        ctx.reset();
        const double t3 = nowSeconds();
        out.launchMs = (t3 - t0) * 1e3;
        out.runMs = (t2 - t1) * 1e3;
        out.contextMs = ((t1 - t0) + (t3 - t2)) * 1e3;
        out.instructions = instructions;
        out.interpreted = interpreted;
        r.outcome(ok, what + ": output differs from the interpreter");
    } catch (const std::exception &e) {
        out.launchMs = (nowSeconds() - t0) * 1e3;
        r.outcome(false, what + ": " + e.what());
    }
    return out;
}

std::string
residentName(const Resident &res)
{
    return res.program->name + "/" + res.target->name();
}

/**
 * Build one resident per (program, target) and warm each up with one
 * untimed run: it translates, promotes hot functions to the trace
 * tier and chains them.
 */
std::vector<Resident>
warmResidents(const std::vector<Program> &suite, ThreadPool &pool,
              Report &r)
{
    const CodeGenOptions opts = systemOptions();
    std::vector<Resident> out;
    for (const Pair &pair : allPairs(suite.size())) {
        Resident res;
        res.program = &suite[pair.program];
        res.target = getTarget(pair.target);
        res.module = readBytecode(res.program->bytecode).orDie();
        res.profile = std::make_unique<EdgeProfile>();
        res.cm = std::make_unique<CodeManager>(*res.target, opts);
        res.cm->setAdaptive(res.profile.get(), opts.promoteWatermark,
                            &pool);
        for (const auto &f : res.module->functions())
            if (!f->isDeclaration())
                res.defined.push_back(f.get());
        serve(res, r, "warm-up " + residentName(res));
        out.push_back(std::move(res));
    }
    return out;
}

/**
 * Persistent footprint of the resident code caches: the bytes LLEE's
 * write-back would store for them (sealed translations plus the
 * profile), summed over the residents.
 */
double
footprintBytes(std::vector<Resident> &residents)
{
    const CodeGenOptions opts = systemOptions();
    uint64_t total = 0;
    for (Resident &res : residents) {
        MemoryStorage storage;
        LLEE llee(*res.target, &storage, opts);
        const std::string progKey =
            LLEE::programKey(res.program->bytecode);
        res.cm->forEachCached([&](const Function *f, uint8_t tier,
                                  const MachineFunction *mf) {
            TranslationKey k;
            k.targetName = res.target->name();
            k.optLevel = opts.optLevel;
            k.tier = tier;
            storage.write(kCacheName,
                          LLEE::translationKey(progKey, *f, *res.target,
                                               opts),
                          sealTranslation(k, mf ? writeMachineFunction(*mf)
                                                : std::vector<uint8_t>{}));
        });
        llee.writeProfile(res.program->bytecode, *res.profile,
                          *res.module);
        total += storage.cacheSize(kCacheName);
    }
    return double(total);
}

/** The untraced end-to-end metrics shared by both workloads. */
void
setResidentMetrics(Report &r, const std::vector<double> &launchMs,
                   const std::vector<std::vector<double>> &mips)
{
    r.set("launch_ms.p50", percentile(launchMs, 0.5), "ms",
          launchMs.size());
    r.set("launch_ms.p90", percentile(launchMs, 0.9), "ms",
          launchMs.size());
    r.set("exec_mips", geomeanOfMedians(mips), "Minstr/s",
          launchMs.size());
}

/** Simulated instructions per wall microsecond of one run. */
double
runMips(const RunOutcome &out)
{
    return double(out.instructions) / out.runMs / 1e3;
}

double
totalTranslateMs(const std::vector<Resident> &residents)
{
    double ms = 0;
    for (const Resident &res : residents)
        ms += res.cm->totalTranslateSeconds() * 1e3;
    return ms;
}

} // namespace

void
runSteady(const Options &o, Report &r)
{
    ThreadPool pool(1);
    std::vector<Program> suite;
    std::vector<Resident> residents;
    double setup = medianSetupSeconds(
        kSetupReps, r.probe, [&] { suite = buildSuite(kSteadySpecs); });
    const double warmStart = nowSeconds();
    residents = warmResidents(suite, pool, r);
    setup += nowSeconds() - warmStart;
    r.set("setup_s", setup, "s", kSetupReps);
    for (const Program &p : suite)
        r.config["scale." + p.name] = std::to_string(p.scale);

    Rng rng(o.seed);
    PeakRss rss;
    rss.start();
    std::vector<double> launchMs;
    std::vector<std::vector<double>> mips(residents.size());
    double totalInstr = 0, totalRun = 0;
    // Traced: profile off / exact / 1-in-32 runs of every resident,
    // in rotating order, attribute the always-on profile's cost.
    constexpr uint64_t kSampled = 32;
    double offMs = 0, exactMs = 0, sampledMs = 0;
    double contextMs = 0, interpreted = 0;
    uint64_t runs = 0;
    const double translateBefore = totalTranslateMs(residents);
    const Counters before = Counters::now();
    // Traced passes run each resident three times, so one suffices.
    passes(rng, r.probe, residents.size(), o.seconds, o.trace ? 1 : 2,
           [&](size_t i, int pass) {
        Resident &res = residents[i];
        const std::string what = residentName(res);
        if (!o.trace) {
            RunOutcome out = serve(res, r, what);
            launchMs.push_back(out.launchMs);
            mips[i].push_back(runMips(out));
            return;
        }
        for (int k = 0; k < 3; ++k) {
            switch ((k + pass) % 3) {
              case 0: {
                RunOutcome out = serve(res, r, what);
                exactMs += out.runMs;
                contextMs += out.contextMs;
                interpreted += double(out.interpreted);
                totalInstr += double(out.instructions);
                totalRun += out.runMs;
                ++runs;
                break;
              }
              case 1:
                offMs += serve(res, r, what, false).runMs;
                break;
              case 2:
                sampledMs += serve(res, r, what, true, kSampled).runMs;
                break;
            }
        }
    });
    const double peak = rss.peakMiB();

    if (!o.trace) {
        setResidentMetrics(r, launchMs, mips);
        r.set("cache_bytes", footprintBytes(residents), "bytes",
              residents.size());
        r.set("peak_rss_mb", peak, "MiB", 1);
        return;
    }
    double chained = 0;
    for (const Resident &res : residents)
        chained += double(res.cm->chainedFunctions());
    const double per = runs ? 1.0 / double(runs) : 0;
    setTranslationMetrics(r, totalTranslateMs(residents) - translateBefore,
                          Counters::now() - before, runs);
    r.set("vm.exec_ms", totalRun * per, "ms", runs);
    r.set("vm.context_ms", contextMs * per, "ms", runs);
    r.set("vm.instructions", totalInstr * per, "count", runs);
    r.set("vm.instructions_interpreted", interpreted * per, "count", runs);
    r.set("vm.chained_functions", chained / double(residents.size()),
          "count", residents.size());
    r.set("vm.profile_exact_frac", 1.0 - offMs / exactMs, "fraction",
          runs);
    r.set("vm.profile_sampled_frac", 1.0 - offMs / sampledMs, "fraction",
          runs);
    r.config["profile_sampled_interval"] = std::to_string(kSampled);
}

void
runLiveUpdate(const Options &o, Report &r)
{
    ThreadPool pool(1);
    std::vector<Program> suite;
    std::vector<Resident> residents;
    double setup = medianSetupSeconds(
        kSetupReps, r.probe, [&] { suite = buildSuite(kLiveSpecs); });
    const double warmStart = nowSeconds();
    residents = warmResidents(suite, pool, r);
    setup += nowSeconds() - warmStart;
    r.set("setup_s", setup, "s", kSetupReps);
    for (const Program &p : suite)
        r.config["scale." + p.name] = std::to_string(p.scale);
    r.config["replace_interval_ms"] = std::to_string(kReplaceIntervalMs);

    size_t unlinkedBefore = 0, reclaimedBefore = 0, promotionsBefore = 0;
    for (const Resident &res : residents) {
        unlinkedBefore += res.cm->chainsUnlinked();
        reclaimedBefore += res.cm->reclaimedObjects();
        promotionsBefore += res.cm->promotions();
    }
    const double translateBefore = totalTranslateMs(residents);

    Rng rng(o.seed);
    PeakRss rss;
    rss.start();
    std::atomic<size_t> serving{0};
    std::atomic<bool> stop{false};

    // The open-loop replacer: replacement k is due at start + k *
    // interval whatever happened before it; its latency is measured
    // from that due time, so a stalled replacement also delays the
    // ones queued behind it. It replaces the next function of the
    // resident being served, round-robin in a seeded order, so every
    // function is replaced about equally often whatever the seed.
    std::vector<std::vector<const Function *>> replaceOrder;
    Rng pick(o.seed ^ 0x5eedf00dull);
    for (const Resident &res : residents) {
        replaceOrder.push_back(res.defined);
        pick.shuffle(replaceOrder.back());
    }
    std::vector<size_t> nextReplace(residents.size());
    std::vector<double> replaceMs, lagMs;
    std::atomic<size_t> replaced{0};
    size_t retiredPeak = 0, failedReplacements = 0, noBody = 0;
    double busyMs = 0;
    std::thread replacer([&] {
        const double interval = kReplaceIntervalMs / 1e3;
        const double start = nowSeconds();
        for (uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
            const double due = start + double(k) * interval;
            while (nowSeconds() < due) {
                if (stop.load(std::memory_order_relaxed))
                    return;
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(
                        std::min(due - nowSeconds(), 0.0005)));
            }
            const size_t i = serving.load();
            Resident &res = residents[i];
            const std::vector<const Function *> &fns = replaceOrder[i];
            const Function *f = fns[nextReplace[i]++ % fns.size()];
            const double begin = nowSeconds();
            // A null result is a documented outcome (no native body;
            // see replaceFunctionLive), not a failure; only an
            // exception is. The runs' outputs are checked regardless.
            std::string error;
            try {
                if (!res.cm->replaceFunctionLive(f))
                    ++noBody;
            } catch (const std::exception &e) {
                error = e.what();
            }
            if (!error.empty() && ++failedReplacements <= 5)
                std::fprintf(stderr,
                             "perfbench: failed: replacing %s in %s: %s\n",
                             f->name().c_str(), residentName(res).c_str(),
                             error.c_str());
            const double end = nowSeconds();
            replaceMs.push_back((end - due) * 1e3);
            lagMs.push_back((begin - due) * 1e3);
            busyMs += (end - begin) * 1e3;
            replaced.fetch_add(1);
            if (o.trace)
                retiredPeak = std::max(retiredPeak,
                                       res.cm->retiredBodies() +
                                           res.cm->retiredChainCount());
        }
    });

    std::vector<double> launchMs;
    std::vector<std::vector<double>> mips(residents.size());
    double totalInstr = 0, totalRun = 0, contextMs = 0;
    uint64_t runs = 0;
    const double start = nowSeconds();
    passes(rng, r.probe, residents.size(), o.seconds, 2,
           [&](size_t i, int) {
        // Point the replacer at this resident once its context is
        // built: construction holds the code cache's reader lock for
        // tens of ms, which would otherwise stall every replacement.
        RunOutcome out =
            serve(residents[i], r, residentName(residents[i]), true,
                  kSampleInterval, [&] { serving.store(i); });
        launchMs.push_back(out.launchMs);
        mips[i].push_back(runMips(out));
        totalInstr += double(out.instructions);
        totalRun += out.runMs;
        contextMs += out.contextMs;
        ++runs;
    }, [&] { return replaced.load() < kMinReplacements; });
    stop.store(true);
    replacer.join();
    const double elapsedMs = (nowSeconds() - start) * 1e3;
    const double peak = rss.peakMiB();
    r.attempted += replaceMs.size();
    r.failed += failedReplacements;
    r.config["replacer_busy_frac"] = std::to_string(busyMs / elapsedMs);
    r.config["replacements_without_body"] = std::to_string(noBody);

    // After the storm: every resident still serves its oracle output
    // from the churned cache, and nothing retired stays unreclaimed.
    size_t leaked = 0;
    for (Resident &res : residents) {
        serve(res, r, "quiet " + residentName(res));
        leaked += res.cm->retiredBodies() + res.cm->retiredChainCount();
    }
    if (leaked) {
        std::fprintf(stderr, "perfbench: %zu retired objects leaked\n",
                     leaked);
        r.selfCheckFailed = true;
    }

    if (!o.trace) {
        setResidentMetrics(r, launchMs, mips);
        r.set("cache_bytes", footprintBytes(residents), "bytes",
              residents.size());
        r.set("peak_rss_mb", peak, "MiB", 1);
        return;
    }
    size_t unlinked = 0, reclaimed = 0, promotions = 0;
    for (const Resident &res : residents) {
        unlinked += res.cm->chainsUnlinked();
        reclaimed += res.cm->reclaimedObjects();
        promotions += res.cm->promotions();
    }
    const uint64_t n = replaceMs.size();
    r.set("replace_ms.p50", percentile(replaceMs, 0.5), "ms", n);
    r.set("replace_ms.p99", percentile(replaceMs, 0.99), "ms", n);
    r.set("bench.generator_lag_ms", percentile(lagMs, 0.99), "ms", n);
    r.set("vm.live_replacements", double(n), "count", n);
    r.set("vm.chains_unlinked", double(unlinked - unlinkedBefore), "count",
          n);
    r.set("vm.retired_peak", double(retiredPeak), "count", n);
    r.set("vm.reclaimed", double(reclaimed - reclaimedBefore), "count", n);
    r.set("trace.promotions", double(promotions - promotionsBefore),
          "count", runs);
    // Translation on both threads (replacements and the executor's
    // re-promotions), per replacement.
    r.set("vm.translate_ms",
          (totalTranslateMs(residents) - translateBefore) / double(n),
          "ms", n);
    double chained = 0;
    for (const Resident &res : residents)
        chained += double(res.cm->chainedFunctions());
    r.set("vm.chained_functions", chained / double(residents.size()),
          "count", residents.size());
    const double per = runs ? 1.0 / double(runs) : 0;
    r.set("vm.exec_ms", totalRun * per, "ms", runs);
    r.set("vm.context_ms", contextMs * per, "ms", runs);
    r.set("vm.instructions", totalInstr * per, "count", runs);
}

} // namespace perfbench
