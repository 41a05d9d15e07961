/**
 * @file
 * The launch workloads: every Table-2 program on every target, run
 * through LLEE::execute against MemoryStorage — empty (launch_cold)
 * or primed by one untimed cold launch (launch_warm).
 *
 * The traced run replays LLEE::execute step by step through the same
 * public calls (replayLaunch) and times each layer from here; nothing
 * inside the system is instrumented. Every replay is checked against
 * a plain LLEE::execute of the same program, target and cache state.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "bytecode/bytecode.h"
#include "llee/envelope.h"
#include "llee/llee.h"
#include "llee/mcode_io.h"
#include "support/error.h"
#include "support/hashing.h"
#include "support/thread_pool.h"
#include "suite.h"
#include "trace/profile.h"
#include "workloads/workloads.h"

namespace perfbench {

using namespace llva;

namespace {

/** Share of a traced launch the layer spans may leave uncovered. */
constexpr double kMaxUnaccountedFrac = 0.02;

/** What one launch produced: the fields the self-check compares. */
struct LaunchOutcome
{
    ExecResult exec;
    std::string output;
    size_t hits = 0;
    size_t misses = 0;
    size_t translated = 0;
    size_t promotions = 0;
    uint64_t instructions = 0;
    uint64_t cacheBytes = 0;
    double wallMs = 0;
    std::string error; ///< exception caught from the call, if any
};

/** Per-launch layer times (ms) and counts from one traced replay. */
struct LayerTimes
{
    double read = 0, cacheOpen = 0, decode = 0, profileIo = 0;
    double context = 0, run = 0, writeback = 0, wall = 0;
    double translate = 0;
    Counters counters;
    double promotions = 0, coverage = 0, interpreted = 0, chained = 0;
    double instructions = 0, launches = 0;

    /** Sum of the layers' self times. */
    double accounted() const
    {
        return read + cacheOpen + decode + profileIo + context + run +
               writeback;
    }

    LayerTimes &operator+=(const LayerTimes &o)
    {
        read += o.read;
        cacheOpen += o.cacheOpen;
        decode += o.decode;
        profileIo += o.profileIo;
        context += o.context;
        run += o.run;
        writeback += o.writeback;
        wall += o.wall;
        translate += o.translate;
        counters += o.counters;
        promotions += o.promotions;
        coverage += o.coverage;
        interpreted += o.interpreted;
        chained += o.chained;
        instructions += o.instructions;
        launches += o.launches;
        return *this;
    }
};

std::vector<ProgramSpec>
launchSpecs()
{
    std::vector<ProgramSpec> specs;
    for (const WorkloadInfo &info : allWorkloads())
        specs.push_back({info.name, info.defaultScale});
    return specs;
}

LaunchOutcome
plainLaunch(Target &target, MemoryStorage &storage, const Program &p)
{
    LLEE llee(target, &storage, systemOptions());
    LaunchOutcome out;
    const double t0 = nowSeconds();
    try {
        LLEEResult res = llee.execute(p.bytecode);
        out.wallMs = (nowSeconds() - t0) * 1e3;
        out.exec = res.exec;
        out.output = std::move(res.output);
        out.hits = res.cacheHits;
        out.misses = res.cacheMisses;
        out.translated = res.functionsTranslatedOnline;
        out.promotions = res.promotions;
        out.instructions = res.machineInstructionsExecuted;
    } catch (const std::exception &e) {
        out.wallMs = (nowSeconds() - t0) * 1e3;
        out.error = e.what();
    }
    out.cacheBytes = storage.cacheSize(kCacheName);
    return out;
}

/** The compatibility key LLEE stamps on and expects from entries. */
TranslationKey
compatKey(const Target &target, const CodeGenOptions &opts,
          const std::string &fnName, uint64_t moduleHash)
{
    TranslationKey k;
    k.targetName = target.name();
    k.allocator = static_cast<uint8_t>(opts.allocator);
    k.coalesce = opts.coalesce ? 1 : 0;
    k.optLevel = opts.optLevel;
    k.sourceHash =
        fnv1a(reinterpret_cast<const uint8_t *>(fnName.data()),
              fnName.size(), moduleHash);
    return k;
}

/**
 * LLEE::execute, step for step, with a span around each layer's
 * calls. Steps, in LLEE's order: bytecode read; profile read; per
 * function, storage read + envelope open, then mcode decode +
 * install; context construction; the simulator run (which translates
 * misses on demand and promotes hot functions); write-back of new
 * translations and the profile; context destruction. Whatever lies
 * outside the spans (key strings, thread-pool start, module and code
 * cache teardown) is the unaccounted remainder.
 */
LaunchOutcome
replayLaunch(Target &target, MemoryStorage &storage, const Program &p,
             LayerTimes &t)
{
    const CodeGenOptions opts = systemOptions();
    LLEE llee(target, &storage, opts);
    LaunchOutcome out;
    double read = 0, cacheOpen = 0, decode = 0, profileIo = 0;
    double context = 0, run = 0, writeback = 0;
    const Counters before = Counters::now();
    const double t0 = nowSeconds();
    try {
        const uint64_t moduleHash = fnv1a(p.bytecode);
        const std::string progKey = LLEE::programKey(p.bytecode);
        std::unique_ptr<Module> m;
        {
            Span s(read);
            m = readBytecode(p.bytecode).orDie();
        }
        CodeManager cm(target, opts);
        EdgeProfile profile;
        {
            Span s(profileIo);
            llee.readProfile(p.bytecode, profile);
        }
        ThreadPool promotionPool(1);
        cm.setAdaptive(&profile, opts.promoteWatermark, &promotionPool);

        std::map<const Function *, uint8_t> loadedTier;
        for (const auto &f : m->functions()) {
            if (f->isDeclaration())
                continue;
            const std::string name =
                LLEE::translationKey(progKey, *f, target, opts);
            std::vector<uint8_t> cached, payload;
            uint8_t tier = 0;
            bool found = false;
            EnvelopeStatus st = EnvelopeStatus::Corrupt;
            {
                Span s(cacheOpen);
                found = storage.read(kCacheName, name, cached);
                if (found)
                    st = openTranslation(
                        cached,
                        compatKey(target, opts, f->name(), moduleHash),
                        payload, &tier);
            }
            bool installed = false;
            if (found && st == EnvelopeStatus::Ok) {
                Span s(decode);
                if (tier == kTierInterpreter && payload.empty()) {
                    cm.markInterpreted(f.get());
                    installed = true;
                } else {
                    auto mf = readMachineFunction(payload, *m, f.get());
                    if (mf.ok()) {
                        cm.install(f.get(), mf.take(), tier);
                        loadedTier[f.get()] = tier;
                        installed = true;
                    }
                }
            }
            if (found && !installed) {
                Span s(cacheOpen);
                storage.remove(kCacheName, name);
            }
            ++(installed ? out.hits : out.misses);
        }

        std::unique_ptr<ExecutionContext> ctx;
        {
            Span s(context);
            ctx = std::make_unique<ExecutionContext>(*m);
        }
        auto sim = std::make_unique<MachineSimulator>(*ctx, cm);
        sim->setProfileSampleInterval(kSampleInterval);
        sim->setProfile(&profile);
        const Function *entry = m->getFunction("main");
        if (!entry || entry->isDeclaration())
            fatal("LLEE: no entry function %%main");
        {
            Span s(run);
            out.exec = sim->run(entry);
        }
        out.output = ctx->output();
        out.instructions = sim->instructionsExecuted();
        out.translated = cm.functionsTranslated();
        out.promotions = cm.promotions();
        t.translate = cm.totalTranslateSeconds() * 1e3;
        t.promotions = double(cm.promotions());
        t.coverage = cm.lastTraceCoverage();
        t.interpreted = double(sim->instructionsInterpreted());
        t.chained = double(cm.chainedFunctions());
        t.instructions = double(out.instructions);

        {
            Span s(writeback);
            for (const auto &f : m->functions()) {
                if (f->isDeclaration())
                    continue;
                const bool interp = cm.isInterpreted(f.get());
                if (!interp && !cm.has(f.get()))
                    continue;
                const uint8_t achieved =
                    interp ? kTierInterpreter : cm.tierOf(f.get());
                auto lt = loadedTier.find(f.get());
                const bool promoted =
                    achieved == kTierTrace &&
                    (lt == loadedTier.end() || lt->second != kTierTrace);
                const std::string name =
                    LLEE::translationKey(progKey, *f, target, opts);
                if (!promoted && storage.timestamp(kCacheName, name) != 0)
                    continue;
                TranslationKey k =
                    compatKey(target, opts, f->name(), moduleHash);
                k.tier = achieved;
                if (achieved == kTierTrace)
                    k.profileHash = profileHash(profile);
                storage.write(
                    kCacheName, name,
                    sealTranslation(
                        k, interp ? std::vector<uint8_t>{}
                                  : writeMachineFunction(*cm.get(f.get()))));
            }
        }
        if (!profile.empty()) {
            Span s(profileIo);
            llee.writeProfile(p.bytecode, profile, *m);
        }
        sim.reset();
        {
            Span s(context);
            ctx.reset();
        }
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    out.wallMs = (nowSeconds() - t0) * 1e3;
    t.counters = Counters::now() - before;
    t.read = read * 1e3;
    t.cacheOpen = cacheOpen * 1e3;
    t.decode = decode * 1e3;
    t.profileIo = profileIo * 1e3;
    t.context = context * 1e3;
    t.run = run * 1e3;
    t.writeback = writeback * 1e3;
    t.wall = out.wallMs;
    t.launches = 1;
    out.cacheBytes = storage.cacheSize(kCacheName);
    return out;
}

std::string
pairName(const std::vector<Program> &suite, const Pair &pair)
{
    return suite[pair.program].name + "/" + pair.target;
}

/** Check one launch against the oracle (and, warm, the cache). */
void
checkLaunch(Report &r, const Program &p, const std::string &what,
            const LaunchOutcome &l, bool warm)
{
    if (!l.error.empty()) {
        r.outcome(false, what + ": " + l.error);
        return;
    }
    if (!matchesOracle(p, l.exec, l.output)) {
        r.outcome(false, what + ": output differs from the interpreter");
        return;
    }
    // A warm launch must find every function it calls in the cache:
    // its only online translations are promotions of functions whose
    // profile, accumulated over both launches, crossed the watermark.
    // (Misses alone are fine: functions no run ever called were
    // never translated, so they have no entry.)
    r.outcome(!warm || l.translated == l.promotions,
              what + ": warm launch translated a cache miss online");
}

/** The replay self-check: the traced launch must reproduce LLEE. */
bool
sameLaunch(const LaunchOutcome &a, const LaunchOutcome &b)
{
    return a.error == b.error && a.exec.ok() == b.exec.ok() &&
           a.exec.value.i == b.exec.value.i && a.output == b.output &&
           a.hits == b.hits && a.misses == b.misses &&
           a.translated == b.translated &&
           a.promotions == b.promotions &&
           a.instructions == b.instructions &&
           a.cacheBytes == b.cacheBytes;
}

/** ROADMAP's first finding: where a cold launch's time goes. */
void
printColdShares(const std::vector<Program> &suite,
                const std::vector<Pair> &pairs,
                const std::vector<LayerTimes> &perPair)
{
    std::fprintf(stderr,
                 "\n| program | target | launch ms | context | "
                 "translate | execute | other |\n"
                 "|---|---|---:|---:|---:|---:|---:|\n");
    for (size_t i = 0; i < pairs.size(); ++i) {
        const LayerTimes &t = perPair[i];
        if (t.wall <= 0)
            continue;
        const double exec = t.run - t.translate;
        auto pct = [&](double ms) { return 100.0 * ms / t.wall; };
        std::fprintf(stderr,
                     "| %s | %s | %.1f | %.0f%% | %.0f%% | %.0f%% | "
                     "%.0f%% |\n",
                     suite[pairs[i].program].name.c_str(),
                     pairs[i].target.c_str(), t.wall / t.launches,
                     pct(t.context), pct(t.translate), pct(exec),
                     pct(t.wall - t.context - t.run));
    }
}

} // namespace

void
runLaunch(const Options &o, bool warm, Report &r)
{
    std::vector<Program> suite;
    // Set-up: the suite (built kSetupReps times, median kept), then
    // for launch_warm one untimed cold launch per pair into its own
    // storage. Each warm launch gets a copy of that primed storage,
    // so every one of them sees the same cache state.
    double setup = medianSetupSeconds(
        kSetupReps, r.probe, [&] { suite = buildSuite(launchSpecs()); });
    const double primeStart = nowSeconds();
    const std::vector<Pair> pairs = allPairs(suite.size());
    std::vector<MemoryStorage> primed(warm ? pairs.size() : 0);
    for (size_t i = 0; i < primed.size(); ++i) {
        const Program &p = suite[pairs[i].program];
        LaunchOutcome l =
            plainLaunch(*getTarget(pairs[i].target), primed[i], p);
        checkLaunch(r, p, "priming " + pairName(suite, pairs[i]), l,
                    false);
    }
    setup += nowSeconds() - primeStart;
    r.set("setup_s", setup, "s", kSetupReps);
    r.config["programs"] = std::to_string(suite.size());
    r.config["targets"] = std::to_string(targetList().size());
    r.config["scale"] = "default";

    auto storageFor = [&](size_t i) {
        return warm ? primed[i] : MemoryStorage{};
    };

    Rng rng(o.seed);
    PeakRss rss;
    rss.start();
    std::vector<double> launchMs;
    // Per pair, simulated instructions per wall microsecond of each
    // launch.
    std::vector<std::vector<double>> pairMips(pairs.size());
    uint64_t cacheBytes = 0;
    std::vector<double> tracedMs;
    std::vector<LayerTimes> perPair(pairs.size());
    LayerTimes total;
    size_t hits = 0, missTranslations = 0, drift = 0;

    // At least two passes: >= 100 launches, so >= 10 lie beyond p90.
    passes(rng, r.probe, pairs.size(), o.seconds, 2,
           [&](size_t i, int pass) {
        const Program &p = suite[pairs[i].program];
        Target &target = *getTarget(pairs[i].target);
        const std::string what = pairName(suite, pairs[i]);
        MemoryStorage plainStore = storageFor(i);
        if (!o.trace) {
            LaunchOutcome l = plainLaunch(target, plainStore, p);
            checkLaunch(r, p, what, l, warm);
            launchMs.push_back(l.wallMs);
            pairMips[i].push_back(double(l.instructions) / l.wallMs / 1e3);
            if (pass == 0)
                cacheBytes += l.cacheBytes;
            return;
        }
        // Traced: the replay and a plain launch of the same cache
        // state, in alternating order.
        MemoryStorage tracedStore = storageFor(i);
        LayerTimes t;
        LaunchOutcome plain, traced;
        if (pass % 2 == 0) {
            plain = plainLaunch(target, plainStore, p);
            traced = replayLaunch(target, tracedStore, p, t);
        } else {
            traced = replayLaunch(target, tracedStore, p, t);
            plain = plainLaunch(target, plainStore, p);
        }
        checkLaunch(r, p, what, traced, warm);
        if (!sameLaunch(plain, traced)) {
            if (++drift <= 5)
                std::fprintf(stderr, "perfbench: replay drift on %s\n",
                             what.c_str());
            r.selfCheckFailed = true;
        }
        launchMs.push_back(plain.wallMs);
        tracedMs.push_back(traced.wallMs);
        hits += traced.hits;
        missTranslations += traced.translated - traced.promotions;
        total += t;
        perPair[i] += t;
    });
    const double peak = rss.peakMiB();

    if (!o.trace) {
        r.set("launch_ms.p50", percentile(launchMs, 0.5), "ms",
              launchMs.size());
        r.set("launch_ms.p90", percentile(launchMs, 0.9), "ms",
              launchMs.size());
        r.set("exec_mips", geomeanOfMedians(pairMips), "Minstr/s",
              launchMs.size());
        r.set("cache_bytes", double(cacheBytes), "bytes", pairs.size());
        r.set("peak_rss_mb", peak, "MiB", 1);
        return;
    }

    const uint64_t n = tracedMs.size();
    const double per = 1.0 / double(n);
    r.set("bytecode.read_ms", total.read * per, "ms", n);
    r.set("vm.context_ms", total.context * per, "ms", n);
    r.set("llee.cache_open_ms", total.cacheOpen * per, "ms", n);
    r.set("llee.mcode_decode_ms", total.decode * per, "ms", n);
    r.set("llee.profile_io_ms", total.profileIo * per, "ms", n);
    r.set("llee.writeback_ms", total.writeback * per, "ms", n);
    // Of the functions a launch needed code for, the share served from
    // the cache rather than translated on a miss. (LLEE's own miss
    // count also includes functions no run calls; promotions are not
    // misses.)
    const size_t needed = hits + missTranslations;
    const double hitRatio = needed ? double(hits) / double(needed) : 0;
    r.set("llee.hit_ratio", hitRatio, "fraction", needed);
    // A cold launch finds nothing in its empty storage; a warm one
    // finds everything it needs.
    if (hitRatio != (warm ? 1.0 : 0.0)) {
        std::fprintf(stderr, "perfbench: hit ratio %g on a %s launch\n",
                     hitRatio, warm ? "warm" : "cold");
        r.selfCheckFailed = true;
    }
    setTranslationMetrics(r, total.translate, total.counters, n);
    r.set("vm.exec_ms", (total.run - total.translate) * per, "ms", n);
    r.set("trace.promotions", total.promotions * per, "count", n);
    r.set("trace.coverage", total.coverage * per, "fraction", n);
    r.set("vm.instructions_interpreted", total.interpreted * per,
          "count", n);
    r.set("vm.chained_functions", total.chained * per, "count", n);
    r.set("vm.instructions", total.instructions * per, "count", n);
    // The layers must account for the replayed launch: a replay that
    // stops covering a layer fails the run.
    const double unaccounted = 1.0 - total.accounted() / total.wall;
    r.set("bench.unaccounted_frac", unaccounted, "fraction", n);
    if (unaccounted > kMaxUnaccountedFrac) {
        std::fprintf(stderr,
                     "perfbench: layers leave %.4f of the traced launch "
                     "time unaccounted (bound %.2f)\n",
                     unaccounted, kMaxUnaccountedFrac);
        r.selfCheckFailed = true;
    }
    r.set("bench.trace_overhead_frac",
          percentile(tracedMs, 0.5) / percentile(launchMs, 0.5) - 1.0,
          "fraction", n);
    if (!warm)
        printColdShares(suite, pairs, perPair);
}

} // namespace perfbench
