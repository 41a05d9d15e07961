/**
 * @file
 * Execution throughput: instructions per second of the simulated
 * processor (direct-threaded handlers, chained trace-tier
 * superblocks, translation-time block IDs), with the always-on
 * profile exact and 1-in-32 sampled. Every configuration runs warm:
 * an adaptive first pass promotes the hot functions to -O2+traces,
 * then the timed runs execute from the same code cache with
 * profiling left on — the whole point of making profiling cheap is
 * never switching it off.
 *
 * The reference interpreter (itself computed-goto threaded) is
 * timed alongside for scale and is the oracle: any value or output
 * divergence from it is fatal. The table is printed as the markdown
 * EXPERIMENTS.md embeds (section A8), and the rows land in
 * BENCH_throughput.json so CI can archive and diff them.
 */

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "llee/llee.h"

using namespace llva;
using namespace llva::bench;

namespace {

CodeGenOptions
adaptiveOpts()
{
    CodeGenOptions opts;
    opts.optLevel = 2;
    opts.adaptive = true;
    opts.promoteWatermark = 500;
    return opts;
}

struct Measured
{
    double ips = 0;        ///< instructions / second
    uint64_t value = 0;    ///< program checksum (divergence check)
    std::string output;    ///< captured output (divergence check)
    size_t promotions = 0;
    size_t chained = 0;    ///< chained functions after the runs
};

/** Keep timing until both floors are met. */
constexpr double kMinSeconds = 0.2;
constexpr int kMinRuns = 3;

Measured
measureSim(Module &m, Target &target, uint64_t sampleInterval = 1)
{
    CodeManager cm(target, adaptiveOpts());
    EdgeProfile profile;
    cm.setAdaptive(&profile, adaptiveOpts().promoteWatermark);

    Measured out;
    // Warm pass: profile, promote, translate — none of it timed.
    {
        ExecutionContext ctx(m);
        MachineSimulator sim(ctx, cm);
        sim.setProfile(&profile);
        auto r = sim.run(m.getFunction("main"));
        if (!r.ok())
            fatal("throughput warmup trapped: %s",
                  trapKindName(r.trap));
        out.value = r.value.i;
        out.output = ctx.output();
    }
    // Timed passes from the warm cache, profiling still on.
    uint64_t instrs = 0;
    double secs = 0;
    for (int runs = 0; runs < kMinRuns || secs < kMinSeconds;
         ++runs) {
        ExecutionContext ctx(m);
        MachineSimulator sim(ctx, cm);
        sim.setProfile(&profile);
        sim.setProfileSampleInterval(sampleInterval);
        Timer t;
        auto r = sim.run(m.getFunction("main"));
        secs += t.seconds();
        instrs += sim.instructionsExecuted();
        if (!r.ok() || r.value.i != out.value)
            fatal("throughput divergence across runs");
    }
    out.ips = secs > 0 ? instrs / secs : 0;
    out.promotions = cm.promotions();
    out.chained = cm.chainedFunctions();
    return out;
}

Measured
measureInterp(Module &m)
{
    Measured out;
    uint64_t instrs = 0;
    double secs = 0;
    for (int runs = 0; runs < kMinRuns || secs < kMinSeconds;
         ++runs) {
        ExecutionContext ctx(m);
        Interpreter interp(ctx);
        Timer t;
        auto r = interp.run(m.getFunction("main"));
        secs += t.seconds();
        instrs += r.instructionsExecuted;
        if (!r.ok())
            fatal("interpreter trapped in throughput bench");
        out.value = r.value.i;
        out.output = ctx.output();
    }
    out.ips = secs > 0 ? instrs / secs : 0;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    // The full engine samples its always-on profile (every Nth
    // event, weight N — totals stay in execution units, so the
    // promotion watermark needs no rescaling).
    constexpr uint64_t kSampleInterval = 32;

    std::printf("Execution throughput, x86, warm -O2+traces, "
                "profiling on (M/s = million simulated machine "
                "instructions per wall-clock second)\n\n");
    std::printf("| Program | interp (M/s) | threaded (M/s) | "
                "+sample %llu (M/s) | chained |\n",
                (unsigned long long)kSampleInterval);
    std::printf("|---------|-------------:|---------------:|"
                "-----------------:|--------:|\n");

    Target &target = *getTarget("x86");
    JsonReport report("throughput");
    for (const auto &info : allWorkloads()) {
        auto m = prepared(info);

        Measured in = measureInterp(*m);
        Measured th = measureSim(*m, target);
        Measured ts = measureSim(*m, target, kSampleInterval);
        if (th.value != in.value || th.output != in.output ||
            ts.value != in.value || ts.output != in.output)
            fatal("simulator diverges from the interpreter in %s",
                  info.name.c_str());

        std::printf("| %s | %.1f | %.1f | %.1f | %zu |\n",
                    info.name.c_str(), in.ips / 1e6, th.ips / 1e6,
                    ts.ips / 1e6, ts.chained);
        report.beginRow()
            .field("program", info.name)
            .field("interp_ips", in.ips)
            .field("threaded_ips", th.ips)
            .field("threaded_sampled_ips", ts.ips)
            .field("promotions", double(ts.promotions))
            .field("chained_functions", double(ts.chained));
    }
    std::printf("\n");
    report.write();

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

// Timed: one warm run of the first workload, for
// `--benchmark_filter` style comparisons.
static void
BM_ThreadedDispatch(benchmark::State &state)
{
    auto m = prepared(allWorkloads()[0]);
    CodeManager cm(*getTarget("x86"), adaptiveOpts());
    EdgeProfile profile;
    cm.setAdaptive(&profile, 500);
    for (auto _ : state) {
        ExecutionContext ctx(*m);
        MachineSimulator sim(ctx, cm);
        sim.setProfile(&profile);
        benchmark::DoNotOptimize(
            sim.run(m->getFunction("main")).value.i);
    }
}
BENCHMARK(BM_ThreadedDispatch);
