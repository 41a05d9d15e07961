/**
 * @file
 * Table 2, columns 10-12: whole-program JIT translation time, run
 * time, and the translate/run ratio. Paper: "the JIT compilation
 * times are negligible, except for large codes with short running
 * time" — under 1% of execution time for most programs.
 *
 * Translate time is real wall-clock time of our translator (like
 * the paper's). Run time is simulated: machine instructions
 * executed at a nominal 1 GHz, 1 IPC (the paper ran on real
 * hardware; the ratio's shape is what transfers).
 */

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "support/statistic.h"

using namespace llva;
using namespace llva::bench;

int
main(int argc, char **argv)
{
    std::printf("Table 2 (translation cost): JIT translate vs run "
                "time\n");
    hr('=');
    std::printf("%-18s %12s %12s %9s\n", "Program", "Translate(s)",
                "Run(s)", "ratio");
    hr();

    stats::reset();
    JsonReport report("table2");
    for (const auto &info : allWorkloads()) {
        // Larger inputs than the other benches: translation cost is
        // per-instruction (static) while run time scales with the
        // input, which is what makes the paper's ratios tiny.
        auto m = prepared(info, 2, info.defaultScale * 3);

        // Whole-program translation (the paper compiles the entire
        // program "regardless of which functions are actually
        // executed" to make the data easier to understand).
        Target &target = *getTarget("x86");
        CodeGenOptions opts;
        opts.allocator = CodeGenOptions::Allocator::Local;

        // Best-of-5 wall-clock translation time.
        double best = 1e18;
        for (int rep = 0; rep < 5; ++rep) {
            CodeManager cm(target, opts);
            Timer t;
            cm.translateAll(*m);
            best = std::min(best, t.seconds());
        }

        CodeManager cm(target, opts);
        cm.translateAll(*m);
        ExecutionContext ctx(*m);
        MachineSimulator sim(ctx, cm);
        auto r = sim.run(m->getFunction("main"));
        if (!r.ok())
            fatal("workload %s failed", info.name.c_str());
        double run_seconds =
            static_cast<double>(sim.instructionsExecuted()) /
            kSimHz;

        std::printf("%-18s %12.6f %12.6f %9.3f\n", info.name.c_str(),
                    best, run_seconds,
                    run_seconds > 0 ? best / run_seconds : 0.0);
        report.beginRow()
            .field("program", info.name)
            .field("translate_s", best)
            .field("run_s", run_seconds)
            .field("translate_run_ratio",
                   run_seconds > 0 ? best / run_seconds : 0.0);
    }
    hr();
    report.write();
    std::printf("(run time = simulated instructions at 1 GHz, "
                "1 IPC; ratios > 1 correspond to the paper's "
                "short-running codes)\n\n");

    // Pipeline observability: per-stage timing and the named
    // counters accumulated across every translation above.
    std::fputs(stats::report().c_str(), stdout);
    std::printf("\n");

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

// Wall-clock translation benchmark per target, for the record.
static void
BM_TranslateWholeProgram_x86(benchmark::State &state)
{
    auto m = prepared(allWorkloads()[0]);
    for (auto _ : state) {
        CodeManager cm(*getTarget("x86"));
        cm.translateAll(*m);
        benchmark::DoNotOptimize(cm.totalMachineInstructions());
    }
}
BENCHMARK(BM_TranslateWholeProgram_x86);

static void
BM_TranslateWholeProgram_sparc(benchmark::State &state)
{
    auto m = prepared(allWorkloads()[0]);
    for (auto _ : state) {
        CodeManager cm(*getTarget("sparc"));
        cm.translateAll(*m);
        benchmark::DoNotOptimize(cm.totalMachineInstructions());
    }
}
BENCHMARK(BM_TranslateWholeProgram_sparc);
