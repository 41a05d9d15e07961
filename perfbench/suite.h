/**
 * @file
 * Shared pieces of the LLEE benchmark: the program suite with its
 * interpreter oracle, the system configuration under test, the
 * seeded generator, the pass loop every workload runs, percentile
 * helpers, the result report, and the host-speed and peak-memory
 * probes. Each workload (launch.cpp, resident.cpp) fills a Report;
 * main.cpp prints it.
 */

#ifndef LLEE_PERFBENCH_SUITE_H
#define LLEE_PERFBENCH_SUITE_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "codegen/codegen.h"
#include "vm/interpreter.h"

namespace perfbench {

/** Command line of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/**
 * The system under test, configured as `llva-run -O2 --adaptive`
 * configures LLEE: -O2, adaptive promotion, and LLEE's defaults for
 * everything else (watermark, exact profile counting, threaded
 * dispatch, one translation job).
 */
llva::CodeGenOptions systemOptions();

/** Profile sample interval of the system under test (LLEE default). */
constexpr uint64_t kSampleInterval = 1;

/** The storage cache LLEE keeps its translations and profiles in. */
constexpr const char *kCacheName = "llee-native-cache";

/** Guest memory of one ExecutionContext (its constructor default). */
constexpr uint64_t kContextBytes = 64ull << 20;

/** The three I-ISA targets, in registry order. */
const std::vector<std::string> &targetList();

/** One program of the suite, prepared and with its oracle result. */
struct Program
{
    std::string name;
    int scale = 0;
    std::vector<uint8_t> bytecode;
    /** Reference interpreter result on the same bytecode. */
    llva::ExecResult oracle;
    std::string oracleOutput;
};

/** A program to build: Table-2 name and input scale. */
struct ProgramSpec
{
    std::string name;
    int scale;
};

/**
 * Build each program, optimize it at link time (-O2), verify it,
 * write its bytecode, and run the interpreter on that bytecode to
 * get the reference output. Throws on any failure: a suite that
 * cannot be built is not a measurement.
 */
std::vector<Program> buildSuite(const std::vector<ProgramSpec> &specs);

/** True when an execution matches the program's oracle. */
bool matchesOracle(const Program &p, const llva::ExecResult &r,
                   const std::string &output);

/** A (program, target) pair: index into the suite + target name. */
struct Pair
{
    size_t program;
    std::string target;
};

/** Every program on every target, in suite order. */
std::vector<Pair> allPairs(size_t programs);

/** splitmix64: the benchmark's only source of randomness. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t next();
    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

    template <typename T> void shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t state_;
};

/** Monotonic seconds since an arbitrary epoch. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** RAII span: adds its duration in seconds to \p sink. */
class Span
{
  public:
    explicit Span(double &sink) : sink_(sink), start_(nowSeconds()) {}
    ~Span() { sink_ += nowSeconds() - start_; }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    double &sink_;
    double start_;
};

/** Linear-interpolation percentile (\p q in [0, 1]); 0 if empty. */
double percentile(std::vector<double> v, double q);

/**
 * Host-speed probe. Shared machines drift in speed by tens of percent
 * over minutes, and all wall-clock metrics of a run move with it. The
 * probe times a fixed piece of work that calls nothing in the system
 * under test: mapping and zero-filling 16 MiB of fresh pages, as an
 * ExecutionContext does with its 64 MiB. It is sampled between set-up
 * repetitions and between the run's operations, never inside one, so
 * the system can move it only through threads still running beside
 * it. The wall-clock end-to-end metrics are
 * scaled by reference / median probe time, so they read as on a host
 * where the probe takes kProbeReferenceMs. (On the reference host the
 * page-fault-bound probe tracked the drift of both launches and the
 * dispatch loop better than a CPU-bound loop did.)
 */
class HostProbe
{
  public:
    /** Time the probe once. */
    void sample();
    /** Sample after every kProbeEvery calls. */
    void tick();
    /** reference / median probe time: multiply durations by it. */
    double speedFactor() const;
    /** Probe metadata (sample count, median and range) into \p config. */
    void describe(std::map<std::string, std::string> &config) const;

  private:
    std::vector<double> ms_;
    unsigned calls_ = 0;
};

/** Probe time (ms) of the reference host. */
constexpr double kProbeReferenceMs = 12.0;

/** Operations between two probe samples. */
constexpr unsigned kProbeEvery = 4;

/**
 * Shuffled whole passes over \p count items: at least \p minPasses,
 * then more while another pass fits in \p seconds or \p needMore()
 * holds (up to 4x \p seconds); \p body(i, pass) runs item i. Whole
 * passes only, so every run weighs each item equally. The probe is
 * sampled before the first pass and then every kProbeEvery items.
 */
template <typename Body>
void
passes(Rng &rng, HostProbe &probe, size_t count, double seconds,
       int minPasses, Body body,
       const std::function<bool()> &needMore = {})
{
    std::vector<size_t> order(count);
    for (size_t i = 0; i < count; ++i)
        order[i] = i;
    probe.sample();
    const double start = nowSeconds();
    double passSeconds = 0;
    auto more = [&](int pass) {
        const double elapsed = nowSeconds() - start;
        return pass < minPasses || elapsed + passSeconds <= seconds ||
               (needMore && needMore() && elapsed < 4 * seconds);
    };
    for (int pass = 0; more(pass); ++pass) {
        const double p0 = nowSeconds();
        rng.shuffle(order);
        for (size_t i : order) {
            body(i, pass);
            probe.tick();
        }
        passSeconds = nowSeconds() - p0;
    }
}

/** Geometric mean over items of each item's median sample; 0 if none. */
double geomeanOfMedians(const std::vector<std::vector<double>> &samples);

/**
 * Snapshot of the process-wide translator and chaining counters the
 * per-layer metrics read as deltas around calls into each layer.
 */
struct Counters
{
    double iselMs = 0, phiElimMs = 0, regallocMs = 0, frameMs = 0;
    double selected = 0, spills = 0, reloads = 0;
    double passApplications = 0, passChanges = 0, superblockLinks = 0;

    static Counters now();
    Counters operator-(const Counters &o) const;
    Counters &operator+=(const Counters &o);
};

/**
 * Peak resident memory of the measured phase alone: start() resets
 * the kernel's high-water mark and records the resident size left
 * by set-up; peakMiB() is the high-water mark since then, minus
 * that baseline.
 */
class PeakRss
{
  public:
    void start();
    double peakMiB() const;

  private:
    double baselineMiB_ = 0;
};

/**
 * Run \p setup \p reps times and return the median wall seconds,
 * sampling \p probe after each. Only the last repetition's products
 * are kept by the caller; the repeats exist so set-up time is
 * reported as a median.
 */
double medianSetupSeconds(int reps, HostProbe &probe,
                          const std::function<void()> &setup);

/** Number of set-up repetitions per run (median reported). */
constexpr int kSetupReps = 3;

/** Metrics and accounting of one run. */
struct Report
{
    struct Metric
    {
        double value;
        std::string unit;
    };

    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Set by self-checks that are not per-operation failures. */
    bool selfCheckFailed = false;
    std::map<std::string, Metric> metrics;
    /** Sample count behind each metric (run metadata). */
    std::map<std::string, uint64_t> samples;
    /** Workload-specific configuration (run metadata). */
    std::map<std::string, std::string> config;
    /** Host speed over set-up and the measured phase. */
    HostProbe probe;

    void set(const std::string &name, double value,
             const std::string &unit, uint64_t n = 1)
    {
        metrics[name] = {value, unit};
        samples[name] = n;
    }

    /** Record one attempted operation; \p ok false counts a failure
     *  and logs \p what (first few only) to stderr. */
    void outcome(bool ok, const std::string &what);
};

/**
 * Set the translation per-layer metrics from counter deltas summed
 * over \p ops operations, per operation: vm.translate_ms (given),
 * its split into transforms.opt_ms and the codegen.*_ms stages, and
 * the codegen, pass and chaining counts.
 */
void setTranslationMetrics(Report &r, double translateMs,
                           const Counters &total, uint64_t ops);

/** Names and units of the end-to-end and per-layer metrics. */
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

// --- Workloads -----------------------------------------------------------

void runLaunch(const Options &o, bool warm, Report &r);
void runSteady(const Options &o, Report &r);
void runLiveUpdate(const Options &o, Report &r);

} // namespace perfbench

#endif // LLEE_PERFBENCH_SUITE_H
