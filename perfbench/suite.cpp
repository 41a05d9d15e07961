#include "suite.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/mman.h>

#include "bytecode/bytecode.h"
#include "support/error.h"
#include "support/statistic.h"
#include "transforms/pass.h"
#include "verifier/verifier.h"
#include "workloads/workloads.h"

namespace perfbench {

using namespace llva;

CodeGenOptions
systemOptions()
{
    CodeGenOptions opts;
    opts.optLevel = 2;
    opts.adaptive = true;
    return opts;
}

const std::vector<std::string> &
targetList()
{
    static const std::vector<std::string> names = targetNames();
    return names;
}

std::vector<Program>
buildSuite(const std::vector<ProgramSpec> &specs)
{
    std::vector<Program> out;
    for (const ProgramSpec &spec : specs) {
        Program p;
        p.name = spec.name;
        p.scale = spec.scale;
        {
            auto m = buildWorkload(spec.name, spec.scale);
            PassManager pm;
            addStandardPasses(pm, 2);
            pm.run(*m);
            verifyOrDie(*m);
            p.bytecode = writeBytecode(*m);
        }
        // The oracle runs on the bytecode every launch will load.
        auto m = readBytecode(p.bytecode).orDie();
        ExecutionContext ctx(*m);
        Interpreter interp(ctx);
        p.oracle = interp.run(m->getFunction("main"));
        if (!p.oracle.ok())
            fatal("oracle run of %s trapped: %s", p.name.c_str(),
                  trapKindName(p.oracle.trap));
        p.oracleOutput = ctx.output();
        out.push_back(std::move(p));
    }
    return out;
}

bool
matchesOracle(const Program &p, const ExecResult &r,
              const std::string &output)
{
    return r.ok() && !r.paused && r.value.i == p.oracle.value.i &&
           output == p.oracleOutput;
}

std::vector<Pair>
allPairs(size_t programs)
{
    std::vector<Pair> out;
    for (size_t i = 0; i < programs; ++i)
        for (const std::string &t : targetList())
            out.push_back({i, t});
    return out;
}

uint64_t
Rng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

namespace {

/** Keeps the probe's work from being optimized away. */
volatile uint64_t probeSink;

/** Bytes the probe maps and zero-fills: a quarter of a context. */
constexpr size_t kProbeBytes = kContextBytes / 4;

/** Map, zero-fill and unmap fresh pages, as a context's memory is. */
uint64_t
probeMemory()
{
    void *p = mmap(nullptr, kProbeBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        fatal("host probe: cannot map %zu bytes", kProbeBytes);
    auto *bytes = static_cast<volatile uint8_t *>(p);
    std::memset(p, 0, kProbeBytes);
    const uint64_t v = bytes[kProbeBytes / 2];
    munmap(p, kProbeBytes);
    return v;
}

} // namespace

void
HostProbe::sample()
{
    const double t0 = nowSeconds();
    probeSink = probeMemory();
    ms_.push_back((nowSeconds() - t0) * 1e3);
}

void
HostProbe::tick()
{
    if (++calls_ % kProbeEvery == 0)
        sample();
}

double
HostProbe::speedFactor() const
{
    if (ms_.empty())
        fatal("host probe was never sampled");
    return kProbeReferenceMs / percentile(ms_, 0.5);
}

void
HostProbe::describe(std::map<std::string, std::string> &config) const
{
    auto fmt = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.4g", v);
        return std::string(buf);
    };
    config["probe.samples"] = std::to_string(ms_.size());
    config["probe.reference_ms"] = fmt(kProbeReferenceMs);
    config["probe.ms.p50"] = fmt(percentile(ms_, 0.5));
    config["probe.ms.min"] = fmt(percentile(ms_, 0));
    config["probe.ms.max"] = fmt(percentile(ms_, 1));
}

double
geomeanOfMedians(const std::vector<std::vector<double>> &samples)
{
    if (samples.empty())
        return 0;
    double logs = 0;
    for (const std::vector<double> &v : samples)
        logs += std::log(percentile(v, 0.5));
    return std::exp(logs / double(samples.size()));
}

namespace {

const StageTimer &
stageTimer(const char *name)
{
    for (const StageTimer *t : stats::allTimers())
        if (std::string(t->name()) == name)
            return *t;
    fatal("no stage timer named %s", name);
}

const Statistic &
statistic(const char *name)
{
    for (const Statistic *s : stats::allCounters())
        if (std::string(s->name()) == name)
            return *s;
    fatal("no statistic named %s", name);
}

} // namespace

Counters
Counters::now()
{
    static const StageTimer &isel = stageTimer("translate.isel");
    static const StageTimer &phi = stageTimer("translate.phi_elim");
    static const StageTimer &ra = stageTimer("translate.regalloc");
    static const StageTimer &frame = stageTimer("translate.frame");
    static const Statistic &selected =
        statistic("codegen.instructions_selected");
    static const Statistic &spills = statistic("codegen.spills");
    static const Statistic &reloads = statistic("codegen.reloads");
    static const Statistic &apps = statistic("pass.applications");
    static const Statistic &changes = statistic("pass.changes");
    static const Statistic &links = statistic("vm.superblock_links");
    Counters c;
    c.iselMs = isel.seconds() * 1e3;
    c.phiElimMs = phi.seconds() * 1e3;
    c.regallocMs = ra.seconds() * 1e3;
    c.frameMs = frame.seconds() * 1e3;
    c.selected = double(selected.value());
    c.spills = double(spills.value());
    c.reloads = double(reloads.value());
    c.passApplications = double(apps.value());
    c.passChanges = double(changes.value());
    c.superblockLinks = double(links.value());
    return c;
}

Counters
Counters::operator-(const Counters &o) const
{
    Counters d = *this;
    d.iselMs -= o.iselMs;
    d.phiElimMs -= o.phiElimMs;
    d.regallocMs -= o.regallocMs;
    d.frameMs -= o.frameMs;
    d.selected -= o.selected;
    d.spills -= o.spills;
    d.reloads -= o.reloads;
    d.passApplications -= o.passApplications;
    d.passChanges -= o.passChanges;
    d.superblockLinks -= o.superblockLinks;
    return d;
}

Counters &
Counters::operator+=(const Counters &o)
{
    iselMs += o.iselMs;
    phiElimMs += o.phiElimMs;
    regallocMs += o.regallocMs;
    frameMs += o.frameMs;
    selected += o.selected;
    spills += o.spills;
    reloads += o.reloads;
    passApplications += o.passApplications;
    passChanges += o.passChanges;
    superblockLinks += o.superblockLinks;
    return *this;
}

namespace {

/** A "Vm...:  <n> kB" field of /proc/self/status, in MiB. */
double
statusMiB(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string prefix = std::string(field) + ":";
    while (std::getline(in, line))
        if (line.rfind(prefix, 0) == 0) {
            std::istringstream rest(line.substr(prefix.size()));
            double kb = 0;
            rest >> kb;
            return kb / 1024.0;
        }
    fatal("cannot read %s from /proc/self/status", field);
}

} // namespace

void
PeakRss::start()
{
    // Writing 5 resets VmHWM to the current resident size.
    std::ofstream reset("/proc/self/clear_refs");
    reset << "5";
    reset.close();
    if (!reset)
        fatal("cannot reset the peak resident size");
    baselineMiB_ = statusMiB("VmRSS");
}

double
PeakRss::peakMiB() const
{
    return statusMiB("VmHWM") - baselineMiB_;
}

double
medianSetupSeconds(int reps, HostProbe &probe,
                   const std::function<void()> &setup)
{
    std::vector<double> times;
    for (int i = 0; i < reps; ++i) {
        double t0 = nowSeconds();
        setup();
        times.push_back(nowSeconds() - t0);
        probe.sample();
    }
    return percentile(times, 0.5);
}

void
Report::outcome(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    if (++failed <= 5)
        std::fprintf(stderr, "perfbench: failed: %s\n", what.c_str());
}

void
setTranslationMetrics(Report &r, double translateMs,
                      const Counters &total, uint64_t ops)
{
    const double n = ops ? double(ops) : 1.0;
    const double codegenMs = total.iselMs + total.phiElimMs +
                             total.regallocMs + total.frameMs;
    r.set("vm.translate_ms", translateMs / n, "ms", ops);
    r.set("transforms.opt_ms", (translateMs - codegenMs) / n, "ms", ops);
    r.set("codegen.isel_ms", total.iselMs / n, "ms", ops);
    r.set("codegen.phi_elim_ms", total.phiElimMs / n, "ms", ops);
    r.set("codegen.regalloc_ms", total.regallocMs / n, "ms", ops);
    r.set("codegen.frame_ms", total.frameMs / n, "ms", ops);
    r.set("codegen.instructions_selected", total.selected / n, "count",
          ops);
    r.set("codegen.spills", total.spills / n, "count", ops);
    r.set("codegen.reloads", total.reloads / n, "count", ops);
    r.set("pass.applications", total.passApplications / n, "count", ops);
    r.set("pass.changes", total.passChanges / n, "count", ops);
    r.set("vm.superblock_links", total.superblockLinks / n, "count", ops);
}

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"launch_ms.p50", "ms"},     {"launch_ms.p90", "ms"},
        {"exec_mips", "Minstr/s"},   {"cache_bytes", "bytes"},
        {"peak_rss_mb", "MiB"},      {"setup_s", "s"},
    };
    return m;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"bytecode.read_ms", "ms"},
        {"vm.context_ms", "ms"},
        {"llee.cache_open_ms", "ms"},
        {"llee.mcode_decode_ms", "ms"},
        {"llee.profile_io_ms", "ms"},
        {"llee.writeback_ms", "ms"},
        {"llee.hit_ratio", "fraction"},
        {"vm.translate_ms", "ms"},
        {"transforms.opt_ms", "ms"},
        {"codegen.isel_ms", "ms"},
        {"codegen.phi_elim_ms", "ms"},
        {"codegen.regalloc_ms", "ms"},
        {"codegen.frame_ms", "ms"},
        {"codegen.instructions_selected", "count"},
        {"codegen.spills", "count"},
        {"codegen.reloads", "count"},
        {"pass.applications", "count"},
        {"pass.changes", "count"},
        {"vm.exec_ms", "ms"},
        {"trace.promotions", "count"},
        {"trace.coverage", "fraction"},
        {"vm.instructions", "count"},
        {"vm.instructions_interpreted", "count"},
        {"vm.chained_functions", "count"},
        {"vm.superblock_links", "count"},
        {"vm.profile_exact_frac", "fraction"},
        {"vm.profile_sampled_frac", "fraction"},
        {"vm.live_replacements", "count"},
        {"vm.chains_unlinked", "count"},
        {"vm.retired_peak", "count"},
        {"vm.reclaimed", "count"},
        {"replace_ms.p50", "ms"},
        {"replace_ms.p99", "ms"},
        {"error_rate", "fraction"},
        {"bench.generator_lag_ms", "ms"},
        {"bench.unaccounted_frac", "fraction"},
        {"bench.trace_overhead_frac", "fraction"},
    };
    return m;
}

} // namespace perfbench
