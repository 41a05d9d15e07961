/**
 * @file
 * The LLEE benchmark driver.
 *
 *   llee_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *              [--commit <id>]
 *
 * Workloads: launch_cold, launch_warm, steady_exec, live_update (see
 * README.md). With --trace 0 the run reports the end-to-end metrics;
 * with --trace 1 it reports the per-layer metrics from a traced run.
 * Standard output ends with two JSON lines: the run metadata, then
 * the result {"correct", "attempted", "failed", "metrics"}.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include <unistd.h>

#include "suite.h"

#ifndef LLEE_BENCH_BUILD_TYPE
#define LLEE_BENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out.push_back(c);
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        throw std::runtime_error("non-finite metric value");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: llee_bench --workload "
                 "<launch_cold|launch_warm|steady_exec|live_update> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--commit <id>]\n");
    std::exit(2);
}

void
printMeta(const Options &o, const std::string &commit,
          const Report &r)
{
    char host[256] = {};
    if (gethostname(host, sizeof host - 1) != 0)
        std::strcpy(host, "unknown");
    const llva::CodeGenOptions opts = systemOptions();
    std::string s = "{\"meta\": {";
    s += "\"commit\": " + jsonString(commit);
    s += ", \"host\": " + jsonString(host);
    s += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
    s += ", \"build_type\": " + jsonString(LLEE_BENCH_BUILD_TYPE);
    s += ", \"workload\": " + jsonString(o.workload);
    s += ", \"seed\": " + std::to_string(o.seed);
    s += ", \"seconds\": " + jsonNumber(o.seconds);
    s += ", \"trace\": " + std::string(o.trace ? "1" : "0");
    s += ", \"system\": {\"opt_level\": " +
         std::to_string(opts.optLevel) + ", \"adaptive\": " +
         (opts.adaptive ? "true" : "false") +
         ", \"watermark\": " + std::to_string(opts.promoteWatermark) +
         ", \"sample_interval\": " + std::to_string(kSampleInterval) +
         ", \"context_bytes\": " + std::to_string(kContextBytes) +
         ", \"dispatch\": \"threaded\", \"jobs\": 1"
         ", \"storage\": \"MemoryStorage\", \"setup_reps\": " +
         std::to_string(kSetupReps) + "}";
    s += ", \"config\": {";
    bool first = true;
    for (const auto &[k, v] : r.config) {
        s += (first ? "" : ", ") + jsonString(k) + ": " + jsonString(v);
        first = false;
    }
    s += "}, \"samples\": {";
    first = true;
    for (const auto &[k, n] : r.samples) {
        s += (first ? "" : ", ") + jsonString(k) + ": " +
             std::to_string(n);
        first = false;
    }
    s += "}}}";
    std::printf("%s\n", s.c_str());
}

void
printResult(const Options &o, const Report &r)
{
    const auto &names = o.trace ? perLayerMetrics() : endToEndMetrics();
    std::string s = "{\"correct\": ";
    s += (r.failed == 0 && !r.selfCheckFailed && r.attempted > 0)
             ? "true"
             : "false";
    s += ", \"attempted\": " + std::to_string(r.attempted);
    s += ", \"failed\": " + std::to_string(r.failed);
    s += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, unit] : names) {
        auto it = r.metrics.find(name);
        // A per-layer metric a workload does not exercise reads 0;
        // every end-to-end metric must have been measured.
        if (it == r.metrics.end() && !o.trace)
            throw std::runtime_error("end-to-end metric " + name +
                                     " was not measured");
        if (it != r.metrics.end() && it->second.unit != unit)
            throw std::runtime_error("metric " + name + " measured in " +
                                     it->second.unit + ", declared " +
                                     unit);
        double v = it == r.metrics.end() ? 0.0 : it->second.value;
        s += (first ? "" : ", ") + jsonString(name) +
             ": {\"value\": " + jsonNumber(v) +
             ", \"unit\": " + jsonString(unit) + "}";
        first = false;
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
}

/**
 * Scale the wall-clock end-to-end metrics to the reference host speed
 * (see HostProbe). The measured values stay in the metadata.
 */
void
normalizeToProbe(Report &r)
{
    const double f = r.probe.speedFactor();
    for (const char *name :
         {"launch_ms.p50", "launch_ms.p90", "exec_mips", "setup_s"}) {
        Report::Metric &m = r.metrics.at(name);
        r.config[std::string("measured.") + name] = jsonNumber(m.value);
        // A rate rises as durations fall.
        m.value = std::strcmp(name, "exec_mips") == 0 ? m.value / f
                                                       : m.value * f;
    }
    r.config["probe.speed_factor"] = jsonNumber(f);
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::string commit = "unknown";
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage();
        std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace") {
            o.trace = v == "1";
            haveTrace = v == "0" || v == "1";
        } else if (a == "--commit")
            commit = v;
        else
            usage();
    }
    if (o.workload.empty() || !haveTrace || !(o.seconds > 0))
        usage();

    Report r;
    try {
        if (o.workload == "launch_cold")
            runLaunch(o, false, r);
        else if (o.workload == "launch_warm")
            runLaunch(o, true, r);
        else if (o.workload == "steady_exec")
            runSteady(o, r);
        else if (o.workload == "live_update")
            runLiveUpdate(o, r);
        else
            usage();
        r.probe.describe(r.config);
        if (!o.trace)
            normalizeToProbe(r);
        r.set("error_rate",
              r.attempted ? double(r.failed) / double(r.attempted) : 0,
              "fraction", r.attempted);
        std::fflush(stderr);
        printMeta(o, commit, r);
        printResult(o, r);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
