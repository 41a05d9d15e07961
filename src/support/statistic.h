/**
 * @file
 * Named statistic counters and stage timers for the translation
 * pipeline. Every counter is a process-global, thread-safe named
 * value (analysis cache hits, instructions selected, spills, bytes
 * emitted, ...) surfaced by `-stats` in the tools and recorded by
 * the bench harness; stage timers accumulate wall-clock nanoseconds
 * per pipeline stage for `-time-passes`-style reports.
 *
 * Counters are cheap enough to leave always-on: one relaxed atomic
 * add per event, from whichever thread translates or executes.
 */

#ifndef LLVA_SUPPORT_STATISTIC_H
#define LLVA_SUPPORT_STATISTIC_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "support/timer.h"

namespace llva {

/** A named, thread-safe event counter registered globally. */
class Statistic
{
  public:
    Statistic(const char *name, const char *desc);

    Statistic &
    operator+=(uint64_t n)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
        return *this;
    }

    Statistic &operator++() { return *this += 1; }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

    const char *name() const { return name_; }
    const char *desc() const { return desc_; }

  private:
    const char *name_;
    const char *desc_;
    std::atomic<uint64_t> value_{0};
};

/** A named, thread-safe wall-clock accumulator (one per stage). */
class StageTimer
{
  public:
    StageTimer(const char *name, const char *desc);

    void
    addNanos(uint64_t ns)
    {
        nanos_.fetch_add(ns, std::memory_order_relaxed);
        invocations_.fetch_add(1, std::memory_order_relaxed);
    }

    double
    seconds() const
    {
        return static_cast<double>(
                   nanos_.load(std::memory_order_relaxed)) *
               1e-9;
    }

    uint64_t
    invocations() const
    {
        return invocations_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        nanos_.store(0, std::memory_order_relaxed);
        invocations_.store(0, std::memory_order_relaxed);
    }

    const char *name() const { return name_; }
    const char *desc() const { return desc_; }

  private:
    const char *name_;
    const char *desc_;
    std::atomic<uint64_t> nanos_{0};
    std::atomic<uint64_t> invocations_{0};
};

/** RAII: adds elapsed wall time to a StageTimer on destruction. */
class ScopedStageTimer
{
  public:
    explicit ScopedStageTimer(StageTimer &t) : timer_(t) {}
    ~ScopedStageTimer()
    {
        timer_.addNanos(
            static_cast<uint64_t>(clock_.seconds() * 1e9));
    }

    ScopedStageTimer(const ScopedStageTimer &) = delete;
    ScopedStageTimer &operator=(const ScopedStageTimer &) = delete;

  private:
    StageTimer &timer_;
    Timer clock_;
};

namespace stats {

/** All registered counters, sorted by name. */
std::vector<const Statistic *> allCounters();

/** All registered stage timers, sorted by name. */
std::vector<const StageTimer *> allTimers();

/** Current value of a counter by name (0 if unregistered). */
uint64_t value(const std::string &name);

/** Zero every counter and timer (tests, bench reruns). */
void reset();

/** The `-stats` report: nonzero counters and timers, aligned. */
std::string report();

/** The timers' part of report() (verification and code generation
 *  stages), empty when none ran; `-time-passes` prints it too. */
std::string timingReport();

} // namespace stats

} // namespace llva

#endif // LLVA_SUPPORT_STATISTIC_H
