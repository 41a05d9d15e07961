#include "support/statistic.h"

#include <algorithm>
#include <cstdio>
#include <mutex>

namespace llva {

namespace {

/**
 * Registration lists live behind accessors so that statics defined
 * in any translation unit can register during their (lazy or static)
 * construction regardless of initialization order. The mutex guards
 * registration from function-local statics constructed on worker
 * threads.
 */
struct Registry
{
    std::mutex mu;
    std::vector<Statistic *> counters;
    std::vector<StageTimer *> timers;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

} // namespace

Statistic::Statistic(const char *name, const char *desc)
    : name_(name), desc_(desc)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.counters.push_back(this);
}

StageTimer::StageTimer(const char *name, const char *desc)
    : name_(name), desc_(desc)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.timers.push_back(this);
}

namespace stats {

std::vector<const Statistic *>
allCounters()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    std::vector<const Statistic *> out(r.counters.begin(),
                                       r.counters.end());
    std::sort(out.begin(), out.end(),
              [](const Statistic *a, const Statistic *b) {
                  return std::string(a->name()) < b->name();
              });
    return out;
}

std::vector<const StageTimer *>
allTimers()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    std::vector<const StageTimer *> out(r.timers.begin(),
                                        r.timers.end());
    std::sort(out.begin(), out.end(),
              [](const StageTimer *a, const StageTimer *b) {
                  return std::string(a->name()) < b->name();
              });
    return out;
}

uint64_t
value(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (const Statistic *s : r.counters)
        if (name == s->name())
            return s->value();
    return 0;
}

void
reset()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (Statistic *s : r.counters)
        s->reset();
    for (StageTimer *t : r.timers)
        t->reset();
}

std::string
report()
{
    std::string out = "=== Statistics ===\n";
    for (const Statistic *s : allCounters()) {
        if (!s->value())
            continue;
        char line[256];
        std::snprintf(line, sizeof(line), "%10llu  %-36s %s\n",
                      (unsigned long long)s->value(), s->name(),
                      s->desc());
        out += line;
    }
    return out + timingReport();
}

std::string
timingReport()
{
    std::string out;
    for (const StageTimer *t : allTimers()) {
        if (!t->invocations())
            continue;
        if (out.empty())
            out = "=== Stage timings ===\n";
        char line[256];
        std::snprintf(line, sizeof(line),
                      "%10.3f ms  %-32s %llu calls  (%s)\n",
                      t->seconds() * 1000.0, t->name(),
                      (unsigned long long)t->invocations(), t->desc());
        out += line;
    }
    return out;
}

} // namespace stats

} // namespace llva
