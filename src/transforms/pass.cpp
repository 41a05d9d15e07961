#include "transforms/pass.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "support/statistic.h"
#include "support/timer.h"
#include "verifier/verifier.h"

namespace llva {

namespace {

Statistic NumPassRuns("pass.applications",
                      "Individual pass applications (pass x unit)");
Statistic NumPassChanges("pass.changes",
                         "Pass applications that modified the IR");
Statistic NumFailed("passes.contained_failures",
                    "Pass applications that failed (fault, budget or "
                    "broken IR), ending their run");
Statistic NumBudgetExceeded(
    "passes.budget_exceeded",
    "Pass applications that failed by blowing their budget");

/** Count one failed pass application and end the run with a
 *  FatalError carrying the formatted message. */
[[noreturn]] __attribute__((format(printf, 2, 3))) void
fail(bool budget, const char *fmt, ...)
{
    ++NumFailed;
    if (budget)
        ++NumBudgetExceeded;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformatString(fmt, ap);
    va_end(ap);
    throw FatalError(msg);
}

/** CI hook: LLVA_VERIFY_EACH=1 turns on verify-each everywhere. */
bool
envVerifyEach()
{
    static const bool on = [] {
        const char *e = std::getenv("LLVA_VERIFY_EACH");
        return e && *e && std::string(e) != "0";
    }();
    return on;
}

/** Process-wide -opt-bisect-limit state. */
struct BisectState
{
    std::mutex mu;
    int64_t limit = -1;
    int64_t counter = 0;
    std::vector<std::string> decisions;
};

BisectState &
bisectState()
{
    static BisectState s;
    return s;
}

} // namespace

// --- OptBisect ---------------------------------------------------------

void
OptBisect::setLimit(int64_t limit)
{
    BisectState &s = bisectState();
    std::lock_guard<std::mutex> lock(s.mu);
    s.limit = limit < 0 ? -1 : limit;
    s.counter = 0;
    s.decisions.clear();
}

int64_t
OptBisect::limit()
{
    BisectState &s = bisectState();
    std::lock_guard<std::mutex> lock(s.mu);
    return s.limit;
}

bool
OptBisect::enabled()
{
    return limit() >= 0;
}

int64_t
OptBisect::count()
{
    BisectState &s = bisectState();
    std::lock_guard<std::mutex> lock(s.mu);
    return s.counter;
}

bool
OptBisect::shouldRun(const char *pass, const std::string &unit)
{
    BisectState &s = bisectState();
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.limit < 0)
        return true;
    const int64_t index = ++s.counter;
    const bool run = index <= s.limit;
    std::string desc =
        std::string(pass) + " on " + (unit.empty() ? "<module>" : unit);
    s.decisions.push_back(desc);
    std::fprintf(stderr, "BISECT: %srunning pass (%lld) %s\n",
                 run ? "" : "NOT ", static_cast<long long>(index),
                 desc.c_str());
    return run;
}

std::string
OptBisect::description(int64_t index)
{
    BisectState &s = bisectState();
    std::lock_guard<std::mutex> lock(s.mu);
    if (index < 1 || static_cast<size_t>(index) > s.decisions.size())
        return "";
    return s.decisions[static_cast<size_t>(index) - 1];
}

// --- PassManager -------------------------------------------------------

bool
PassManager::run(Module &m)
{
    AnalysisManager am;
    return run(m, am);
}

bool
PassManager::run(Module &m, AnalysisManager &am)
{
    beginRun();
    size_t i = 0;
    while (i < entries_.size()) {
        if (entries_[i].mp) {
            apply(i++, m, nullptr, am);
            continue;
        }

        // A stage: the maximal run of consecutive function passes.
        // Drive it function-major so analyses computed for a
        // function stay cached across the whole stage.
        size_t stageEnd = i;
        while (stageEnd < entries_.size() && entries_[stageEnd].fp)
            ++stageEnd;

        for (auto &f : m.functions()) {
            if (f->isDeclaration())
                continue;
            for (size_t k = i; k < stageEnd; ++k)
                apply(k, m, f.get(), am);
        }
        i = stageEnd;
    }
    // Reached only when every application completed: a failure threw.
    if (!skipped_ && standardLevel_ > m.optimizationLevel())
        m.setOptimizationLevel(standardLevel_);
    return endRun();
}

bool
PassManager::runOnFunction(Function &f, AnalysisManager &am)
{
    beginRun();
    for (size_t k = 0; k < entries_.size(); ++k) {
        if (entries_[k].mp)
            panic("runOnFunction: pipeline contains module pass '%s'",
                  entries_[k].name());
        apply(k, *f.parent(), &f, am);
    }
    return endRun();
}

void
PassManager::beginRun()
{
    skipped_ = false;
    changed_.clear();
    timings_.assign(entries_.size(), PassTiming{});
    for (size_t k = 0; k < entries_.size(); ++k)
        timings_[k].name = entries_[k].name();
}

bool
PassManager::endRun()
{
    for (const PassTiming &t : timings_)
        if (t.changed)
            changed_.push_back(t.name);
    return !changed_.empty();
}

void
PassManager::apply(size_t k, Module &m, Function *f, AnalysisManager &am)
{
    const Entry &e = entries_[k];
    PassTiming &timing = timings_[k];
    Timer t;
    ++NumPassRuns;
    ++timing.invocations;
    const std::string &unit = f ? f->name() : m.name();
    if (OptBisect::enabled() && !OptBisect::shouldRun(e.name(), unit)) {
        skipped_ = true;
        timing.seconds += t.seconds();
        return;
    }
    const char *kind = f ? "function" : "module";
    auto size = [&] {
        return f ? f->instructionCount() : m.instructionCount();
    };

    const size_t before = size();
    PassResult r;
    try {
        r = f ? e.fp->run(*f, am) : e.mp->run(m, am);
    } catch (const std::exception &err) {
        fail(false, "pass '%s' failed on %s '%s': %s", e.name(), kind,
             unit.c_str(), err.what());
    }

    const double secs = t.seconds();
    if (secs > budget_.maxSeconds)
        fail(true,
             "pass '%s' on %s '%s' exceeded its budget: %.3fs > %.3fs "
             "wall clock",
             e.name(), kind, unit.c_str(), secs, budget_.maxSeconds);
    const size_t after = size();
    const size_t limit = std::max(
        budget_.growthFloor,
        static_cast<size_t>(static_cast<double>(before) *
                            budget_.maxGrowth));
    if (after > limit)
        fail(true,
             "pass '%s' on %s '%s' exceeded its budget: grew %zu -> %zu "
             "instructions (limit %zu)",
             e.name(), kind, unit.c_str(), before, after, limit);

    // Invalidation stays outside the catch: the preservation audit's
    // own FatalError reports a pass-declaration bug as itself.
    if (r.changed) {
        ++NumPassChanges;
        timing.changed = true;
        // A module pass can touch any function: drop everything.
        if (f)
            am.invalidate(*f, r.preserved);
        else
            am.clear();
    }

    if (verifyEach_ || envVerifyEach()) {
        VerifyResult vr = f ? verifyFunction(*f) : verifyModule(m);
        if (!vr.ok())
            fail(false,
                 "verification failed after pass '%s' on %s '%s':\n%s",
                 e.name(), kind, unit.c_str(), vr.str().c_str());
    }
    timing.seconds += t.seconds();
}

std::string
PassManager::timingReport() const
{
    std::vector<const PassTiming *> rows;
    double total = 0;
    for (const PassTiming &t : timings_) {
        rows.push_back(&t);
        total += t.seconds;
    }
    std::sort(rows.begin(), rows.end(),
              [](const PassTiming *a, const PassTiming *b) {
                  return a->seconds > b->seconds;
              });

    std::string out = "=== Pass timings ===\n";
    for (const PassTiming *t : rows) {
        char line[256];
        std::snprintf(
            line, sizeof(line),
            "%10.3f ms  %5.1f%%  %-14s %zu applications%s\n",
            t->seconds * 1000.0,
            total > 0 ? 100.0 * t->seconds / total : 0.0,
            t->name.c_str(), t->invocations,
            t->changed ? "  (changed)" : "");
        out += line;
    }
    char line[64];
    std::snprintf(line, sizeof(line), "%10.3f ms  total\n",
                  total * 1000.0);
    out += line;
    return out;
}

namespace {

/** The one pass list: the function pipeline at \p level, with the
 *  inliner ahead of -O2's second scalar round when \p inliner. */
void
addPipeline(PassManager &pm, unsigned level, bool inliner)
{
    if (level == 0)
        return;
    pm.add(createMem2RegPass());
    pm.add(createInstCombinePass());
    pm.add(createSCCPPass());
    pm.add(createSimplifyCFGPass());
    pm.add(createGVNPass());
    pm.add(createADCEPass());
    pm.add(createSimplifyCFGPass());
    if (level < 2)
        return;
    if (inliner)
        pm.add(createInlinerPass());
    pm.add(createInstCombinePass());
    pm.add(createSCCPPass());
    pm.add(createGVNPass());
    pm.add(createADCEPass());
    pm.add(createSimplifyCFGPass());
}

} // namespace

void
addFunctionPasses(PassManager &pm, unsigned level)
{
    addPipeline(pm, level, false);
}

void
addStandardPasses(PassManager &pm, unsigned level)
{
    addPipeline(pm, level, true);
    pm.setStandardLevel(std::min(level, kMaxOptimizationLevel));
}

} // namespace llva
