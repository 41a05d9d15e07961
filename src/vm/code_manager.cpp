#include "vm/code_manager.h"

#include <algorithm>
#include <cstdio>

#include "analysis/analysis_manager.h"
#include "ir/clone.h"
#include "support/statistic.h"
#include "support/timer.h"

namespace llva {

namespace {

Statistic NumTierDowngrades(
    "llee.tier_downgrades",
    "Translation tiers abandoned after a contained fault");
Statistic NumInterpFallbacks(
    "llee.interp_fallbacks",
    "Functions pinned to the interpreter (all native tiers failed)");
Statistic NumPromotions(
    "llee.promotions",
    "Functions promoted to the trace tier at runtime");
Statistic NumPromotionFailures(
    "llee.promotion_failures",
    "Trace-tier promotions abandoned after a contained fault");
Statistic NumPromotionChecks(
    "vm.promotion_checks",
    "Promotion queries (maybePromote calls) from the block loop");
Statistic TraceCoveragePct(
    "trace.coverage",
    "Profiled block executions inside formed traces, in percent "
    "points accumulated per promotion");
Statistic NumTraceCacheHits(
    "trace.cache_hits",
    "Trace formations or cached-translation loads that reused an "
    "already-known hot trace head");
Statistic NumRetiredBodies(
    "vm.retired_bodies",
    "Machine-function bodies (with their chains) retired by SMC "
    "invalidation, reinstallation, or promotion");
Statistic NumRetiredReclaimed(
    "vm.retired_reclaimed",
    "Retired bodies freed once no epoch pin could still reference "
    "them");
Statistic NumLiveReplacements(
    "vm.live_replacements",
    "Function bodies swapped by replaceFunctionLive() while the "
    "program kept running");

} // namespace

CodeManager::CodeManager(Target &target, CodeGenOptions opts)
    : target_(target), opts_(opts)
{
    // The tier numbers above the ladder (kTierTrace,
    // kTierInterpreter) are not levels a caller may request.
    if (opts_.optLevel > kMaxOptimizationLevel)
        fatal("CodeManager: optimization level %u is not 0, 1 or 2",
              static_cast<unsigned>(opts_.optLevel));
}

const ChainedFunction *
CodeManager::chained(const Function *f)
{
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        if (auto entry = entryLocked(f))
            return *entry;
    }

    std::unique_lock<std::shared_mutex> lock(mu_);
    // Another thread may have translated (or pinned) while we
    // upgraded the lock.
    if (auto entry = entryLocked(f))
        return *entry;

    // A rung that optimizes the body does so in place and restores
    // it; the cache API stays const because callers never observe a
    // change.
    return translateWithLadder(*const_cast<Function *>(f));
}

std::optional<const ChainedFunction *>
CodeManager::entryLocked(const Function *f) const
{
    auto it = cache_.find(f);
    if (it != cache_.end())
        return it->second.get();
    if (pinnedLocked(f))
        return nullptr;
    return std::nullopt;
}

uint8_t
CodeManager::tierLocked(const Function *f) const
{
    auto it = cache_.find(f);
    if (it != cache_.end())
        return it->second->tier();
    return pinnedLocked(f) ? kTierInterpreter : opts_.optLevel;
}

const ChainedFunction *
CodeManager::translateWithLadder(Function &f)
{
    for (unsigned level = opts_.optLevel;; --level) {
        Translation t = translateRung(f, level);
        if (t.mf) {
            countTranslation(t);
            installLocked(&f, std::move(t.mf),
                          static_cast<uint8_t>(level));
            break;
        }
        // This rung failed; drop one level (or fall off the end).
        ++tierDowngrades_;
        ++NumTierDowngrades;
        warn("translation of '%s' failed at -O%u; %s", f.name().c_str(),
             level,
             level > 0 ? "retrying one tier lower"
                       : "falling back to the interpreter");
        if (level == 0) {
            ++NumInterpFallbacks;
            installLocked(&f, nullptr, kTierInterpreter);
            break;
        }
    }
    return *entryLocked(&f);
}

CodeManager::Translation
CodeManager::translateRung(Function &f, unsigned tier)
{
    // Transform copy-on-write style: a rung that runs passes
    // snapshots the pristine body, optimizes and codegens in place,
    // then restores. The original bytecode stays the single source
    // of truth (lower tiers, later promotions and the interpreter
    // must see the body as loaded). The snapshot is the rung's one
    // restore point; any failure on the way (a pass fault, a blown
    // budget, broken IR, a trace or codegen fault) abandons the rung.
    // The function pipeline runs only above the level the module
    // records: its producer optimized it ahead of time (paper Section
    // 4.2). Trace layout is an input to instruction selection, not an
    // edit of the body, so a rung with no pass to run only reads the
    // body and takes no snapshot.
    Timer timer;
    Translation t;
    const bool traces = tier == kTierTrace;
    const unsigned level = traces ? opts_.optLevel : tier;
    const bool optimize = level > f.parent()->optimizationLevel();
    const bool extend = bool(hooks_.extendPipeline);
    const bool mutates = optimize || extend;
    FunctionSnapshot pristine;
    if (mutates)
        pristine = FunctionSnapshot::capture(f);
    try {
        if (mutates) {
            PassManager pm;
            pm.setVerifyEach(opts_.verifyEach);
            if (optimize)
                addFunctionPasses(pm, level);
            if (extend)
                hooks_.extendPipeline(pm, tier);
            AnalysisManager am;
            pm.runOnFunction(f, am);
        }
        BlockOrder order;
        if (traces)
            order = layOutTraces(f);
        if (hooks_.beforeCodegen)
            hooks_.beforeCodegen(f, tier);
        t.mf = translateFunction(f, target_, opts_, &t.stats, order);
    } catch (const std::exception &err) {
        warn("translating '%s' at -O%u%s: %s", f.name().c_str(), level,
             traces ? "+traces" : "", err.what());
    }
    if (mutates)
        pristine.restoreInto(f);
    t.seconds = timer.seconds();
    return t;
}

BlockOrder
CodeManager::layOutTraces(const Function &f)
{
    // Form hot traces from the runtime profile. The profile was
    // gathered over machine code produced by this same deterministic
    // pipeline, so its stable block IDs resolve by name against the
    // body this rung translates. The trace cache is scoped to this
    // promotion: it holds BasicBlock pointers into that body, which
    // an optimizing rung's restore or a later replacement destroys.
    // Only the stable head IDs outlive it (re-promotion accounting).
    // The profile is read under its own mutex: other threads may be
    // merging deltas concurrently.
    std::unique_lock<std::mutex> plock(profileMu_);
    std::vector<Trace> traces = formTraces(f, *profile_, TraceOptions{});
    TraceCache cache;
    for (Trace &t : traces) {
        BlockId head = blockId(t.head());
        if (cache.lookup(t.head()) || traceHeads_.count(head))
            ++NumTraceCacheHits;
        traceHeads_.insert(head);
        cache.insert(t);
    }
    lastCoverage_ = cache.coverage(*profile_);
    plock.unlock();
    TraceCoveragePct += static_cast<uint64_t>(lastCoverage_ * 100.0);
    if (opts_.printTraces) {
        for (const Trace &t : cache.traces()) {
            std::string line;
            for (const BasicBlock *bb : t.blocks) {
                if (!line.empty())
                    line += " -> ";
                line += bb->name();
            }
            std::fprintf(stderr, "trace: %s: %s (head count %llu)\n",
                         f.name().c_str(), line.c_str(),
                         (unsigned long long)t.headCount);
        }
        std::fprintf(stderr,
                     "trace: %s: coverage %.2f over %zu trace(s)\n",
                     f.name().c_str(), lastCoverage_, cache.size());
    }
    return traceLayoutOrder(f, cache.traces());
}

void
CodeManager::countTranslation(const Translation &t)
{
    // Aggregate translator time: the sum of per-function costs.
    seconds_ += t.seconds;
    ++translated_;
    stats_ += t.stats;
}

void
CodeManager::installLocked(const Function *f,
                           std::unique_ptr<MachineFunction> mf,
                           uint8_t tier)
{
    LLVA_ASSERT(!mf || tier != kTierInterpreter,
                "native body for '%s' installed at the interpreter tier",
                f->name().c_str());
    // The executing activation keeps its (old) body; every future
    // dispatch gets the new one, chained here once for its lifetime.
    retireLocked(f);
    if (mf) {
        pinned_.erase(f);
        cache_[f] =
            std::make_unique<ChainedFunction>(std::move(mf), target_, tier);
    } else {
        pinned_.insert(f);
    }
    reclaimLocked();
}

void
CodeManager::retireLocked(const Function *f)
{
    // Retire rather than destroy: the simulator may still be running
    // the old body (raw pointers into its chain live in its call
    // frames; SMC affects only *future* invocations, Section 3.4).
    // Its links all stay inside it, so there is nothing to unlink.
    auto it = cache_.find(f);
    if (it == cache_.end())
        return;
    retired_.push_back({std::move(it->second), ++epoch_});
    ++retiredTotal_;
    ++NumRetiredBodies;
    cache_.erase(it);
}

void
CodeManager::reclaimLocked()
{
    // A pin taken at epoch P protects exactly the objects retired
    // after it (retirement epoch > P): pointers into anything
    // retired earlier were already unreachable when the pin was
    // taken. An entry is freed once no pin predates its retirement;
    // the list is in retirement order, so those form a prefix.
    uint64_t minPin = pins_.empty() ? UINT64_MAX : *pins_.begin();
    auto freed = std::partition_point(
        retired_.begin(), retired_.end(),
        [&](const Retired &r) { return r.epoch <= minPin; });
    size_t n = size_t(freed - retired_.begin());
    retired_.erase(retired_.begin(), freed);
    reclaimed_ += n;
    NumRetiredReclaimed += n;
}

uint64_t
CodeManager::pinEpoch()
{
    std::unique_lock<std::shared_mutex> lock(mu_);
    uint64_t pin = epoch_;
    pins_.insert(pin);
    return pin;
}

void
CodeManager::unpinEpoch(uint64_t pin)
{
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = pins_.find(pin);
    LLVA_ASSERT(it != pins_.end(), "unpinning an unknown epoch");
    pins_.erase(it);
    reclaimLocked();
}

size_t
CodeManager::retiredBodies() const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    return retired_.size();
}

size_t
CodeManager::reclaimedObjects() const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    return reclaimed_;
}

void
CodeManager::invalidateLocked(const Function *f)
{
    // A fresh translation may be re-promoted later.
    retireLocked(f);
    pinned_.erase(f);
    promoteAttempted_.erase(f);
    reclaimLocked();
}

void
CodeManager::invalidate(const Function *f)
{
    std::unique_lock<std::shared_mutex> lock(mu_);
    invalidateLocked(f);
}

const MachineFunction *
CodeManager::replaceFunctionLive(const Function *f)
{
    if (!f)
        return nullptr;
    std::unique_lock<std::shared_mutex> lock(mu_);
    // Read the body only under the lock: a rung in flight that runs
    // passes empties it while restoring its snapshot, so an unlocked
    // read could mistake f for a declaration.
    if (f->isDeclaration())
        return nullptr;
    // Drop the installed entry and any interpreter pin, then walk
    // the ladder again — all under one exclusive section, so no
    // other thread ever observes the gap between the retirement and
    // the fresh installation.
    invalidateLocked(f);
    const ChainedFunction *c =
        translateWithLadder(*const_cast<Function *>(f));
    ++NumLiveReplacements;
    return c ? c->function() : nullptr;
}

void
CodeManager::translateAll(const Module &m)
{
    for (const auto &f : m.functions())
        if (!f->isDeclaration())
            get(f.get());
}

void
CodeManager::install(const Function *f,
                     std::unique_ptr<MachineFunction> mf, uint8_t tier)
{
    std::unique_lock<std::shared_mutex> lock(mu_);
    installLocked(f, std::move(mf), tier);
}

void
CodeManager::markInterpreted(const Function *f)
{
    std::unique_lock<std::shared_mutex> lock(mu_);
    installLocked(f, nullptr, kTierInterpreter);
}

void
CodeManager::setAdaptive(EdgeProfile *profile, uint64_t watermark,
                         ThreadPool *)
{
    std::unique_lock<std::shared_mutex> lock(mu_);
    std::lock_guard<std::mutex> plock(profileMu_);
    profile_ = profile;
    watermark_ = watermark;
}

void
CodeManager::mergeProfile(const EdgeProfile &delta)
{
    std::lock_guard<std::mutex> plock(profileMu_);
    if (profile_)
        profile_->merge(delta);
}

EdgeProfile
CodeManager::profileSnapshot() const
{
    std::lock_guard<std::mutex> plock(profileMu_);
    return profile_ ? *profile_ : EdgeProfile{};
}

bool
CodeManager::promotableLocked(const Function *f) const
{
    auto it = cache_.find(f);
    return profile_ && it != cache_.end() &&
           it->second->tier() != kTierTrace && !promoteAttempted_.count(f);
}

uint64_t
CodeManager::maybePromote(const Function *f, const EdgeProfile *recording)
{
    ++NumPromotionChecks;
    // Cheap precheck under the shared lock: most queries reject
    // (already attempted, wrong tier, or still cold).
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        if (!promotableLocked(f))
            return UINT64_MAX;
        std::lock_guard<std::mutex> plock(profileMu_);
        uint64_t samples =
            profile_->functionSamples(functionId(f->name()));
        // f's count grows by at most the weight recorded into the
        // attached profile, so the caller may count the distance
        // before it asks again; other recordings never move it.
        if (samples < watermark_)
            return recording == profile_ ? watermark_ - samples
                                         : UINT64_MAX;
    }

    std::unique_lock<std::shared_mutex> lock(mu_);
    // Re-validate under the exclusive lock: another thread may have
    // promoted, replaced, or invalidated while we upgraded.
    if (!promotableLocked(f))
        return UINT64_MAX;

    // One attempt per function per manager: a failed promotion must
    // not be retried on every subsequent profile event.
    promoteAttempted_.insert(f);

    Translation t =
        translateRung(*const_cast<Function *>(f), kTierTrace);

    if (!t.mf) {
        ++promotionFailures_;
        ++NumPromotionFailures;
        warn("trace-tier promotion of '%s' failed; keeping tier -O%u",
             f->name().c_str(), static_cast<unsigned>(tierLocked(f)));
        return UINT64_MAX;
    }
    countTranslation(t);
    installLocked(f, std::move(t.mf), kTierTrace);
    ++promotions_;
    ++NumPromotions;
    return UINT64_MAX;
}

size_t
CodeManager::totalMachineInstructions() const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    size_t n = 0;
    for (const auto &[f, c] : cache_)
        n += c->function()->instructionCount();
    return n;
}

size_t
CodeManager::totalEncodedBytes() const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    size_t n = 0;
    for (const auto &[f, c] : cache_) {
        n += encodeFunction(*c->function(), target_).size();
        // Functions are 16-byte aligned in a linked executable.
        n = (n + 15) / 16 * 16;
    }
    return n;
}

void
CodeManager::forEachCached(
    const std::function<void(const Function *, uint8_t,
                             const MachineFunction *)> &fn) const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const auto &[f, c] : cache_)
        fn(f, c->tier(), c->function());
    for (const Function *f : pinned_)
        fn(f, kTierInterpreter, nullptr);
}

} // namespace llva
