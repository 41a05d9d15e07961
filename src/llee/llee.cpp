#include "llee/llee.h"

#include "bytecode/bytecode.h"
#include "llee/envelope.h"
#include "llee/mcode_io.h"
#include "support/hashing.h"
#include "support/statistic.h"
#include "support/timer.h"
#include "trace/profile.h"
#include "verifier/verifier.h"

namespace llva {

namespace {

Statistic NumCacheHits("llee.cache_hits",
                       "Cached translations loaded from storage");
Statistic NumCacheMisses("llee.cache_misses",
                         "Functions with no valid cached translation");
Statistic NumCacheCorrupt(
    "llee.cache_corrupt",
    "Cached translations rejected: damaged bytes (checksum/decode)");
Statistic NumCacheIncompatible(
    "llee.cache_incompatible",
    "Cached translations rejected: other translator/target/options");
Statistic NumCacheStale(
    "llee.cache_stale",
    "Cached translations rejected: derived from different bytecode");
Statistic NumCacheEvicted(
    "llee.cache_evicted",
    "Invalid cache entries deleted from storage");
Statistic NumStorageFailures(
    "llee.storage_failures",
    "Storage API operations that failed (tolerated, non-fatal)");
Statistic NumOfflineTranslations(
    "llee.offline_translations",
    "Functions translated during idle-time offline translation");
Statistic NumTraceTierLoaded(
    "llee.trace_tier_loaded",
    "Cached translations loaded already at the trace tier (warm "
    "restart skipped re-profiling and re-promotion)");
Statistic NumProfileLoads(
    "llee.profile_loads",
    "Persisted edge profiles loaded intact from storage");
Statistic NumProfileRejected(
    "llee.profile_rejected",
    "Persisted edge profiles rejected as damaged and evicted");

/** The compatibility key this environment stamps on / expects from
 *  every cache entry (see envelope.h). */
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

} // namespace

LLEE::LLEE(Target &target, StorageAPI *storage, CodeGenOptions opts)
    : target_(target), storage_(storage), opts_(opts)
{
    // Storage is strictly optional (paper Section 4.1); a cache that
    // cannot even be created degrades every lookup to a miss and
    // every write-back to a tolerated failure, never an error.
    if (storage_ && !storage_->createCache(kCacheName))
        ++NumStorageFailures;
}

const Function *
LLEE::entryFunction(const Module &m, const std::string &name)
{
    const Function *f = m.getFunction(name);
    if (!f || f->isDeclaration())
        fatal("LLEE: no entry function %%%s", name.c_str());
    return f;
}

std::string
LLEE::programKey(const std::vector<uint8_t> &bytecode)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  (unsigned long long)fnv1a(bytecode));
    return buf;
}

std::string
LLEE::translationKey(const std::string &programKey,
                     const Function &f, const Target &target,
                     const CodeGenOptions &opts)
{
    return programKey + "." + f.name() + "." + target.name() + "." +
           (opts.allocator == CodeGenOptions::Allocator::Local
                ? "local"
                : "lscan") +
           ".O" + std::to_string(opts.optLevel);
}

LLEEResult
LLEE::execute(const std::vector<uint8_t> &bytecode,
              const std::string &entry,
              const std::vector<RtValue> &args)
{
    LLEEResult result;

    // The module hash keys every cached artifact, which makes the
    // paper's timestamp check a content-validity check: a stale
    // translation simply never matches the new key.
    uint64_t moduleHash = fnv1a(bytecode);
    std::string progKey = programKey(bytecode);
    // Bytecode is untrusted: a module the verifier rejects is refused
    // before anything is translated, run or cached.
    std::unique_ptr<Module> m = readBytecode(bytecode).orDie();
    verifyOrDie(*m);
    const Function *entry_fn = entryFunction(*m, entry);

    CodeManager cm(target_, opts_);
    cm.setHooks(hooks_);

    // Adaptive reoptimization: resume from the persisted profile if
    // one survives intact in storage (a warm restart then starts
    // already knowing what is hot), and arm the promotion watermark.
    EdgeProfile profile;
    if (opts_.adaptive) {
        result.profileLoaded = readProfile(bytecode, profile);
        cm.setAdaptive(&profile, opts_.promoteWatermark);
    }

    // Look for cached translations of every defined function. An
    // entry is installed only after it passes the full trust
    // boundary: integrity envelope (checksum + compatibility key),
    // structural decode, and validation against the current module.
    // Anything less is evicted and counted, and execution proceeds
    // as a plain cache miss, translated when it is first called.
    std::map<const Function *, uint8_t> loadedTier;
    for (const auto &f : m->functions()) {
        if (f->isDeclaration())
            continue;
        bool installed = false;
        if (storage_) {
            std::string name = key(progKey, *f);
            std::vector<uint8_t> cached;
            if (storage_->read(kCacheName, name, cached)) {
                TranslationKey want = compatKey(target_, opts_,
                                                f->name(), moduleHash);
                std::vector<uint8_t> payload;
                uint8_t tier = 0;
                EnvelopeStatus st =
                    openTranslation(cached, want, payload, &tier);
                // A pin is cached knowledge that every native tier
                // failed for this function: the ladder is not
                // re-walked (and re-faulted) each run. An entry
                // sealed correctly but breaking the entry rule is
                // damage the checksum missed, or a buggy producer.
                if (st == EnvelopeStatus::Ok &&
                    !installCacheEntry(cm, *m, f.get(), tier, payload))
                    st = EnvelopeStatus::Corrupt;
                installed = st == EnvelopeStatus::Ok;
                if (installed) {
                    loadedTier[f.get()] = tier;
                    if (tier == kTierTrace) {
                        ++result.traceTierLoaded;
                        ++NumTraceTierLoaded;
                    }
                    ++result.cacheHits;
                    ++NumCacheHits;
                } else {
                    switch (st) {
                      case EnvelopeStatus::Corrupt:
                        ++NumCacheCorrupt;
                        break;
                      case EnvelopeStatus::Incompatible:
                        ++NumCacheIncompatible;
                        break;
                      case EnvelopeStatus::Stale:
                        ++NumCacheStale;
                        break;
                      case EnvelopeStatus::Ok:
                        break;
                    }
                    ++result.cacheInvalid;
                    if (storage_->remove(kCacheName, name))
                        ++NumCacheEvicted;
                    else
                        ++NumStorageFailures;
                }
            }
        }
        if (!installed) {
            ++result.cacheMisses;
            ++NumCacheMisses;
        }
    }

    ExecutionContext ctx(*m);
    MachineSimulator sim(ctx, cm);
    sim.setProfileSampleInterval(sampleInterval_);
    if (opts_.adaptive)
        sim.setProfile(&profile);

    result.exec = sim.run(entry_fn, args);
    result.output = ctx.output();
    result.machineInstructionsExecuted = sim.instructionsExecuted();
    result.functionsTranslatedOnline = cm.functionsTranslated();
    result.onlineTranslateSeconds = cm.totalTranslateSeconds();
    result.tierDowngrades = cm.tierDowngrades();
    for (const auto &f : m->functions())
        if (!f->isDeclaration() && cm.isInterpreted(f.get()))
            ++result.functionsInterpreted;
    if (opts_.adaptive) {
        result.promotions = cm.promotions();
        result.promotionFailures = cm.promotionFailures();
        result.profileSamples = profile.samples;
        result.traceCoverage = cm.lastTraceCoverage();
    }

    // Write back any translations produced online, in module order.
    // Failures are tolerated: the next run simply translates again.
    // Interpreter-pinned functions get an empty marker entry so the
    // next run does not re-walk (and re-fault) the whole tier
    // ladder for them. A function promoted to the trace tier this
    // run *overwrites* its existing entry — that is the whole point
    // of promotion: the next (warm) start loads the trace-tier body
    // directly and skips re-profiling.
    if (storage_) {
        for (const auto &f : m->functions()) {
            if (f->isDeclaration())
                continue;
            const bool interp = cm.isInterpreted(f.get());
            if (!interp && !cm.has(f.get()))
                continue;
            const uint8_t achieved = cm.tierOf(f.get());
            auto lt = loadedTier.find(f.get());
            const bool promoted =
                achieved == kTierTrace &&
                (lt == loadedTier.end() || lt->second != kTierTrace);
            std::string name = key(progKey, *f);
            if (!promoted &&
                storage_->timestamp(kCacheName, name) != 0)
                continue; // valid entry already present
            writeEntry(cm, f.get(), name, moduleHash, profile);
        }
        // Persist the accumulated profile alongside the code so the
        // next run resumes with this run's knowledge of what is hot.
        if (opts_.adaptive && !profile.empty())
            writeProfile(bytecode, profile, *m);
    }
    return result;
}

size_t
LLEE::offlineTranslate(const std::vector<uint8_t> &bytecode)
{
    if (!storage_)
        return 0;
    uint64_t moduleHash = fnv1a(bytecode);
    std::string progKey = programKey(bytecode);
    std::unique_ptr<Module> m = readBytecode(bytecode).orDie();
    verifyOrDie(*m);

    // Incremental retranslation (Section 4.2): entries whose storage
    // timestamp is already set are current — the content hash in the
    // key guarantees it — and are skipped. Entries that turn out to
    // be damaged anyway are caught at load time by execute()'s
    // envelope check, evicted, and retranslated there.
    std::vector<const Function *> pending;
    std::vector<std::string> names;
    for (const auto &f : m->functions()) {
        if (f->isDeclaration())
            continue;
        std::string name = key(progKey, *f);
        if (storage_->timestamp(kCacheName, name) != 0)
            continue; // already translated and current
        pending.push_back(f.get());
        names.push_back(std::move(name));
    }
    if (pending.empty())
        return 0;

    CodeManager cm(target_, opts_);
    cm.setHooks(hooks_);
    for (size_t i = 0; i < pending.size(); ++i) {
        cm.get(pending[i]);
        writeEntry(cm, pending[i], names[i], moduleHash, EdgeProfile{});
    }
    NumOfflineTranslations += pending.size();
    return pending.size();
}

void
LLEE::writeEntry(CodeManager &cm, const Function *f,
                 const std::string &name, uint64_t moduleHash,
                 const EdgeProfile &profile)
{
    // A trace-tier body records the profile that shaped it. get()
    // is null for an interpreter pin, which travels as an empty
    // payload at kTierInterpreter.
    TranslationKey k = compatKey(target_, opts_, f->name(), moduleHash);
    k.tier = cm.tierOf(f);
    if (k.tier == kTierTrace)
        k.profileHash = profileHash(profile);
    if (!storage_->write(kCacheName, name,
                         sealTranslation(k, cacheEntryPayload(cm.get(f)))))
        ++NumStorageFailures;
}

bool
LLEE::writeProfile(const std::vector<uint8_t> &bytecode,
                   const EdgeProfile &profile, const Module &m)
{
    if (!storage_)
        return false;
    (void)m; // keys are stable block IDs; no module needed
    return storage_->write(kCacheName,
                           programKey(bytecode) + ".profile",
                           writeEdgeProfile(profile));
}

bool
LLEE::readProfile(const std::vector<uint8_t> &bytecode,
                  EdgeProfile &profile)
{
    if (!storage_)
        return false;
    std::string name = programKey(bytecode) + ".profile";
    std::vector<uint8_t> bytes;
    if (!storage_->read(kCacheName, name, bytes))
        return false;
    // Persisted profiles cross the same trust boundary as cached
    // translations: damage costs the profile (re-profile from
    // scratch), never the run.
    Expected<EdgeProfile> parsed = readEdgeProfile(bytes);
    if (!parsed.ok()) {
        ++NumProfileRejected;
        if (storage_->remove(kCacheName, name))
            ++NumCacheEvicted;
        else
            ++NumStorageFailures;
        return false;
    }
    profile = parsed.take();
    ++NumProfileLoads;
    return true;
}

} // namespace llva
