/**
 * @file
 * LLEE: the LLVA Execution Environment (paper Section 4.1, Fig. 3).
 *
 * Strategy: "offline translation when possible, online translation
 * whenever necessary." When asked to execute a virtual executable,
 * LLEE consults the (optional) OS-provided storage API for cached
 * native translations keyed by a hash of the virtual object code;
 * hits are loaded and relocated, misses are JIT-translated and
 * written back. An OS can also ask LLEE to translate a program
 * during idle time without running it (offlineTranslate), and
 * profile information collected at runtime is persisted the same
 * way for idle-time profile-guided optimization.
 */

#ifndef LLVA_LLEE_LLEE_H
#define LLVA_LLEE_LLEE_H

#include <memory>
#include <string>

#include "llee/storage.h"
#include "vm/interpreter.h"
#include "vm/machine_sim.h"

namespace llva {

/** Outcome of one LLEE program execution, with cache telemetry. */
struct LLEEResult
{
    ExecResult exec;
    std::string output;
    size_t cacheHits = 0;
    size_t cacheMisses = 0;
    /** Entries found but rejected (corrupt/incompatible/stale) and
     *  evicted; each also counts as a miss. */
    size_t cacheInvalid = 0;
    size_t functionsTranslatedOnline = 0;
    double onlineTranslateSeconds = 0;
    uint64_t machineInstructionsExecuted = 0;
    /** Translation tiers abandoned after contained faults (one per
     *  demotion step on the -O2 → -O1 → -O0 → interpreter ladder). */
    size_t tierDowngrades = 0;
    /** Functions executed by the interpreter tier of last resort. */
    size_t functionsInterpreted = 0;
    // --- Adaptive reoptimization (opts.adaptive) --------------------------
    /** Functions promoted to the trace tier during this run. */
    size_t promotions = 0;
    /** Trace-tier promotions that failed (previous tier kept). */
    size_t promotionFailures = 0;
    /** Block executions recorded into the edge profile (this run's
     *  contribution plus any profile loaded from storage). */
    uint64_t profileSamples = 0;
    /** Coverage of the last promotion's trace set (0..1). */
    double traceCoverage = 0;
    /** Cached translations loaded already at the trace tier — a warm
     *  restart after a profiled run starts here, skipping both
     *  re-profiling and re-promotion. */
    size_t traceTierLoaded = 0;
    /** True when a persisted profile was found, intact, and loaded
     *  (re-profiling from zero was not needed). */
    bool profileLoaded = false;
};

class LLEE
{
  public:
    /**
     * \p storage may be null: the system operates correctly without
     * it, translating online on every run (the DAISY/Crusoe
     * situation the paper contrasts against).
     */
    LLEE(Target &target, StorageAPI *storage,
         CodeGenOptions opts = {});

    /** Sampled profiling: record every Nth block event with weight
     *  N (1 = exact counting). See MachineSimulator. */
    void setProfileSampleInterval(uint64_t n)
    {
        sampleInterval_ = n ? n : 1;
    }

    /** Test seams into the translation pipeline (fault injection);
     *  forwarded to every CodeManager this environment creates. */
    void setHooks(TranslationHooks hooks) { hooks_ = std::move(hooks); }

    /**
     * Load a virtual executable (bytecode), then run \p entry.
     * Cached translations are used when valid; new translations are
     * written back if storage is available.
     */
    LLEEResult execute(const std::vector<uint8_t> &bytecode,
                       const std::string &entry = "main",
                       const std::vector<RtValue> &args = {});

    /**
     * "During idle times, the OS can notify LLEE to perform offline
     * translation of an LLVA program" — translate and cache every
     * function without executing anything.
     */
    size_t offlineTranslate(const std::vector<uint8_t> &bytecode);

    /** Persist an edge profile for idle-time PGO (binary format of
     *  trace/profile.h, integrity-checked on load). */
    bool writeProfile(const std::vector<uint8_t> &bytecode,
                      const EdgeProfile &profile, const Module &m);

    /**
     * Load the persisted edge profile for \p bytecode into
     * \p profile. False when storage is absent, the entry is
     * missing, or its bytes are damaged (damage also evicts the
     * entry) — the caller simply profiles from scratch.
     */
    bool readProfile(const std::vector<uint8_t> &bytecode,
                     EdgeProfile &profile);

    /** The function \p name that a run of \p m starts in: it must be
     *  defined in \p m, else the run is a FatalError. */
    static const Function *entryFunction(const Module &m,
                                         const std::string &name);

    /** Cache key prefix for a program (content hash). */
    static std::string programKey(const std::vector<uint8_t> &bytecode);

    /**
     * Storage name of one function's cached translation:
     * "<program>.<function>.<target>.<allocator>.O<level>". Every
     * lookup and write-back uses this single helper, so the key
     * scheme cannot silently drift between the read, write-back, and
     * offline paths.
     */
    static std::string translationKey(const std::string &programKey,
                                      const Function &f,
                                      const Target &target,
                                      const CodeGenOptions &opts);

  private:
    static constexpr const char *kCacheName = "llee-native-cache";

    /** translationKey against this environment's target/options. */
    std::string key(const std::string &programKey,
                    const Function &f) const
    {
        return translationKey(programKey, f, target_, opts_);
    }

    /** Seal \p f's entry in \p cm — its body at its achieved tier,
     *  or an interpreter pin — and write it to storage as \p name.
     *  The one write path of execute() and offlineTranslate(). */
    void writeEntry(CodeManager &cm, const Function *f,
                    const std::string &name, uint64_t moduleHash,
                    const EdgeProfile &profile);

    Target &target_;
    StorageAPI *storage_;
    CodeGenOptions opts_;
    TranslationHooks hooks_;
    uint64_t sampleInterval_ = 1;
};

} // namespace llva

#endif // LLVA_LLEE_LLEE_H
