/**
 * @file
 * The LLVA command-line tool set, in one multiplexed binary (each
 * tool is also installed under its own name via symlink-style CMake
 * copies):
 *
 *   llva-as        assemble .llva text into virtual object code
 *   llva-dis       disassemble virtual object code back to text
 *   llva-opt       run optimization passes over virtual object code
 *   llva-run       execute a virtual executable under LLEE
 *   llva-translate translate to an I-ISA and print the machine code
 *
 * These mirror the workflow of the paper's Section 4/5 toolchain:
 * static compilers produce virtual object code, LLEE executes it
 * (with optional offline caching), and the translator's output can
 * be inspected per target.
 */

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bytecode/bytecode.h"
#include "codegen/codegen.h"
#include "llee/checkpoint.h"
#include "llee/envelope.h"
#include "llee/llee.h"
#include "support/hashing.h"
#include "parser/parser.h"
#include "support/statistic.h"
#include "trace/trace.h"
#include "transforms/pass.h"
#include "verifier/verifier.h"
#include "vm/interpreter.h"

using namespace llva;

namespace {

/** Registered target names joined with a separator, for usage text
 *  and --list-targets (the registry is the single source of truth —
 *  a new backend shows up here without touching the tools). */
std::string
targetList(const char *sep)
{
    std::string out;
    for (const std::string &n : targetNames()) {
        if (!out.empty())
            out += sep;
        out += n;
    }
    return out;
}

[[noreturn]] void
usage()
{
    std::string targets = targetList("|");
    std::fprintf(stderr, R"(usage:
  llva-as  <input.llva> -o <out.bc>         assemble text to object code
  llva-dis <input.bc>  [-o <out.llva>]      disassemble object code
  llva-opt <input.bc>  -O<0|1|2> -o <out.bc> optimize object code
                       [-time-passes] [-stats] [-opt-bisect-limit=N]
  llva-run <input.bc>  [--target %s] [--cache DIR] [--interp]
                       [--entry NAME] [-O<0|1|2>] [-stats]
                       [--adaptive] [--watermark N] [-print-traces]
                       [--profile-sample N]
                       [--checkpoint FILE] [--restore FILE]
                       [--pause-at N]
                       [-verify-each] [-opt-bisect-limit=N]
                                             execute under LLEE
  llva-run --list-targets                   print registered targets
  llva-translate <input.bc> [--target %s] [--local-alloc]
                       [--no-coalesce] [-O<0|1|2>] [-stats]
                       [-print-traces] [-verify-each]
                       [-opt-bisect-limit=N]
                                             print machine code
  llva-translate --list-targets             print registered targets
  llva-translate --verify-cache <dir> [--repair]
                                             audit a translation cache:
                                             report corrupt/incompatible
                                             entries; --repair deletes them

  -stats        print pipeline statistic counters to stderr
  -time-passes  print per-pass and per-stage (verification, code
                generation) wall-clock timing to stderr
  -verify-each  run the IR verifier after every pass and name the
                first pass that broke the module
  -opt-bisect-limit=N
                run only the first N passes (a deterministic global
                counter, printed per pass to stderr); bisect N to
                localize a miscompiling pass. -1 = no limit
  --adaptive    profile at runtime and promote hot functions to the
                -O2+traces tier (with --cache the profile and the
                promoted translations persist across runs)
  --watermark N promote a function once its profile accumulates N
                block samples (default 5000; implies nothing
                without --adaptive)
  --profile-sample N
                record every Nth profile event with weight N
                (default 1 = exact counting)
  --checkpoint FILE
                capture the whole VM — heap, registers, OS state,
                code-cache index, profile — into FILE after the run
                (or mid-run with --pause-at), sealed and restorable
                in a fresh process
  --restore FILE
                rebuild the VM from FILE and resume (or run the
                entry); under a different --target the checkpointed
                code heals by retranslation and a carried profile
                re-promotes immediately
  --pause-at N  pause at the first block boundary after N
                simulated instructions, so a --checkpoint captures
                the suspended activation
                (resumable same-target only; cross-ISA migration
                needs a quiescent checkpoint)
  -print-traces print formed hot traces to stderr (llva-run: at each
                promotion; llva-translate: after a profiling
                interpreter run, and lay blocks out trace-first)
)",
                 targets.c_str(), targets.c_str());
    std::exit(2);
}

/** `--list-targets`: one registered target per line. */
[[noreturn]] void
listTargets()
{
    std::printf("%s\n", targetList("\n").c_str());
    std::exit(0);
}

/** The value of option args[i], the argument after it, which this
 *  consumes. An option given last, with no value, is an error. */
const std::string &
optionValue(const std::vector<std::string> &args, size_t &i)
{
    if (i + 1 >= args.size())
        fatal("option '%s' needs a value", args[i].c_str());
    return args[++i];
}

/**
 * \p text, the value of option \p opt, as a whole decimal number no
 * larger than \p max. Anything else (a sign, a suffix, no digits, a
 * number out of range) is an error that names the option and value.
 */
uint64_t
parseNumber(const char *opt, const std::string &text,
            uint64_t max = UINT64_MAX)
{
    uint64_t n = 0;
    const char *end = text.data() + text.size();
    auto [stop, ec] = std::from_chars(text.data(), end, n);
    if (ec != std::errc() || stop != end || n > max) {
        std::string range =
            max == UINT64_MAX ? "" : " from 0 to " + std::to_string(max);
        fatal("invalid %s value '%s': expected a whole decimal number%s",
              opt, text.c_str(), range.c_str());
    }
    return n;
}

/** `-O<level>`: 0, 1 or 2, as the usage text says. */
uint8_t
parseOptLevel(const std::string &arg)
{
    return static_cast<uint8_t>(parseNumber("-O", arg.substr(2), 2));
}

/** Recognize `-opt-bisect-limit=N` (-1: no limit) and arm the
 *  global bisector. */
bool
acceptBisectLimit(const std::string &arg)
{
    const std::string prefix = "-opt-bisect-limit=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    std::string n = arg.substr(prefix.size());
    OptBisect::setLimit(
        n == "-1" ? -1
                  : int64_t(parseNumber("-opt-bisect-limit", n, INT64_MAX)));
    return true;
}

/** A tool's positional argument, its input path. An argument that
 *  starts with '-' is an option the tool does not know. */
const std::string &
inputPath(const std::string &arg)
{
    if (arg.rfind('-', 0) == 0)
        fatal("unknown option '%s'", arg.c_str());
    return arg;
}

std::string
readFileText(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        fatal("cannot open '%s'", path.c_str());
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

std::vector<uint8_t>
readFileBytes(const std::string &path)
{
    std::string s = readFileText(path);
    return std::vector<uint8_t>(s.begin(), s.end());
}

void
writeFileBytes(const std::string &path,
               const std::vector<uint8_t> &bytes)
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        fatal("cannot write '%s'", path.c_str());
    f.write(reinterpret_cast<const char *>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/** Load a module from .llva text or .bc object code by sniffing. */
std::unique_ptr<Module>
loadModule(const std::string &path)
{
    auto bytes = readFileBytes(path);
    if (bytes.size() >= 4 && bytes[0] == 'L' && bytes[1] == 'L' &&
        bytes[2] == 'V' && bytes[3] == 'A')
        return readBytecode(bytes).orDie();
    return parseAssembly(std::string(bytes.begin(), bytes.end()),
                         path)
        .orDie();
}

int
toolAs(const std::vector<std::string> &args)
{
    std::string input, output;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "-o")
            output = optionValue(args, i);
        else
            input = inputPath(args[i]);
    }
    if (input.empty() || output.empty())
        usage();
    auto m = parseAssembly(readFileText(input), input).orDie();
    verifyOrDie(*m);
    auto bytes = writeBytecode(*m);
    writeFileBytes(output, bytes);
    std::printf("%s: %zu LLVA instructions -> %zu bytes\n",
                output.c_str(), m->instructionCount(), bytes.size());
    return 0;
}

int
toolDis(const std::vector<std::string> &args)
{
    std::string input, output;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "-o")
            output = optionValue(args, i);
        else
            input = inputPath(args[i]);
    }
    if (input.empty())
        usage();
    auto m = readBytecode(readFileBytes(input)).orDie();
    std::string text = m->str();
    if (output.empty()) {
        std::fputs(text.c_str(), stdout);
    } else {
        std::ofstream f(output);
        f << text;
    }
    return 0;
}

int
toolOpt(const std::vector<std::string> &args)
{
    std::string input, output;
    unsigned level = 2;
    bool timePasses = false, printStats = false;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "-o")
            output = optionValue(args, i);
        else if (args[i] == "-time-passes")
            timePasses = true;
        else if (args[i] == "-stats")
            printStats = true;
        else if (acceptBisectLimit(args[i]))
            ;
        else if (args[i].rfind("-O", 0) == 0)
            level = parseOptLevel(args[i]);
        else
            input = inputPath(args[i]);
    }
    if (input.empty() || output.empty())
        usage();
    auto m = loadModule(input);
    verifyOrDie(*m);
    size_t before = m->instructionCount();
    PassManager pm;
    pm.setVerifyEach(true);
    addStandardPasses(pm, level);
    pm.run(*m);
    auto bytes = writeBytecode(*m);
    writeFileBytes(output, bytes);
    std::printf("O%u: %zu -> %zu LLVA instructions;", level, before,
                m->instructionCount());
    for (const auto &p : pm.changedPasses())
        std::printf(" %s", p.c_str());
    std::printf("\n");
    if (timePasses) {
        std::fputs(pm.timingReport().c_str(), stderr);
        std::fputs(stats::timingReport().c_str(), stderr);
    }
    if (printStats)
        std::fputs(stats::report().c_str(), stderr);
    return 0;
}

/**
 * Checkpoint-mode execution for llva-run. `--checkpoint FILE`
 * captures the VM image (heap, registers, OS state, code-cache
 * index, edge profile — and, with `--pause-at N`, the suspended
 * activation after N instructions) into FILE after the run.
 * `--restore FILE` rebuilds the VM from such an image — possibly
 * under a different --target, where wrong-ISA code classifies
 * Incompatible and heals by retranslation — then resumes the
 * suspended activation or runs the entry afresh. Both modes need
 * the original program, for the IR and the identifying hash.
 */
int
runCheckpointMode(const std::string &input, Target &t,
                  const std::string &entry, CodeGenOptions opts,
                  const std::string &saveTo,
                  const std::string &loadFrom, uint64_t pauseAt,
                  bool printStats)
{
    auto m = loadModule(input);
    verifyOrDie(*m);
    const Function *entryFn = LLEE::entryFunction(*m, entry);
    uint64_t hash = fnv1a(writeBytecode(*m));

    ExecutionContext ctx(*m);
    CodeManager cm(t, opts);
    EdgeProfile profile;
    if (opts.adaptive)
        cm.setAdaptive(&profile, opts.promoteWatermark);
    MachineSimulator sim(ctx, cm);
    if (opts.adaptive)
        sim.setProfile(&profile);

    ExecResult r{};
    if (!loadFrom.empty()) {
        auto blob = readFileBytes(loadFrom);
        auto st =
            restoreCheckpoint(blob, hash, ctx, cm,
                              opts.adaptive ? &profile : nullptr,
                              &sim);
        if (!st.ok())
            fatal("restore '%s': %s", loadFrom.c_str(),
                  st.error().message().c_str());
        std::fprintf(stderr,
                     "llva-run: restored %zu translation(s), %zu "
                     "incompatible (retranslated on demand), "
                     "profile %s, %s\n",
                     st->codeRestored, st->codeIncompatible,
                     st->profileRestored ? "carried" : "absent",
                     st->suspended ? "resuming mid-run"
                                   : "running entry");
        if (pauseAt)
            sim.setPauseAt(pauseAt);
        r = st->suspended ? sim.resume() : sim.run(entryFn);
    } else {
        if (pauseAt)
            sim.setPauseAt(pauseAt);
        r = sim.run(entryFn);
    }

    if (!saveTo.empty()) {
        auto blob = captureCheckpoint(
            hash, ctx, cm, opts.adaptive ? &profile : nullptr,
            sim.paused() ? &sim : nullptr);
        writeFileBytes(saveTo, blob);
        std::fprintf(stderr, "llva-run: wrote %s (%zu bytes%s)\n",
                     saveTo.c_str(), blob.size(),
                     sim.paused() ? ", suspended mid-run" : "");
    }
    std::fputs(ctx.output().c_str(), stdout);
    if (printStats)
        std::fputs(stats::report().c_str(), stderr);
    if (sim.paused())
        return 0; // suspended: no final value yet
    if (r.trap != TrapKind::None) {
        std::fprintf(stderr, "llva-run: trap: %s\n",
                     trapKindName(r.trap));
        return 100;
    }
    return static_cast<int>(r.value.i);
}

int
toolRun(const std::vector<std::string> &args)
{
    std::string input, target = "sparc", cache, entry = "main";
    std::string checkpointOut, restoreIn;
    uint64_t pauseAt = 0;
    bool interp = false, printStats = false;
    CodeGenOptions opts;
    uint64_t sampleInterval = 1;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--target")
            target = optionValue(args, i);
        else if (args[i] == "--list-targets")
            listTargets();
        else if (args[i] == "--cache")
            cache = optionValue(args, i);
        else if (args[i] == "--entry")
            entry = optionValue(args, i);
        else if (args[i] == "--interp")
            interp = true;
        else if (args[i] == "--adaptive")
            opts.adaptive = true;
        else if (args[i] == "--watermark")
            opts.promoteWatermark =
                parseNumber("--watermark", optionValue(args, i));
        else if (args[i] == "--profile-sample")
            sampleInterval =
                parseNumber("--profile-sample", optionValue(args, i));
        else if (args[i] == "--checkpoint")
            checkpointOut = optionValue(args, i);
        else if (args[i] == "--restore")
            restoreIn = optionValue(args, i);
        else if (args[i] == "--pause-at")
            pauseAt = parseNumber("--pause-at", optionValue(args, i));
        else if (args[i] == "-print-traces")
            opts.printTraces = true;
        else if (args[i] == "-stats")
            printStats = true;
        else if (args[i] == "-verify-each")
            opts.verifyEach = true;
        else if (acceptBisectLimit(args[i]))
            ;
        else if (args[i].rfind("-O", 0) == 0)
            opts.optLevel = parseOptLevel(args[i]);
        else
            input = inputPath(args[i]);
    }
    if (input.empty())
        usage();

    // Checkpoint/restore bypass LLEE's storage pipeline: they build
    // the VM by hand so the code manager and simulator are at hand
    // for capture/restore.
    if (!checkpointOut.empty() || !restoreIn.empty())
        return runCheckpointMode(input, *getTarget(target), entry,
                                 opts, checkpointOut, restoreIn,
                                 pauseAt, printStats);

    if (interp) {
        auto m = loadModule(input);
        verifyOrDie(*m);
        ExecutionContext ctx(*m);
        Interpreter engine(ctx);
        auto r = engine.run(LLEE::entryFunction(*m, entry));
        std::fputs(ctx.output().c_str(), stdout);
        if (r.trap != TrapKind::None) {
            std::fprintf(stderr, "\nllva-run: trap: %s\n",
                         trapKindName(r.trap));
            return 100;
        }
        return static_cast<int>(r.value.i);
    }

    // getTarget fails with the registry-driven known-target list.
    Target *t = getTarget(target);
    std::unique_ptr<FileStorage> storage;
    if (!cache.empty())
        storage = std::make_unique<FileStorage>(cache);
    LLEE llee(*t, storage.get(), opts);
    llee.setProfileSampleInterval(sampleInterval);
    auto bytes = readFileBytes(input);
    if (!(bytes.size() >= 4 && bytes[0] == 'L'))
        bytes = writeBytecode(*loadModule(input));
    LLEEResult r = llee.execute(bytes, entry);
    std::fputs(r.output.c_str(), stdout);
    std::fprintf(stderr,
                 "\nllva-run: %zu cache hits, %zu misses, "
                 "%.3f ms online translation, %llu machine "
                 "instructions\n",
                 r.cacheHits, r.cacheMisses,
                 r.onlineTranslateSeconds * 1000.0,
                 (unsigned long long)r.machineInstructionsExecuted);
    if (r.tierDowngrades || r.functionsInterpreted)
        std::fprintf(stderr,
                     "llva-run: %zu tier downgrades, %zu functions "
                     "pinned to the interpreter\n",
                     r.tierDowngrades, r.functionsInterpreted);
    if (opts.adaptive)
        std::fprintf(stderr,
                     "llva-run: %zu promotions to -O%u+traces "
                     "(%zu failed), %llu profile samples, %.1f%% "
                     "trace coverage, %zu trace-tier translations "
                     "reloaded\n",
                     r.promotions, unsigned(opts.optLevel),
                     r.promotionFailures,
                     (unsigned long long)r.profileSamples,
                     r.traceCoverage * 100.0, r.traceTierLoaded);
    if (printStats)
        std::fputs(stats::report().c_str(), stderr);
    if (r.exec.trap != TrapKind::None) {
        std::fprintf(stderr, "llva-run: trap: %s\n",
                     trapKindName(r.exec.trap));
        return 100;
    }
    return static_cast<int>(r.exec.value.i);
}

/**
 * `llva-translate --verify-cache <dir> [--repair]`: audit every
 * entry of an on-disk translation cache through the same envelope
 * check LLEE applies at load time. Reports per-entry status; with
 * --repair, corrupt and incompatible entries are deleted so the
 * next run retranslates them. Exit status 1 if bad entries remain.
 */
int
verifyCache(const std::string &dir, bool repair)
{
    FileStorage storage(dir);
    const std::string cache = "llee-native-cache";
    size_t ok = 0, bad = 0, repaired = 0, skipped = 0;
    for (const std::string &name : storage.list(cache)) {
        // Profiles are plain text keyed alongside translations, not
        // enveloped machine code; they are not auditable here.
        if (name.size() >= 8 &&
            name.compare(name.size() - 8, 8, ".profile") == 0) {
            ++skipped;
            continue;
        }
        std::vector<uint8_t> bytes;
        if (!storage.read(cache, name, bytes)) {
            std::printf("%-12s %s\n", "unreadable", name.c_str());
            ++bad;
            continue;
        }
        EnvelopeStatus st = inspectTranslation(bytes);
        if (st == EnvelopeStatus::Ok) {
            ++ok;
            continue;
        }
        if (repair && storage.remove(cache, name)) {
            std::printf("%-12s %s (deleted)\n",
                        envelopeStatusName(st), name.c_str());
            ++repaired;
        } else {
            std::printf("%-12s %s\n", envelopeStatusName(st),
                        name.c_str());
            ++bad;
        }
    }
    std::printf("verify-cache: %zu ok, %zu bad, %zu repaired, "
                "%zu skipped\n",
                ok, bad, repaired, skipped);
    return bad ? 1 : 0;
}

int
toolTranslate(const std::vector<std::string> &args)
{
    std::string input, target = "sparc", verifyDir;
    CodeGenOptions opts;
    bool printStats = false, repair = false;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--target")
            target = optionValue(args, i);
        else if (args[i] == "--list-targets")
            listTargets();
        else if (args[i] == "--verify-cache")
            verifyDir = optionValue(args, i);
        else if (args[i] == "--repair")
            repair = true;
        else if (args[i] == "--local-alloc")
            opts.allocator = CodeGenOptions::Allocator::Local;
        else if (args[i] == "--no-coalesce")
            opts.coalesce = false;
        else if (args[i] == "-print-traces")
            opts.printTraces = true;
        else if (args[i] == "-stats")
            printStats = true;
        else if (args[i] == "-verify-each")
            opts.verifyEach = true;
        else if (acceptBisectLimit(args[i]))
            ;
        else if (args[i].rfind("-O", 0) == 0)
            opts.optLevel = parseOptLevel(args[i]);
        else
            input = inputPath(args[i]);
    }
    if (!verifyDir.empty())
        return verifyCache(verifyDir, repair);
    if (input.empty())
        usage();
    // getTarget fails with the registry-driven known-target list.
    Target *t = getTarget(target);
    auto m = loadModule(input);
    verifyOrDie(*m);

    // Apply the per-function optimization pipeline the online
    // translator would run at this -O level, with the same
    // localization aids (-verify-each, -opt-bisect-limit): none when
    // the module records that it already had this level.
    if (opts.optLevel > m->optimizationLevel()) {
        PassManager pm;
        pm.setVerifyEach(opts.verifyEach);
        addFunctionPasses(pm, opts.optLevel);
        pm.run(*m);
    }

    // -print-traces: gather an edge profile by interpreting the
    // (already optimized) module once, form hot traces per function,
    // print them to stderr, and apply the trace-first layout so the
    // listing below is the code the adaptive tier would install.
    if (opts.printTraces) {
        EdgeProfile profile;
        {
            ExecutionContext ctx(*m);
            Interpreter profiler(ctx);
            profiler.setProfile(&profile);
            profiler.setInstructionLimit(100000000);
            profiler.run(LLEE::entryFunction(*m, "main"));
        }
        for (const auto &f : m->functions()) {
            if (f->isDeclaration())
                continue;
            auto traces = formTraces(*f, profile);
            for (const Trace &tr : traces) {
                std::fprintf(stderr, "trace: %s:",
                             f->name().c_str());
                for (const BasicBlock *bb : tr.blocks)
                    std::fprintf(stderr, " %s",
                                 bb->name().c_str());
                std::fprintf(stderr, " (head count %llu)\n",
                             (unsigned long long)tr.headCount);
            }
            applyTraceLayout(*f, traces);
        }
    }

    size_t llva_total = 0, native_total = 0, bytes_total = 0;
    for (const auto &f : m->functions()) {
        if (f->isDeclaration())
            continue;
        auto mf = translateFunction(*f, *t, opts);
        size_t llvaCount = f->instructionCount();
        size_t nativeCount = mf->instructionCount();
        size_t byteCount = encodeFunction(*mf, *t).size();
        std::fputs(machineFunctionToString(*mf, *t).c_str(), stdout);
        std::printf("; %zu LLVA -> %zu %s instructions, %zu "
                    "bytes\n\n",
                    llvaCount, nativeCount, target.c_str(), byteCount);
        llva_total += llvaCount;
        native_total += nativeCount;
        bytes_total += byteCount;
    }
    std::printf("total: %zu LLVA -> %zu %s instructions "
                "(ratio %.2f), %zu bytes\n",
                llva_total, native_total, target.c_str(),
                llva_total
                    ? static_cast<double>(native_total) / llva_total
                    : 0.0,
                bytes_total);
    if (printStats)
        std::fputs(stats::report().c_str(), stderr);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Tool selection: argv[0] basename, or first argument.
    std::string name = argv[0];
    auto slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name = name.substr(slash + 1);

    std::vector<std::string> args(argv + 1, argv + argc);
    if (name == "llva-tools" || name == "llva_tools") {
        if (args.empty())
            usage();
        name = "llva-" + args.front();
        args.erase(args.begin());
    }

    try {
        if (name == "llva-as")
            return toolAs(args);
        if (name == "llva-dis")
            return toolDis(args);
        if (name == "llva-opt")
            return toolOpt(args);
        if (name == "llva-run")
            return toolRun(args);
        if (name == "llva-translate")
            return toolTranslate(args);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s: error: %s\n", name.c_str(),
                     e.what());
        return 1;
    }
    usage();
}
