/**
 * @file
 * The translator's code-generation pipeline: instruction selection,
 * phi elimination, register allocation, frame lowering, and prologue
 * insertion. This is the per-function core of the LLVA-to-I-ISA
 * translation that LLEE invokes (offline or just-in-time).
 */

#ifndef LLVA_CODEGEN_CODEGEN_H
#define LLVA_CODEGEN_CODEGEN_H

#include <memory>

#include "codegen/target.h"

namespace llva {

/** Knobs for the translation pipeline (used by ablation benches). */
struct CodeGenOptions
{
    enum class Allocator {
        Local,      ///< block-local, spill-everything-between-blocks
        LinearScan, ///< global linear scan with copy hints
    };

    Allocator allocator = Allocator::LinearScan;
    /** Honor copy hints and delete coalesced copies (A5 ablation). */
    bool coalesce = true;
    /**
     * Requested optimization level for runtime translation (the top
     * rung of the tier ladder; a faulting pipeline degrades from
     * here toward 0 and finally the interpreter).
     */
    uint8_t optLevel = 0;
    /** Run the verifier after every optimization pass (diagnosis);
     *  not part of the cache compatibility key. */
    bool verifyEach = false;
    /**
     * Adaptive reoptimization (paper Section 4.2): profile
     * translated code at runtime and promote hot functions to the
     * trace tier (`-O<level>+traces`). Like verifyEach, none of the
     * adaptive knobs joins the cache compatibility key — the tier a
     * body was *achieved* at travels in the envelope instead.
     */
    bool adaptive = false;
    /** Profiled block executions in one function before it is
     *  promoted to the trace tier. */
    uint64_t promoteWatermark = 5000;
    /** Dump formed traces to stderr on promotion (-print-traces). */
    bool printTraces = false;
};

/** Statistics from one function translation. */
struct CodeGenStats
{
    size_t phiCopiesInserted = 0;
    size_t phiCopiesCoalesced = 0;
    size_t spillsInserted = 0;
    size_t reloadsInserted = 0;

    CodeGenStats &
    operator+=(const CodeGenStats &o)
    {
        phiCopiesInserted += o.phiCopiesInserted;
        phiCopiesCoalesced += o.phiCopiesCoalesced;
        spillsInserted += o.spillsInserted;
        reloadsInserted += o.reloadsInserted;
        return *this;
    }
};

/**
 * Translate one verified LLVA function to machine code for \p target,
 * laying its blocks out in \p order (empty: the function's own
 * order; trace layout passes traceLayoutOrder()). The result has only
 * physical registers and resolved frame offsets.
 */
std::unique_ptr<MachineFunction>
translateFunction(const Function &f, Target &target,
                  const CodeGenOptions &opts = {},
                  CodeGenStats *stats = nullptr,
                  const BlockOrder &order = {});

/** Encode every instruction of \p mf; returns total bytes. */
std::vector<uint8_t> encodeFunction(const MachineFunction &mf,
                                    const Target &target);

/** Pretty-print machine code (debugging, examples). */
std::string machineFunctionToString(const MachineFunction &mf,
                                    const Target &target);

// Pipeline stages (exposed for unit testing).
void eliminatePhis(MachineFunction &mf, CodeGenStats *stats);
void allocateRegistersLocal(MachineFunction &mf, Target &target,
                            CodeGenStats *stats);
void allocateRegistersLinearScan(MachineFunction &mf, Target &target,
                                 bool coalesce, CodeGenStats *stats);
/** Assign frame offsets and rewrite Frame operands to sp-relative. */
void finalizeFrame(MachineFunction &mf);
/**
 * Delete unconditional jumps to the lexically next block; the
 * simulator falls through. Trace-driven block layout (Section 4.2)
 * turns this into fewer executed branches and smaller code.
 */
void elideFallthroughJumps(MachineFunction &mf);
/** Callee-saved registers actually written by allocated code. */
std::vector<unsigned> usedCalleeSaved(const MachineFunction &mf,
                                      const Target &target);

} // namespace llva

#endif // LLVA_CODEGEN_CODEGEN_H
