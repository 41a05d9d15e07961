/**
 * @file
 * The software trace cache and hot-trace formation (paper Section
 * 4.2): runtime path profiles gathered over the explicit CFG are
 * turned into traces — sequences of basic blocks that execution
 * usually follows — which seed trace-driven reoptimization. The
 * concrete optimization implemented here is trace-driven code
 * layout: blocks on a trace are emitted contiguously so the
 * translator's fallthrough elision removes the branches between
 * them (fewer executed instructions, smaller code).
 *
 * Profiles are keyed by stable BlockIds (trace/profile.h); trace
 * formation resolves them against the function's *current* blocks by
 * name, so a profile gathered before CFG-mutating passes (or in a
 * previous process) still seeds traces on the optimized body.
 */

#ifndef LLVA_TRACE_TRACE_H
#define LLVA_TRACE_TRACE_H

#include <map>
#include <vector>

#include "trace/profile.h"

namespace llva {

/** A hot path: blocks of one function, in execution order. */
struct Trace
{
    std::vector<BasicBlock *> blocks;
    uint64_t headCount = 0; ///< executions of the head block

    BasicBlock *head() const { return blocks.front(); }
    size_t length() const { return blocks.size(); }
};

/** Knobs for trace formation. */
struct TraceOptions
{
    /** A block is a trace seed if executed at least this often. */
    uint64_t hotThreshold = 50;
    /** Stop growing when the best successor edge carries less than
     *  this fraction of the current block's executions. */
    double minBranchBias = 0.6;
    size_t maxLength = 16;
};

/**
 * Form traces for \p f from an edge profile, most-executed seeds
 * first. Each block joins at most one trace. Profile rows are
 * resolved against \p f's blocks through their stable IDs; rows for
 * blocks that no longer exist (deleted by a pass since the profile
 * was gathered) are ignored.
 */
std::vector<Trace> formTraces(const Function &f,
                              const EdgeProfile &profile,
                              const TraceOptions &opts = {});

/**
 * The software trace cache: traces indexed by head block, with hit
 * accounting. (The paper's cache stores native code for traces; here
 * the payload is the trace itself, consumed by the re-layout step.)
 * Re-inserting a trace with the same head replaces the cached trace
 * in place — the cache never holds two traces for one head.
 */
class TraceCache
{
  public:
    void insert(Trace trace);

    const Trace *lookup(const BasicBlock *head) const;

    size_t size() const { return traces_.size(); }

    const std::vector<Trace> &traces() const { return order_; }

    /**
     * Fraction of profiled block executions *of the functions
     * represented in this cache* that occur inside some cached trace
     * — the coverage metric for ablation A3 and the trace.coverage
     * statistic. Rows for other functions are excluded so one
     * function's cache is not judged against the whole program.
     */
    double coverage(const EdgeProfile &profile) const;

  private:
    std::map<const BasicBlock *, size_t> traces_;
    std::vector<Trace> order_;
};

/**
 * The trace-first block order of \p f (trace-driven code layout):
 * each trace contiguous, the entry block's chain first, the rest in
 * \p f's own order. Blocks of other functions in \p traces are
 * ignored. When the entry block cannot stay first, \p f's own order.
 */
BlockOrder traceLayoutOrder(const Function &f,
                            const std::vector<Trace> &traces);

/** Reorder \p f's blocks by traceLayoutOrder(). */
void applyTraceLayout(Function &f, const std::vector<Trace> &traces);

} // namespace llva

#endif // LLVA_TRACE_TRACE_H
