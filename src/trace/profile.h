/**
 * @file
 * Runtime edge/block profiles keyed by *stable block IDs* (paper
 * Section 4.2: the profile information gathered transparently at
 * runtime that seeds hot-trace formation and is persisted by LLEE
 * for idle-time profile-guided optimization).
 *
 * A BlockId is the pair (fnv1a of the function name, fnv1a of the
 * block name). Unlike the BasicBlock pointers an earlier revision
 * keyed on, a BlockId survives everything a pointer does not:
 * CFG-mutating passes that delete and recreate blocks, sandboxed
 * tier retranslation restoring a FunctionSnapshot, and — because it
 * is content-derived — process restarts, which is what lets LLEE
 * persist a profile next to the virtual object code and resume at
 * the trace tier on a warm start.
 */

#ifndef LLVA_TRACE_PROFILE_H
#define LLVA_TRACE_PROFILE_H

#include <iterator>
#include <map>
#include <vector>

#include "ir/basic_block.h"
#include "ir/function.h"
#include "support/expected.h"
#include "support/hashing.h"

namespace llva {

/** Stable identity of a basic block within a program. */
struct BlockId
{
    uint64_t fn = 0;    ///< fnv1a of the owning function's name
    uint64_t block = 0; ///< fnv1a of the block's name

    bool
    operator<(const BlockId &o) const
    {
        return fn != o.fn ? fn < o.fn : block < o.block;
    }
    bool
    operator==(const BlockId &o) const
    {
        return fn == o.fn && block == o.block;
    }
    bool operator!=(const BlockId &o) const { return !(*this == o); }
};

/** Stable hash of a function name (the BlockId::fn component). */
inline uint64_t
functionId(const std::string &name)
{
    return fnv1a(name);
}

/**
 * The stable ID of \p bb. Checked: a detached block (no parent
 * function) has no stable identity — asking for one is the dangling
 * situation the pointer-keyed profile used to silently corrupt on,
 * and it panics here instead.
 */
inline BlockId
blockId(const BasicBlock *bb)
{
    LLVA_ASSERT(bb && bb->parent(),
                "blockId of a detached basic block");
    return {functionId(bb->parent()->name()), fnv1a(bb->name())};
}

/**
 * CFG edge/block execution counts gathered during execution — by the
 * reference interpreter and by the machine simulator running
 * translated code. Keys are stable BlockIds, so one profile can be
 * accumulated across tiers, merged across runs, and persisted.
 */
struct EdgeProfile
{
    std::map<std::pair<BlockId, BlockId>, uint64_t> edges;
    std::map<BlockId, uint64_t> blocks;
    /** Per-function block-execution totals (hotness watermark). */
    std::map<uint64_t, uint64_t> fnSamples;
    /** Total block executions recorded into this profile. */
    uint64_t samples = 0;

    void
    note(const BasicBlock *from, const BasicBlock *to)
    {
        noteId(from ? blockId(from) : BlockId{}, blockId(to));
    }

    /**
     * \p from == BlockId{} records a block entry with no edge.
     * \p weight > 1 is how sampled profiling keeps counts in
     * execution units: recording every Nth event with weight N
     * estimates the same totals at 1/N the map traffic.
     */
    void
    noteId(const BlockId &from, const BlockId &to,
           uint64_t weight = 1)
    {
        if (from.fn || from.block)
            edges[{from, to}] += weight;
        blocks[to] += weight;
        fnSamples[to.fn] += weight;
        samples += weight;
    }

    bool empty() const { return blocks.empty(); }

    /** Executions of \p bb (0 if never profiled). Checked resolve
     *  through the stable ID. */
    uint64_t
    blockCount(const BasicBlock *bb) const
    {
        auto it = blocks.find(blockId(bb));
        return it == blocks.end() ? 0 : it->second;
    }

    /** Executions of the edge \p from -> \p to. */
    uint64_t
    edgeCount(const BasicBlock *from, const BasicBlock *to) const
    {
        auto it = edges.find({blockId(from), blockId(to)});
        return it == edges.end() ? 0 : it->second;
    }

    /** Block executions recorded inside the named function. */
    uint64_t
    functionSamples(uint64_t fnHash) const
    {
        auto it = fnSamples.find(fnHash);
        return it == fnSamples.end() ? 0 : it->second;
    }

    /**
     * Exponentially decay every counter by \p shift halvings and
     * drop entries that reach zero. Long-lived engines call this
     * periodically so a profile left always-on tracks the *current*
     * hot set instead of accumulating stale history forever.
     */
    void
    decay(unsigned shift = 1)
    {
        auto scale = [shift](auto &m) {
            for (auto it = m.begin(); it != m.end();) {
                it->second >>= shift;
                it = it->second ? std::next(it) : m.erase(it);
            }
        };
        scale(edges);
        scale(blocks);
        scale(fnSamples);
        samples = 0;
        for (const auto &[id, c] : blocks)
            samples += c;
    }

    /** Accumulate \p other into this profile. */
    void
    merge(const EdgeProfile &other)
    {
        for (const auto &[id, c] : other.blocks)
            blocks[id] += c;
        for (const auto &[e, c] : other.edges)
            edges[e] += c;
        for (const auto &[fn, c] : other.fnSamples)
            fnSamples[fn] += c;
        samples += other.samples;
    }
};

/**
 * Serialize a profile for LLEE persistence: versioned binary rows
 * with a CRC-32 trailer (the profile read back from storage is
 * untrusted input, exactly like a cached translation).
 */
std::vector<uint8_t> writeEdgeProfile(const EdgeProfile &profile);

/** Parse persisted profile bytes; any damage is a recoverable
 *  Error, never a crash. */
Expected<EdgeProfile> readEdgeProfile(const std::vector<uint8_t> &bytes);

/** Content hash of a profile (stamped into trace-tier envelopes so a
 *  warm restart can tell which profile shaped a cached body). */
uint64_t profileHash(const EdgeProfile &profile);

} // namespace llva

#endif // LLVA_TRACE_PROFILE_H
