#include "trace/trace.h"

#include <algorithm>
#include <set>

#include "ir/instructions.h"

namespace llva {

std::vector<Trace>
formTraces(const Function &f, const EdgeProfile &profile,
           const TraceOptions &opts)
{
    // Resolve the stable profile rows against the function's current
    // blocks. Rows whose block was deleted by a pass since the
    // profile was gathered simply fail to resolve and are ignored;
    // blocks created since have no row and count as never executed.
    const uint64_t fnHash = functionId(f.name());
    std::map<uint64_t, BasicBlock *> byName;
    for (const auto &bb : f)
        byName[fnv1a(bb->name())] = bb.get();

    auto blockCount = [&](const BasicBlock *bb) -> uint64_t {
        auto it = profile.blocks.find({fnHash, fnv1a(bb->name())});
        return it == profile.blocks.end() ? 0 : it->second;
    };
    auto edgeCount = [&](const BasicBlock *from,
                         const BasicBlock *to) -> uint64_t {
        auto it = profile.edges.find(
            {{fnHash, fnv1a(from->name())},
             {fnHash, fnv1a(to->name())}});
        return it == profile.edges.end() ? 0 : it->second;
    };

    // Candidate seeds: hot blocks of this function, hottest first;
    // ties broken by layout order so loop headers win over their
    // equally-hot latches.
    std::vector<std::pair<uint64_t, BasicBlock *>> seeds;
    for (const auto &bb : f) {
        uint64_t count = blockCount(bb.get());
        if (count >= opts.hotThreshold)
            seeds.emplace_back(count, bb.get());
    }
    std::stable_sort(seeds.begin(), seeds.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });

    std::set<const BasicBlock *> taken;
    std::vector<Trace> traces;

    for (auto &[count, seed] : seeds) {
        if (taken.count(seed))
            continue;
        Trace trace;
        trace.headCount = count;
        BasicBlock *cur = seed;
        while (trace.blocks.size() < opts.maxLength) {
            trace.blocks.push_back(cur);
            taken.insert(cur);

            // Follow the dominant successor edge.
            BasicBlock *best = nullptr;
            uint64_t best_count = 0;
            uint64_t total = 0;
            for (BasicBlock *succ : cur->successors()) {
                uint64_t c = edgeCount(cur, succ);
                total += c;
                if (c > best_count) {
                    best_count = c;
                    best = succ;
                }
            }
            if (!best || taken.count(best) || total == 0)
                break;
            if (static_cast<double>(best_count) <
                opts.minBranchBias * static_cast<double>(total))
                break;
            cur = best;
        }
        if (trace.blocks.size() >= 2) {
            traces.push_back(std::move(trace));
        } else {
            // Rejected trace: release every block it claimed so a
            // later (colder) seed can still absorb them. Growth only
            // stops after at least one block is appended, so a
            // rejected trace holds exactly the seed — but release by
            // iteration, not by assumption, so a future change to
            // the growth loop cannot silently strand blocks in
            // `taken` forever.
            LLVA_ASSERT(trace.blocks.size() <= 1,
                        "rejected trace claimed %zu blocks",
                        trace.blocks.size());
            for (BasicBlock *bb : trace.blocks)
                taken.erase(bb);
        }
    }
    return traces;
}

void
TraceCache::insert(Trace trace)
{
    // Replace in place on a duplicate head: the previous behaviour
    // overwrote the index entry but left the stale trace in order_,
    // so coverage() double-counted its blocks and the cache grew
    // without bound under repeated reoptimization.
    auto it = traces_.find(trace.head());
    if (it != traces_.end()) {
        order_[it->second] = std::move(trace);
        return;
    }
    traces_[trace.head()] = order_.size();
    order_.push_back(std::move(trace));
}

const Trace *
TraceCache::lookup(const BasicBlock *head) const
{
    auto it = traces_.find(head);
    return it == traces_.end() ? nullptr : &order_[it->second];
}

double
TraceCache::coverage(const EdgeProfile &profile) const
{
    std::set<BlockId> inTrace;
    std::set<uint64_t> fns;
    for (const Trace &t : order_)
        for (const BasicBlock *bb : t.blocks) {
            BlockId id = blockId(bb);
            inTrace.insert(id);
            fns.insert(id.fn);
        }

    uint64_t total = 0, covered = 0;
    for (const auto &[id, count] : profile.blocks) {
        if (!fns.count(id.fn))
            continue;
        total += count;
        if (inTrace.count(id))
            covered += count;
    }
    return total ? static_cast<double>(covered) /
                       static_cast<double>(total)
                 : 0.0;
}

BlockOrder
traceLayoutOrder(const Function &f, const std::vector<Trace> &traces)
{
    // Pettis–Hansen-style chain merging: each consecutive pair of
    // trace blocks is a hot edge we want as a fallthrough. Chains
    // start as singletons (in original layout order, preserving
    // existing fallthroughs as much as possible) and merge when a
    // hot edge connects one chain's tail to another's head.
    std::map<const BasicBlock *, size_t> chainOf;
    std::vector<BlockOrder> chains;
    for (const auto &bb : f) {
        chainOf[bb.get()] = chains.size();
        chains.push_back({bb.get()});
    }

    auto tryMerge = [&](const BasicBlock *a, const BasicBlock *b) {
        if (a->parent() != &f || b->parent() != &f)
            return;
        size_t ca = chainOf[a], cb = chainOf[b];
        if (ca == cb)
            return;
        if (chains[ca].back() != a || chains[cb].front() != b)
            return;
        for (const BasicBlock *bb : chains[cb]) {
            chains[ca].push_back(bb);
            chainOf[bb] = ca;
        }
        chains[cb].clear();
    };

    for (const Trace &t : traces)
        for (size_t i = 0; i + 1 < t.blocks.size(); ++i)
            tryMerge(t.blocks[i], t.blocks[i + 1]);

    // Emit: the entry block's chain first, then the remaining
    // chains in original order.
    BlockOrder order;
    size_t entry_chain = chainOf[f.entryBlock()];
    for (const BasicBlock *bb : chains[entry_chain])
        order.push_back(bb);
    for (size_t c = 0; c < chains.size(); ++c)
        if (c != entry_chain)
            for (const BasicBlock *bb : chains[c])
                order.push_back(bb);

    // The entry block must stay first; if its chain does not start
    // with it (merged as a tail), fall back to original order.
    if (order.front() != f.entryBlock()) {
        order.clear();
        for (const auto &bb : f)
            order.push_back(bb.get());
    }
    return order;
}

void
applyTraceLayout(Function &f, const std::vector<Trace> &traces)
{
    for (const BasicBlock *bb : traceLayoutOrder(f, traces))
        f.moveBlockBefore(const_cast<BasicBlock *>(bb), nullptr);
}

} // namespace llva
