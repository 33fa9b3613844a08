/**
 * @file
 * Wait-graph construction (paper Algorithm: wait/unwait chaining with
 * window clipping) and the corpus-parallel buildAllParallel variant
 * that shards instances across the work-stealing pool.
 *
 * The hot path is allocation-free in steady state: the per-stream
 * index is a set of flat arrays built by the columnar sweeps in
 * src/trace/columns.h, each graph's edges land in one CSR arena, and
 * the DFS bookkeeping (visited stamps, candidate and child stacks)
 * lives in thread_local scratch that survives across builds.
 */

#include "src/waitgraph/waitgraph.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "src/trace/columns.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/telemetry.h"

namespace tracelens
{

const WaitGraph::Node &
WaitGraph::node(std::uint32_t index) const
{
    TL_ASSERT(index < nodes_.size(), "bad node index ", index);
    return nodes_[index];
}

DurationNs
WaitGraph::topLevelDuration() const
{
    DurationNs total = 0;
    for (std::uint32_t root : roots_)
        total += nodes_[root].event.cost;
    return total;
}

std::string
WaitGraph::renderText(const SymbolTable &symbols,
                      const NameFilter &components,
                      std::size_t max_nodes) const
{
    std::ostringstream oss;
    std::size_t emitted = 0;

    struct Frame
    {
        std::uint32_t node;
        std::size_t depth;
    };
    std::vector<Frame> stack;
    for (auto it = roots_.rbegin(); it != roots_.rend(); ++it)
        stack.push_back({*it, 0});

    while (!stack.empty()) {
        const auto [id, depth] = stack.back();
        stack.pop_back();
        if (emitted++ >= max_nodes) {
            oss << "...\n";
            break;
        }
        const Node &n = nodes_[id];
        oss << std::string(depth * 2, ' ')
            << eventTypeName(n.event.type) << " tid=" << n.event.tid
            << " cost=" << toMs(n.event.cost) << "ms";
        if (n.event.stack != kNoCallstack) {
            const FrameId sig =
                symbols.topMatchingFrame(n.event.stack, components);
            const auto frames = symbols.stackFrames(n.event.stack);
            if (sig != kNoFrame)
                oss << " sig=" << symbols.frameName(sig);
            else if (!frames.empty())
                oss << " top=" << symbols.frameName(frames.back());
        }
        if (n.truncated)
            oss << " [truncated]";
        oss << "\n";
        const auto kids = children(n);
        for (auto it = kids.rbegin(); it != kids.rend(); ++it)
            stack.push_back({*it, depth + 1});
    }
    return oss.str();
}

WaitGraphBuilder::WaitGraphBuilder(const TraceCorpus &corpus,
                                   WaitGraphOptions options)
    : corpus_(corpus), options_(options)
{
}

void
WaitGraphBuilder::BuildScratch::beginBuild(std::size_t events)
{
    if (visitedStamp.size() < events)
        visitedStamp.resize(events, 0);
    if (++epoch == 0) {
        // Stamp wrap-around (once per ~4G builds): refill and restart.
        std::fill(visitedStamp.begin(), visitedStamp.end(), 0);
        epoch = 1;
    }
}

const WaitGraphBuilder::StreamIndex &
WaitGraphBuilder::streamIndex(std::uint32_t stream_id) const
{
    auto it = cache_.find(stream_id);
    if (it != cache_.end())
        return it->second;
    return cache_.emplace(stream_id, indexStream(stream_id)).first->second;
}

WaitGraphBuilder::StreamIndex
WaitGraphBuilder::indexStream(std::uint32_t stream_id) const
{
    const EventColumns &columns = corpus_.stream(stream_id).columns();
    const std::size_t n = columns.size();
    StreamIndex sindex;

    // Dense thread slots first (one O(n) hash pass over the tid
    // column), then steps 1+2 of the construction as columnar sweeps:
    // FIFO pairing, then wait-duration restoration into effective end
    // times.
    const auto timestamps = columns.timestamps();
    sindex.threadSlots.build(columns.tids(), sindex.slotOfEvent);
    pairWaitsFifo(columns, sindex.threadSlots, sindex.slotOfEvent,
                  sindex.pairedUnwait);
    computeEffectiveEnds(columns, sindex.pairedUnwait,
                         corpus_.stream(stream_id).endTime(),
                         sindex.effectiveEnd);

    // Per-thread CSR: counting sort of event indices over the slot
    // column (stable, so each thread's group stays in time order).
    const std::size_t slots = sindex.threadSlots.slots();
    sindex.threadOffset.assign(slots + 1, 0);
    for (std::size_t i = 0; i < n; ++i)
        ++sindex.threadOffset[sindex.slotOfEvent[i] + 1];
    for (std::size_t s = 0; s < slots; ++s)
        sindex.threadOffset[s + 1] += sindex.threadOffset[s];

    sindex.threadEvents.resize(n);
    {
        std::vector<std::uint32_t> cursor(sindex.threadOffset.begin(),
                                          sindex.threadOffset.end() - 1);
        for (std::size_t i = 0; i < n; ++i) {
            sindex.threadEvents[cursor[sindex.slotOfEvent[i]]++] =
                static_cast<std::uint32_t>(i);
        }
    }

    // Gather the window-scan columns into CSR-aligned arrays, and the
    // per-group running end maxima that bound the backward scans.
    sindex.threadEventTs.resize(n);
    sindex.threadEventEnd.resize(n);
    sindex.prefixMaxEnd.resize(n);
    for (std::size_t s = 0; s < slots; ++s) {
        TimeNs running = std::numeric_limits<TimeNs>::min();
        for (std::uint32_t k = sindex.threadOffset[s];
             k < sindex.threadOffset[s + 1]; ++k) {
            const std::uint32_t ei = sindex.threadEvents[k];
            sindex.threadEventTs[k] = timestamps[ei];
            sindex.threadEventEnd[k] = sindex.effectiveEnd[ei];
            running = std::max(running, sindex.threadEventEnd[k]);
            sindex.prefixMaxEnd[k] = running;
        }
    }

    return sindex;
}

std::uint32_t
WaitGraphBuilder::expand(WaitGraph &graph, const StreamIndex &sindex,
                         std::uint32_t stream_id,
                         const EventColumns &columns,
                         std::uint32_t index, std::uint32_t depth,
                         TimeNs win_lo, TimeNs win_hi,
                         BuildScratch &scratch) const
{
    if (graph.nodes_.size() >= options_.maxNodes)
        return kInvalidIndex;
    if (scratch.visited(index))
        return kInvalidIndex; // first-reaching window owns the event
    scratch.mark(index);

    const Event source = columns[index];
    const auto node_id = static_cast<std::uint32_t>(graph.nodes_.size());
    graph.nodes_.emplace_back();
    {
        WaitGraph::Node &node = graph.nodes_.back();
        node.event = source;
        node.ref = {stream_id, index};
    }

    // The portion of this event attributed through the ancestor
    // window (the whole event when clipping is ablated away).
    const TimeNs eff_end = sindex.effectiveEnd[index];
    const TimeNs clip_lo = options_.clipToWindows
                               ? std::max(source.timestamp, win_lo)
                               : source.timestamp;
    const TimeNs clip_hi =
        options_.clipToWindows ? std::min(eff_end, win_hi) : eff_end;
    const DurationNs clipped =
        std::max<DurationNs>(0, clip_hi - clip_lo);

    graph.nodes_[node_id].event.cost = clipped;

    if (source.type != EventType::Wait)
        return node_id;

    const std::uint32_t unwait_index = sindex.pairedUnwait[index];
    if (unwait_index == kInvalidIndex) {
        // Truncated trace: the wait was restored to the stream's end
        // (already folded into effectiveEnd); leave it childless.
        graph.nodes_[node_id].truncated = true;
        return node_id;
    }

    graph.nodes_[node_id].unwaitStack = columns.stacks()[unwait_index];

    if (depth >= options_.maxDepth) {
        graph.nodes_[node_id].truncated = true;
        return node_id;
    }

    // Children: the readying thread's events whose intervals overlap
    // the *clipped* wait window [clip_lo, clip_hi] — including waits
    // that began earlier but resolved inside it (lock-queue chains).
    // Unwait events carry no cost and are folded into their wait node,
    // so they are not materialized as children.
    if (clip_hi <= clip_lo)
        return node_id;
    const std::uint32_t slot = sindex.slotOfEvent[unwait_index];
    const std::uint32_t t_begin = sindex.threadOffset[slot];
    const std::uint32_t t_end = sindex.threadOffset[slot + 1];

    const auto ts_begin = sindex.threadEventTs.begin() + t_begin;
    const auto ts_end = sindex.threadEventTs.begin() + t_end;
    const auto lb = static_cast<std::uint32_t>(
        std::lower_bound(ts_begin, ts_end, clip_lo) -
        sindex.threadEventTs.begin());

    // Candidate child events, collected into the DFS scratch stack
    // (mark/restore keeps this allocation-free across the recursion).
    // The segment must be re-indexed through the vector on every use:
    // recursive expansion below pushes and pops its own segments and
    // may reallocate the storage.
    const std::size_t cand_mark = scratch.candidates.size();

    // Backward: events starting before the window whose effective end
    // reaches into it. The prefix maximum bounds the scan. Skipped
    // entirely under containment-only semantics (ablation).
    if (!options_.containmentOnly) {
        for (std::uint32_t k = lb; k-- > t_begin;) {
            if (sindex.prefixMaxEnd[k] < clip_lo)
                break;
            if (sindex.threadEventEnd[k] > clip_lo)
                scratch.candidates.push_back(sindex.threadEvents[k]);
        }
        std::reverse(scratch.candidates.begin() + cand_mark,
                     scratch.candidates.end());
    }

    // Forward: events starting inside the window.
    for (std::uint32_t k = lb; k < t_end; ++k) {
        if (sindex.threadEventTs[k] > clip_hi)
            break;
        scratch.candidates.push_back(sindex.threadEvents[k]);
    }

    const std::size_t cand_end = scratch.candidates.size();
    const std::size_t child_mark = scratch.childIds.size();
    const auto types = columns.types();
    for (std::size_t c = cand_mark; c < cand_end; ++c) {
        const std::uint32_t child_index = scratch.candidates[c];
        if (types[child_index] == EventType::Unwait)
            continue;
        if (scratch.visited(child_index))
            continue;
        const std::uint32_t child_id =
            expand(graph, sindex, stream_id, columns, child_index,
                   depth + 1, clip_lo, clip_hi, scratch);
        if (child_id == kInvalidIndex) {
            graph.nodes_[node_id].truncated = true;
            continue;
        }
        scratch.childIds.push_back(child_id);
    }

    // Commit this node's finished child segment to the edge arena and
    // release the scratch segments.
    const std::size_t child_count = scratch.childIds.size() - child_mark;
    graph.nodes_[node_id].childBegin =
        static_cast<std::uint32_t>(graph.child_arena_.size());
    graph.nodes_[node_id].childCount =
        static_cast<std::uint32_t>(child_count);
    graph.child_arena_.insert(graph.child_arena_.end(),
                              scratch.childIds.begin() + child_mark,
                              scratch.childIds.end());
    scratch.childIds.resize(child_mark);
    scratch.candidates.resize(cand_mark);

    return node_id;
}

WaitGraphBuilder::BuildScratch &
WaitGraphBuilder::threadScratch()
{
    thread_local BuildScratch scratch;
    return scratch;
}

WaitGraph
WaitGraphBuilder::build(const ScenarioInstance &instance) const
{
    const StreamIndex &sindex = streamIndex(instance.stream);
    const EventColumns &columns =
        corpus_.stream(instance.stream).columns();

    WaitGraph graph;
    graph.instance_ = instance;

    const std::uint32_t slot = sindex.slotOf(instance.tid);
    if (slot == kInvalidIndex)
        return graph; // initiating thread recorded no events

    BuildScratch &scratch = threadScratch();
    scratch.beginBuild(columns.size());
    graph.nodes_.reserve(scratch.nodeHint);
    graph.child_arena_.reserve(scratch.arenaHint);

    const std::uint32_t t_begin = sindex.threadOffset[slot];
    const std::uint32_t t_end = sindex.threadOffset[slot + 1];
    const auto ts_begin = sindex.threadEventTs.begin() + t_begin;
    const auto ts_end = sindex.threadEventTs.begin() + t_end;
    const auto lb = static_cast<std::uint32_t>(
        std::lower_bound(ts_begin, ts_end, instance.t0) -
        sindex.threadEventTs.begin());

    const auto types = columns.types();
    for (std::uint32_t k = lb; k < t_end; ++k) {
        if (sindex.threadEventTs[k] >= instance.t1)
            break;
        const std::uint32_t ei = sindex.threadEvents[k];
        if (types[ei] == EventType::Unwait)
            continue; // signals carry no cost of their own
        if (scratch.visited(ei))
            continue;
        const std::uint32_t root = expand(
            graph, sindex, instance.stream, columns, ei, 0,
            std::numeric_limits<TimeNs>::min(),
            std::numeric_limits<TimeNs>::max(), scratch);
        if (root != kInvalidIndex)
            graph.roots_.push_back(root);
    }
    scratch.nodeHint = std::max(scratch.nodeHint, graph.nodes_.size());
    scratch.arenaHint =
        std::max(scratch.arenaHint, graph.child_arena_.size());
    return graph;
}

std::vector<WaitGraph>
WaitGraphBuilder::buildAll() const
{
    std::vector<WaitGraph> graphs;
    graphs.reserve(corpus_.instances().size());
    for (const ScenarioInstance &instance : corpus_.instances())
        graphs.push_back(build(instance));
    return graphs;
}

std::vector<WaitGraph>
WaitGraphBuilder::buildAllParallel(unsigned threads) const
{
    return buildRangeParallel(
        0, static_cast<std::uint32_t>(corpus_.instances().size()),
        threads);
}

std::vector<WaitGraph>
WaitGraphBuilder::buildRangeParallel(std::uint32_t first,
                                     std::uint32_t count,
                                     unsigned threads) const
{
    const auto &instances = corpus_.instances();
    TL_ASSERT(first + count <= instances.size(),
              "instance range out of bounds");

    Span span("waitgraph.build-range", "analysis");
    if (span.active()) {
        span.arg("first", static_cast<std::uint64_t>(first));
        span.arg("count", static_cast<std::uint64_t>(count));
    }

    if (threads <= 1 || count < 2) {
        std::vector<WaitGraph> graphs;
        graphs.reserve(count);
        for (std::uint32_t i = first; i < first + count; ++i)
            graphs.push_back(build(instances[i]));
        return graphs;
    }

    // Build the missing per-stream indices across the workers, then
    // insert them on this thread: the cache is not safe for concurrent
    // insertion, but concurrent reads of a complete cache are.
    std::vector<std::uint32_t> missing;
    for (std::uint32_t i = first; i < first + count; ++i)
        if (!cache_.contains(instances[i].stream))
            missing.push_back(instances[i].stream);
    std::sort(missing.begin(), missing.end());
    missing.erase(std::unique(missing.begin(), missing.end()),
                  missing.end());
    std::vector<StreamIndex> indices = parallelMap<StreamIndex>(
        threads, missing.size(),
        [&](std::size_t i) { return indexStream(missing[i]); });
    for (std::size_t i = 0; i < missing.size(); ++i)
        cache_.emplace(missing[i], std::move(indices[i]));

    std::vector<WaitGraph> graphs(count);
    tracelens::parallelFor(threads, 0, count, [&](std::size_t i) {
        graphs[i] = build(instances[first + i]);
    });
    return graphs;
}

} // namespace tracelens
