/**
 * @file
 * Wait Graphs (paper Definition 1, Section 3.1).
 *
 * A Wait Graph models one scenario instance. Nodes are tracing events;
 * a directed edge e_i -> e_j exists when e_i is a wait event and e_j was
 * triggered by another thread during e_i's wait interval — specifically
 * by the thread that eventually unwaited e_i (the "readying" thread),
 * following the StackMine construction the paper builds on.
 *
 * Construction:
 *  1. pair each wait event with its corresponding unwait event (FIFO per
 *     waiting thread, scanning the stream in time order),
 *  2. restore each wait's duration from the paired unwait's timestamp,
 *  3. roots are the initiating thread's events starting inside
 *     [t0, t1); each wait node's children are the readying thread's
 *     events whose intervals *overlap* the wait interval, expanded
 *     recursively. Overlap (not containment) matters: in a lock queue
 *     the readying thread's own wait began before the parent's wait
 *     did, yet its full duration is what propagated.
 *
 * Definition 1 makes V a *set* of events, so each event materializes
 * at most once per graph: the first wait window (in expansion order)
 * that reaches an event owns it, and later windows skip it. This keeps
 * a graph's total cost commensurate with the instance's duration even
 * when many windows overlap.
 *
 * Cost attribution is window-clipped: a node's cost is the portion of
 * its interval that overlaps the (transitively intersected) ancestor
 * wait windows — only that portion propagated to the instance. Root
 * nodes carry their full durations. Without clipping, a lock-queue
 * tail (a short parent wait whose readying thread had been waiting for
 * seconds) would attribute seconds of unrelated history to a
 * milliseconds-long wait and aggregate costs would exceed instance
 * durations.
 *
 * Storage: edges live in one per-graph arena (compressed sparse rows —
 * each node records an offset + count into a shared child-id array)
 * instead of a std::vector per node. Building a graph then performs no
 * per-node edge allocation, nodes shrink to a flat POD record, and a
 * child walk is a contiguous span read. Access children through
 * WaitGraph::children(); see docs/PERFORMANCE.md for the layout
 * rationale and measurements.
 */

#ifndef TRACELENS_WAITGRAPH_WAITGRAPH_H
#define TRACELENS_WAITGRAPH_WAITGRAPH_H

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/trace/stream.h"

namespace tracelens
{

/** Sentinel node/event index. */
inline constexpr std::uint32_t kInvalidIndex = UINT32_MAX;

/**
 * One scenario instance's wait graph. A forest: roots are the initiating
 * thread's top-level events; only wait nodes have children.
 */
class WaitGraph
{
  public:
    /** A node wrapping one tracing event. */
    struct Node
    {
        /**
         * The source event. For wait nodes, cost holds the *restored*
         * duration (unwait timestamp minus wait timestamp).
         */
        Event event;
        /** Corpus-wide identity of the source event. */
        EventRef ref;
        /**
         * Child segment in the graph's edge arena (only wait nodes
         * have children) — read it via WaitGraph::children().
         */
        std::uint32_t childBegin = 0;
        std::uint32_t childCount = 0;
        /**
         * For a paired wait node: the callstack of the unwait event
         * that ended the wait (the signalling context). kNoCallstack
         * for unpaired waits and all non-wait nodes. The unwait event
         * itself is folded into the wait node rather than duplicated
         * as a child (Definition 1's node set is a *set* of events;
         * unwaits carry no cost of their own).
         */
        CallstackId unwaitStack = kNoCallstack;
        /** Depth of recursion truncation: true if children were cut. */
        bool truncated = false;

        /** True when the wait was ended by a recorded unwait. */
        bool paired() const { return unwaitStack != kNoCallstack; }
    };

    const std::vector<Node> &nodes() const { return nodes_; }
    const std::vector<std::uint32_t> &roots() const { return roots_; }
    const Node &node(std::uint32_t index) const;
    const ScenarioInstance &instance() const { return instance_; }

    /** Children of node @p index, as node ids in the edge arena. */
    std::span<const std::uint32_t>
    children(std::uint32_t index) const
    {
        return children(node(index));
    }

    /** Children of @p n (must belong to this graph). */
    std::span<const std::uint32_t>
    children(const Node &n) const
    {
        return std::span<const std::uint32_t>(child_arena_)
            .subspan(n.childBegin, n.childCount);
    }

    /** Sum of root-event costs: the instance's top-level time period. */
    DurationNs topLevelDuration() const;

    bool empty() const { return nodes_.empty(); }
    std::size_t size() const { return nodes_.size(); }

    /**
     * Render the forest as an indented text tree: event type, thread,
     * cost, and the topmost component signature (or topmost frame when
     * no component matches).
     */
    std::string renderText(const SymbolTable &symbols,
                           const NameFilter &components,
                           std::size_t max_nodes = 200) const;

  private:
    friend class WaitGraphBuilder;

    std::vector<Node> nodes_;
    /** Edge arena: every node's children, as CSR segments. */
    std::vector<std::uint32_t> child_arena_;
    std::vector<std::uint32_t> roots_;
    ScenarioInstance instance_;
};

/** Construction limits and semantics knobs. */
struct WaitGraphOptions
{
    /** Maximum wait-nesting depth expanded. */
    std::uint32_t maxDepth = 64;
    /** Maximum nodes per graph. */
    std::uint32_t maxNodes = 1u << 20;
    /**
     * When true, only events *starting* inside a wait window become
     * children (the literal reading of Definition 1). Default false:
     * events whose intervals overlap the window are included, which is
     * what keeps lock-queue chains connected (DESIGN.md decision 2).
     * Exposed for the ablation bench.
     */
    bool containmentOnly = false;
    /**
     * When true (default), node costs are clipped to the intersected
     * ancestor windows (DESIGN.md decision 3). When false, nodes carry
     * their full restored durations — the ablation shows aggregate
     * costs then exceed instance durations by orders of magnitude.
     */
    bool clipToWindows = true;
};

/**
 * Builds Wait Graphs for scenario instances of a corpus. Per-stream
 * indices (wait/unwait pairing, per-thread event lists) are computed
 * lazily and cached, so building graphs for many instances of the same
 * stream is cheap.
 *
 * The per-stream index is itself columnar: wait pairing and effective
 * ends come from the pairWaitsFifo/computeEffectiveEnds sweeps, and the
 * per-thread event lists are one CSR over the tid column (with the
 * thread events' timestamps, effective ends, and running end maxima
 * gathered into index-aligned arrays) rather than a hash map of
 * per-thread vectors. Window scans during expansion binary-search and
 * sweep those contiguous arrays directly.
 */
class WaitGraphBuilder
{
  public:
    explicit WaitGraphBuilder(const TraceCorpus &corpus,
                              WaitGraphOptions options = {});

    /** Build the wait graph of one scenario instance. */
    WaitGraph build(const ScenarioInstance &instance) const;

    /** Build graphs for every instance of the corpus, in order. */
    std::vector<WaitGraph> buildAll() const;

    /**
     * buildAll() across @p threads worker threads. The missing
     * per-stream indices are built across the workers first, then
     * instances are partitioned; the result is identical (and
     * bit-deterministic) regardless of thread count. Falls back to the
     * serial path for threads <= 1.
     */
    std::vector<WaitGraph> buildAllParallel(unsigned threads) const;

    /**
     * Build graphs for the contiguous instance range
     * [@p first, @p first + @p count), in instance order, across
     * @p threads workers (serial for threads <= 1). The unit of work
     * of the incremental pipeline: one shard's instances form one such
     * range, and the result is bit-identical to the corresponding
     * slice of buildAllParallel().
     */
    std::vector<WaitGraph> buildRangeParallel(std::uint32_t first,
                                              std::uint32_t count,
                                              unsigned threads) const;

  private:
    struct StreamIndex
    {
        /** For each event: paired unwait event index, or kInvalidIndex. */
        std::vector<std::uint32_t> pairedUnwait;
        /**
         * For each event: its effective end time — restored from the
         * paired unwait for waits (stream end when unpaired), and
         * timestamp + cost otherwise.
         */
        std::vector<TimeNs> effectiveEnd;

        /**
         * @name Per-thread CSR
         * Event indices grouped by thread, each group in time order;
         * thread @c s owns threadEvents[threadOffset[s] ..
         * threadOffset[s+1]). The timestamps, effective ends, and
         * prefix end-maxima of those events are gathered into arrays
         * aligned with threadEvents so the expansion's window scans
         * never chase an indirection. Thread slots come from the
         * ThreadSlotMap (one O(1) probe per by-value lookup), and
         * slotOfEvent caches each event's own slot so the expansion
         * resolves a readying thread without any lookup at all.
         */
        ///@{
        ThreadSlotMap threadSlots;
        std::vector<std::uint32_t> slotOfEvent;
        std::vector<std::uint32_t> threadOffset;
        std::vector<std::uint32_t> threadEvents;
        std::vector<TimeNs> threadEventTs;
        std::vector<TimeNs> threadEventEnd;
        /** Running max of threadEventEnd within each thread's group. */
        std::vector<TimeNs> prefixMaxEnd;
        ///@}

        /** Slot of @p tid, or kInvalidIndex. */
        std::uint32_t slotOf(ThreadId tid) const
        {
            return threadSlots.slotOf(tid);
        }
    };

    /**
     * Per-build scratch, reused across builds on the same worker
     * thread: the visited set is epoch-stamped (one fill amortized
     * over ~4 billion builds instead of one allocation per build), and
     * the DFS candidate/child stacks grow and shrink by mark/restore
     * during recursive expansion so collecting a wait's children never
     * allocates in steady state.
     */
    struct BuildScratch
    {
        std::vector<std::uint32_t> visitedStamp;
        std::uint32_t epoch = 0;
        /** Candidate child events of the waits on the DFS path. */
        std::vector<std::uint32_t> candidates;
        /** Expanded child node ids awaiting arena commit. */
        std::vector<std::uint32_t> childIds;
        /**
         * Size of the largest node list / edge arena built so far on
         * this thread — used to pre-reserve the next graph's storage
         * (nodes are trivially copyable, but skipping the doubling
         * growth chain still saves a full copy of every graph).
         * Capacity only; results are unaffected.
         */
        std::size_t nodeHint = 0;
        std::size_t arenaHint = 0;

        /** Start a build over a stream of @p events events. */
        void beginBuild(std::size_t events);
        bool visited(std::uint32_t i) const
        {
            return visitedStamp[i] == epoch;
        }
        void mark(std::uint32_t i) { visitedStamp[i] = epoch; }
    };

    /**
     * This worker thread's scratch. Safe because one thread never
     * interleaves two builds and the scratch escapes no deeper than
     * the expand() recursion.
     */
    static BuildScratch &threadScratch();

    /** The cached index of @p stream, built on first use. */
    const StreamIndex &streamIndex(std::uint32_t stream) const;
    /** Build @p stream's index (touches no shared state). */
    StreamIndex indexStream(std::uint32_t stream) const;

    /**
     * Append the node for event @p index (recursively expanding waits)
     * and return its node id, or kInvalidIndex if limits were hit.
     *
     * @param win_lo,win_hi The ancestor wait window this event is
     *        attributed through (the full time axis for roots); the
     *        node's cost and its own child window are clipped to it.
     */
    std::uint32_t expand(WaitGraph &graph, const StreamIndex &sindex,
                         std::uint32_t stream_id,
                         const EventColumns &columns,
                         std::uint32_t index, std::uint32_t depth,
                         TimeNs win_lo, TimeNs win_hi,
                         BuildScratch &scratch) const;

    const TraceCorpus &corpus_;
    WaitGraphOptions options_;
    mutable std::unordered_map<std::uint32_t, StreamIndex> cache_;
};

} // namespace tracelens

#endif // TRACELENS_WAITGRAPH_WAITGRAPH_H
