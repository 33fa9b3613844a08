/**
 * @file
 * Aggregated Wait Graphs (paper Definitions 2-3 and Algorithm 1).
 *
 * An AWG abstracts and aggregates the runtime behaviour of a *set* of
 * Wait Graphs belonging to one class of scenario instances. It is a
 * forest whose inner nodes are *waiting* nodes (merged wait/unwait event
 * pairs) and whose leaves are *running* or *hardware-service* nodes.
 * Each node carries a signature, an aggregated duration v.C, and an
 * occurrence counter v.N.
 *
 * The *signature* of an event is the topmost frame of its callstack that
 * belongs to one of the chosen components ({C}); events whose stacks
 * contain no component frame get the reserved signature kNoFrame,
 * rendered as "<other>". Hardware-service nodes carry their dummy
 * signature (the top stack frame, e.g. "DiskService").
 *
 * Aggregation follows Algorithm 1:
 *   1. eliminate component-irrelevant nodes, promoting children (the
 *     paper applies this at the roots; we apply the same rule
 *     recursively so inner kernel-only hops collapse as well, keeping
 *     patterns focused on component behaviour),
 *   2. merge paired wait/unwait nodes into waiting nodes,
 *   3. merge the processed trees into the AWG trie by common signature
 *     prefix,
 *   4. reduce non-optimizable portions: prune root waiting nodes whose
 *     sole child is a single hardware-service leaf (hardware time that
 *     did not propagate anywhere is not actionable). The pruned cost is
 *     retained in statistics so reports can quote the non-optimizable
 *     share.
 *
 * Steps 1-2 see one wait graph at a time and do not depend on the
 * thresholds that pick the class, so they split off at the instance
 * boundary: AwgBuilder::summarize() turns one wait graph into a flat
 * AwgFragment, PartialAwg::absorb() folds fragments into the trie
 * (step 3), and PartialAwg::finalize() applies step 4. The Analyzer
 * keeps each instance's fragment, so a query at new thresholds only
 * folds its class members' fragments.
 */

#ifndef TRACELENS_AWG_AWG_H
#define TRACELENS_AWG_AWG_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/trace/stream.h"
#include "src/util/wildcard.h"
#include "src/waitgraph/waitgraph.h"

namespace tracelens
{

class PartialAwg; // src/core/partial.h

/** Node status in an Aggregated Wait Graph (Definition 2). */
enum class AwgStatus : std::uint8_t
{
    Waiting = 0,
    Running = 1,
    Hardware = 2,
};

/** Human-readable status name. */
std::string_view awgStatusName(AwgStatus status);

/**
 * Aggregation key of an AWG node: its status plus its signature(s).
 * Waiting nodes carry the (wait, unwait) signature pair; running and
 * hardware nodes use only @c primary.
 */
struct AwgKey
{
    AwgStatus status = AwgStatus::Running;
    FrameId primary = kNoFrame;   //!< v.w / v.r / v.h
    FrameId secondary = kNoFrame; //!< v.u (waiting nodes only)

    friend bool
    operator==(const AwgKey &a, const AwgKey &b)
    {
        return a.status == b.status && a.primary == b.primary &&
               a.secondary == b.secondary;
    }
};

/** Hash functor for AwgKey. */
struct AwgKeyHash
{
    std::size_t
    operator()(const AwgKey &k) const
    {
        std::size_t h = static_cast<std::size_t>(k.status);
        h = h * 0x9e3779b97f4a7c15ULL + k.primary;
        h = h * 0x9e3779b97f4a7c15ULL + k.secondary;
        return h;
    }
};

/**
 * An Aggregated Wait Graph: trie-shaped forest of aggregated nodes.
 */
class AggregatedWaitGraph
{
  public:
    /** One aggregated node (Definition 3). */
    struct Node
    {
        AwgKey key;
        DurationNs cost = 0;      //!< v.C: summed duration.
        std::uint64_t count = 0;  //!< v.N: number of merged source nodes.
        DurationNs maxCost = 0;   //!< Largest single source duration.
        std::vector<std::uint32_t> children;
    };

    const std::vector<Node> &nodes() const { return nodes_; }
    const std::vector<std::uint32_t> &roots() const { return roots_; }
    const Node &node(std::uint32_t index) const;
    bool empty() const { return roots_.empty(); }

    /** Cost removed by the non-optimizable reduction (step 4). */
    DurationNs reducedCost() const { return reducedCost_; }
    /** Nodes removed by the reduction. */
    std::uint64_t reducedNodes() const { return reducedNodes_; }
    /** Total cost of all root nodes after reduction. */
    DurationNs totalRootCost() const;
    /** Number of wait graphs aggregated. */
    std::size_t sourceGraphs() const { return sourceGraphs_; }

    /** Render the forest as an indented text tree (for Figure 2). */
    std::string renderText(const SymbolTable &symbols,
                           std::size_t max_nodes = 200) const;

    /** Render the forest in Graphviz DOT syntax. */
    std::string renderDot(const SymbolTable &symbols,
                          std::size_t max_nodes = 500) const;

  private:
    friend class AwgBuilder;
    /** The trie-under-construction accumulator (src/core/partial.h). */
    friend class PartialAwg;

    std::vector<Node> nodes_;
    std::vector<std::uint32_t> roots_;
    DurationNs reducedCost_ = 0;
    std::uint64_t reducedNodes_ = 0;
    std::size_t sourceGraphs_ = 0;
};

/**
 * One wait graph after steps 1-2 of Algorithm 1: the processed forest,
 * flattened in preorder. Every node names its parent by index (a
 * parent precedes its children; kInvalidIndex marks a root), so
 * PartialAwg::absorb() replays the fragment into the trie in one
 * forward pass, in the order a depth-first merge would visit it.
 */
struct AwgFragment
{
    struct Node
    {
        std::uint32_t parent = kInvalidIndex;
        AwgKey key;
        DurationNs cost = 0;
    };

    std::vector<Node> nodes;
};

/** Options controlling AWG construction. */
struct AwgOptions
{
    /**
     * When true (default), the component-irrelevant elimination of
     * Algorithm 1 is applied recursively to inner nodes, not only to
     * roots. The ablation bench flips this off.
     */
    bool eliminateInnerIrrelevant = true;

    /** When false, skip the non-optimizable reduction (ablation). */
    bool reduceNonOptimizable = true;
};

/**
 * Builds Aggregated Wait Graphs from sets of Wait Graphs (Algorithm 1).
 */
class AwgBuilder
{
  public:
    AwgBuilder(const TraceCorpus &corpus, NameFilter components,
               AwgOptions options = {});

    /**
     * Aggregate @p graphs into one AWG.
     *
     * @param threads Worker count for summarize() (0 = all hardware
     *        threads, 1 = serial). Steps 1-2 of Algorithm 1 run per
     *        graph and are sharded over instance partitions; the trie
     *        merge (step 3) is associative but order-sensitive in node
     *        layout, so the fragments fold serially in graph order
     *        through a PartialAwg accumulator (src/core/partial.h).
     *        The result is bit-identical to the serial path for every
     *        thread count.
     */
    AggregatedWaitGraph aggregate(std::span<const WaitGraph> graphs,
                                  unsigned threads = 1) const;

    /**
     * aggregate() without the finalize: the still-mergeable,
     * unreduced trie. Shard fragments produced this way merge (in
     * shard order) into exactly the trie aggregate() would build over
     * the concatenated graphs; the non-optimizable reduction is then
     * applied once by PartialAwg::finalize().
     */
    PartialAwg aggregatePartial(std::span<const WaitGraph> graphs,
                                unsigned threads = 1) const;

    /**
     * Steps 1-2 of Algorithm 1 for one graph: eliminate irrelevant
     * nodes (roots always; inner nodes when configured) and merge
     * wait/unwait pairs. The fragment depends only on the graph, the
     * component filter and the options, so callers may keep it and
     * fold it into any number of classes. Thread-safe once the
     * component filter is primed (done in the constructor).
     */
    AwgFragment summarize(const WaitGraph &graph) const;

    const NameFilter &components() const { return components_; }

  private:
    /** Signature of a callstack: topmost component frame or kNoFrame. */
    FrameId signatureOf(CallstackId stack) const;

    /** Dummy signature of a hardware event: its topmost frame. */
    FrameId hardwareSignatureOf(CallstackId stack) const;

    /**
     * Append one wait-graph subtree in processed form (steps 1-2) to
     * @p out under fragment node @p parent: zero, one, or many nodes
     * at that level after irrelevant-node promotion.
     */
    void process(const WaitGraph &graph, std::uint32_t node_index,
                 std::uint32_t parent, AwgFragment &out) const;

    const TraceCorpus &corpus_;
    NameFilter components_;
    AwgOptions options_;
};

} // namespace tracelens

#endif // TRACELENS_AWG_AWG_H
