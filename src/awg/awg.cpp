/**
 * @file
 * AWG construction: Algorithm 1's per-graph summaries (steps 1-2),
 * their trie fold, and the non-optimizable reduction, with
 * instance-sharded parallel summarizing.
 */

#include "src/awg/awg.h"

#include <algorithm>
#include <sstream>

#include "src/core/partial.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/telemetry.h"

namespace tracelens
{

std::string_view
awgStatusName(AwgStatus status)
{
    switch (status) {
      case AwgStatus::Waiting:
        return "waiting";
      case AwgStatus::Running:
        return "running";
      case AwgStatus::Hardware:
        return "hardware";
    }
    TL_PANIC("bad AWG status ", static_cast<int>(status));
}

const AggregatedWaitGraph::Node &
AggregatedWaitGraph::node(std::uint32_t index) const
{
    TL_ASSERT(index < nodes_.size(), "bad AWG node ", index);
    return nodes_[index];
}

DurationNs
AggregatedWaitGraph::totalRootCost() const
{
    DurationNs total = 0;
    for (std::uint32_t root : roots_)
        total += nodes_[root].cost;
    return total;
}

namespace
{

std::string
frameLabel(const SymbolTable &symbols, FrameId frame)
{
    return frame == kNoFrame ? "<other>" : symbols.frameName(frame);
}

std::string
nodeLabel(const SymbolTable &symbols,
          const AggregatedWaitGraph::Node &node)
{
    std::ostringstream oss;
    switch (node.key.status) {
      case AwgStatus::Waiting:
        oss << frameLabel(symbols, node.key.primary) << " -> "
            << frameLabel(symbols, node.key.secondary);
        break;
      case AwgStatus::Running:
      case AwgStatus::Hardware:
        oss << frameLabel(symbols, node.key.primary);
        break;
    }
    oss << " [" << awgStatusName(node.key.status)
        << " C=" << toMs(node.cost) << "ms N=" << node.count << "]";
    return oss.str();
}

} // namespace

std::string
AggregatedWaitGraph::renderText(const SymbolTable &symbols,
                                std::size_t max_nodes) const
{
    std::ostringstream oss;
    std::size_t emitted = 0;

    // Children sorted by aggregated cost, heaviest first.
    auto sortedByCost = [&](std::vector<std::uint32_t> ids) {
        std::sort(ids.begin(), ids.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return nodes_[a].cost > nodes_[b].cost;
                  });
        return ids;
    };

    struct Frame
    {
        std::uint32_t node;
        std::size_t depth;
    };
    std::vector<Frame> stack;
    for (std::uint32_t root : sortedByCost(roots_))
        stack.push_back({root, 0});
    std::reverse(stack.begin(), stack.end());

    while (!stack.empty()) {
        const auto [id, depth] = stack.back();
        stack.pop_back();
        if (emitted++ >= max_nodes) {
            oss << "...\n";
            break;
        }
        const Node &n = nodes_[id];
        oss << std::string(depth * 2, ' ') << nodeLabel(symbols, n)
            << "\n";
        auto kids = sortedByCost(n.children);
        std::reverse(kids.begin(), kids.end());
        for (std::uint32_t child : kids)
            stack.push_back({child, depth + 1});
    }
    return oss.str();
}

std::string
AggregatedWaitGraph::renderDot(const SymbolTable &symbols,
                               std::size_t max_nodes) const
{
    std::ostringstream oss;
    oss << "digraph awg {\n  rankdir=TB;\n  node [shape=box];\n";
    std::size_t emitted = 0;
    std::vector<std::uint32_t> stack(roots_.rbegin(), roots_.rend());
    std::vector<char> visited(nodes_.size(), 0);
    while (!stack.empty() && emitted < max_nodes) {
        const std::uint32_t id = stack.back();
        stack.pop_back();
        if (visited[id])
            continue;
        visited[id] = 1;
        ++emitted;
        oss << "  n" << id << " [label=\"" << nodeLabel(symbols,
                                                        nodes_[id])
            << "\"];\n";
        for (std::uint32_t child : nodes_[id].children) {
            oss << "  n" << id << " -> n" << child << ";\n";
            stack.push_back(child);
        }
    }
    oss << "}\n";
    return oss.str();
}

AwgBuilder::AwgBuilder(const TraceCorpus &corpus, NameFilter components,
                       AwgOptions options)
    : corpus_(corpus), components_(std::move(components)),
      options_(options),
      matches_(corpus_.symbols().primeFilter(components_))
{
}

FrameId
AwgBuilder::signatureOf(CallstackId stack) const
{
    if (stack == kNoCallstack)
        return kNoFrame;
    return corpus_.symbols().topMatchingFrame(stack, matches_);
}

FrameId
AwgBuilder::hardwareSignatureOf(CallstackId stack) const
{
    if (stack == kNoCallstack)
        return kNoFrame;
    const auto frames = corpus_.symbols().stackFrames(stack);
    return frames.empty() ? kNoFrame : frames.back();
}

void
AwgBuilder::process(const WaitGraph &graph, std::uint32_t node_index,
                    std::uint32_t parent, AwgFragment &out) const
{
    const WaitGraph::Node &source = graph.node(node_index);
    const Event &e = source.event;
    auto append = [&](AwgKey key) {
        out.nodes.push_back({parent, key, e.cost});
        return static_cast<std::uint32_t>(out.nodes.size() - 1);
    };

    switch (e.type) {
      case EventType::Wait: {
        const FrameId wsig = signatureOf(e.stack);
        const FrameId usig = signatureOf(source.unwaitStack);

        const bool relevant = wsig != kNoFrame || usig != kNoFrame;
        if (!relevant && options_.eliminateInnerIrrelevant) {
            // Promote children in place of the irrelevant wait.
            for (std::uint32_t child : graph.children(source))
                process(graph, child, parent, out);
            return;
        }

        const std::uint32_t id = append({AwgStatus::Waiting, wsig, usig});
        for (std::uint32_t child : graph.children(source))
            process(graph, child, id, out);
        return;
      }
      case EventType::Running: {
        const FrameId sig = signatureOf(e.stack);
        if (sig == kNoFrame && options_.eliminateInnerIrrelevant)
            return;
        append({AwgStatus::Running, sig, kNoFrame});
        return;
      }
      case EventType::HardwareService: {
        const FrameId sig = hardwareSignatureOf(e.stack);
        if (sig == kNoFrame)
            return;
        append({AwgStatus::Hardware, sig, kNoFrame});
        return;
      }
      case EventType::Unwait:
        // Paired unwaits were merged into their wait node; stray unwait
        // children are instantaneous and carry no cost — dropped.
        return;
    }
    TL_PANIC("bad event type in wait graph");
}

AwgFragment
AwgBuilder::summarize(const WaitGraph &graph) const
{
    // Steps 1-2: eliminate irrelevant nodes (always at the roots,
    // recursively when configured) and merge wait/unwait pairs.
    AwgFragment processed;
    for (std::uint32_t root : graph.roots())
        process(graph, root, kInvalidIndex, processed);
    if (options_.eliminateInnerIrrelevant)
        return processed;

    // Root-level elimination is unconditional in Algorithm 1: promote
    // children level by level until all roots are relevant, then lay
    // the kept subtrees out again in that root order. A preorder
    // subtree is the contiguous range [i, end[i]).
    const std::vector<AwgFragment::Node> &nodes = processed.nodes;
    const auto count = static_cast<std::uint32_t>(nodes.size());
    std::vector<std::uint32_t> end(count);
    for (std::uint32_t i = count; i-- > 0;) {
        end[i] = std::max(end[i], i + 1);
        if (nodes[i].parent != kInvalidIndex)
            end[nodes[i].parent] = std::max(end[nodes[i].parent], end[i]);
    }
    std::vector<std::uint32_t> queue;
    for (std::uint32_t i = 0; i < count; i = end[i])
        queue.push_back(i);
    std::vector<std::uint32_t> relevant_roots;
    while (!queue.empty()) {
        std::vector<std::uint32_t> next;
        for (std::uint32_t i : queue) {
            const AwgKey &key = nodes[i].key;
            if (key.primary != kNoFrame || key.secondary != kNoFrame) {
                relevant_roots.push_back(i);
            } else {
                for (std::uint32_t c = i + 1; c < end[i]; c = end[c])
                    next.push_back(c);
            }
        }
        queue = std::move(next);
    }

    AwgFragment fragment;
    for (std::uint32_t root : relevant_roots) {
        const auto base = static_cast<std::uint32_t>(fragment.nodes.size());
        for (std::uint32_t i = root; i < end[root]; ++i) {
            AwgFragment::Node node = nodes[i];
            node.parent =
                i == root ? kInvalidIndex : base + (node.parent - root);
            fragment.nodes.push_back(node);
        }
    }
    return fragment;
}

PartialAwg
AwgBuilder::aggregatePartial(std::span<const WaitGraph> graphs,
                             unsigned threads) const
{
    Span span("awg.aggregate", "analysis");
    if (span.active())
        span.arg("graphs", static_cast<std::uint64_t>(graphs.size()));

    // Summarize every graph (the expensive phase: it walks every
    // wait-graph node and resolves signatures), sharded over the
    // workers, then fold the fragments into the trie serially in graph
    // order (step 3) — node creation order, child order, and therefore
    // the whole AWG are bit-identical to the serial path.
    PartialAwg partial;
    if (resolveThreads(threads) <= 1 || graphs.size() < 2) {
        for (const WaitGraph &graph : graphs)
            partial.absorb(summarize(graph));
        return partial;
    }
    const std::vector<AwgFragment> fragments = parallelMap<AwgFragment>(
        threads, graphs.size(),
        [&](std::size_t i) { return summarize(graphs[i]); });
    for (const AwgFragment &fragment : fragments)
        partial.absorb(fragment);
    return partial;
}

AggregatedWaitGraph
AwgBuilder::aggregate(std::span<const WaitGraph> graphs,
                      unsigned threads) const
{
    // Step 4 (the non-optimizable reduction) happens in finalize().
    return aggregatePartial(graphs, threads)
        .finalize(options_.reduceNonOptimizable);
}

} // namespace tracelens
