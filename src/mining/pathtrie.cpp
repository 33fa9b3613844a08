/**
 * @file
 * Path-trie growth with incremental tuple interning, and the class
 * columns folded over it.
 */

#include "src/mining/pathtrie.h"

#include <algorithm>

#include "src/util/logging.h"

namespace tracelens
{

namespace
{

/** Insert @p frame into the sorted, duplicate-free @p set. */
void
insertSorted(std::vector<FrameId> &set, FrameId frame)
{
    const auto at = std::lower_bound(set.begin(), set.end(), frame);
    if (at == set.end() || *at != frame)
        set.insert(at, frame);
}

} // namespace

PathTrie::PathTrie(std::uint32_t k) : k_(k)
{
    TL_ASSERT(k_ >= 1, "k must be at least 1");
    const auto [empty, inserted] =
        tupleIds_.emplace(SignatureSetTuple{}, 0u);
    tuples_.push_back(&empty->first);
}

std::uint32_t
PathTrie::extend(std::uint32_t base, const AwgKey &key)
{
    scratch_ = *tuples_[base];
    switch (key.status) {
      case AwgStatus::Waiting:
        insertSorted(scratch_.waits, key.primary);
        insertSorted(scratch_.unwaits, key.secondary);
        break;
      case AwgStatus::Running:
      case AwgStatus::Hardware:
        // Hardware dummies join the running set (Section 4.1).
        insertSorted(scratch_.runnings, key.primary);
        break;
    }
    const auto [it, inserted] = tupleIds_.emplace(scratch_, tupleCount());
    if (inserted)
        tuples_.push_back(&it->first);
    return it->second;
}

std::uint32_t
PathTrie::child(std::uint32_t parent, const AwgKey &key)
{
    const auto [it, inserted] =
        children_.emplace(ChildKey{parent, key}, size());
    if (!inserted)
        return it->second;

    const std::uint32_t id = it->second;
    const bool root = parent == kInvalidIndex;
    parents_.push_back(parent);
    keys_.push_back(key);
    chains_.resize(chains_.size() + k_, kInvalidIndex);

    // The length-L chain ending here is the parent's length-(L - 1)
    // chain plus this node's signatures.
    const std::uint32_t count =
        root ? 1 : std::min(k_, chainCounts_[parent] + 1);
    chainCounts_.push_back(count);
    const std::size_t self = std::size_t{id} * k_;
    const std::size_t above = std::size_t{parent} * k_;
    chains_[self] = extend(0, key);
    for (std::uint32_t length = 2; length <= count; ++length)
        chains_[self + length - 1] =
            extend(chains_[above + length - 2], key);

    // A root path no longer than k is already a chain.
    const bool short_path = root || chainCounts_[parent] < k_;
    rootPaths_.push_back(short_path ? chains_[self + count - 1]
                                    : extend(rootPaths_[parent], key));
    return id;
}

void
PathTrie::map(const AwgFragment &fragment, std::vector<std::uint32_t> &nodes)
{
    // A fragment node's parent precedes it, so its trie node is known
    // by the time the child arrives.
    const std::size_t base = nodes.size();
    for (const AwgFragment::Node &node : fragment.nodes) {
        const std::uint32_t parent = node.parent == kInvalidIndex
                                         ? kInvalidIndex
                                         : nodes[base + node.parent];
        nodes.push_back(child(parent, node.key));
    }
}

AwgColumn::AwgColumn(std::size_t nodes)
    : cost(nodes, 0), count(nodes, 0), maxCost(nodes, 0)
{
}

AwgColumn
AwgColumn::of(PathTrie &trie, const AggregatedWaitGraph &awg)
{
    std::vector<std::uint32_t> at(awg.nodes().size(), kInvalidIndex);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> stack; // node, parent
    for (std::uint32_t root : awg.roots())
        stack.emplace_back(root, kInvalidIndex);
    while (!stack.empty()) {
        const auto [node, parent] = stack.back();
        stack.pop_back();
        at[node] = trie.child(parent, awg.node(node).key);
        for (std::uint32_t child : awg.node(node).children)
            stack.emplace_back(child, at[node]);
    }

    AwgColumn column(trie.size());
    for (std::uint32_t i = 0; i < at.size(); ++i) {
        if (at[i] == kInvalidIndex)
            continue;
        const AggregatedWaitGraph::Node &node = awg.node(i);
        column.cost[at[i]] += node.cost;
        column.count[at[i]] += node.count;
        column.maxCost[at[i]] = std::max(column.maxCost[at[i]], node.maxCost);
    }
    column.reducedCost = awg.reducedCost();
    column.rootCost = awg.totalRootCost();
    return column;
}

void
AwgColumn::absorb(const AwgFragment &fragment,
                  std::span<const std::uint32_t> nodes)
{
    for (std::size_t j = 0; j < fragment.nodes.size(); ++j) {
        const std::uint32_t at = nodes[j];
        const DurationNs c = fragment.nodes[j].cost;
        cost[at] += c;
        count[at] += 1;
        maxCost[at] = std::max(maxCost[at], c);
    }
}

void
AwgColumn::finalize(const PathTrie &trie, bool reduce)
{
    const std::uint32_t nodes = size();
    if (reduce) {
        // Per class node: its children in the class, and, for a root,
        // how many of those are childless hardware nodes. Parents have
        // smaller ids, so one backward pass settles a node's children
        // before the node itself is read as someone's child.
        std::vector<std::uint32_t> children(nodes, 0);
        std::vector<std::uint32_t> hardware_leaves(nodes, 0);
        for (std::uint32_t v = nodes; v-- > 0;) {
            const std::uint32_t p = trie.parent(v);
            if (count[v] == 0 || p == kInvalidIndex)
                continue;
            ++children[p];
            if (trie.parent(p) == kInvalidIndex &&
                trie.key(v).status == AwgStatus::Hardware &&
                children[v] == 0)
                ++hardware_leaves[p];
        }
        std::vector<char> pruned(nodes, 0);
        for (std::uint32_t v = 0; v < nodes; ++v) {
            const std::uint32_t p = trie.parent(v);
            if (count[v] == 0)
                continue;
            if (p == kInvalidIndex) {
                if (!prunableRoot(trie.key(v), children[v],
                                  hardware_leaves[v]))
                    continue;
                reducedCost += cost[v];
            } else if (!pruned[p]) {
                continue;
            }
            // A pruned root's children are childless: the whole
            // subtree leaves the class.
            pruned[v] = 1;
            cost[v] = 0;
            count[v] = 0;
            maxCost[v] = 0;
        }
    }
    rootCost = 0;
    for (std::uint32_t v = 0; v < nodes; ++v)
        if (count[v] > 0 && trie.parent(v) == kInvalidIndex)
            rootCost += cost[v];
}

} // namespace tracelens
