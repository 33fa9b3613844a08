/**
 * @file
 * Contrast-pattern mining over the class columns of a path trie:
 * meta-pattern tallies by tuple id, contrast discovery, and full-path
 * extraction with a strict total ranking order.
 */

#include "src/mining/miner.h"

#include <algorithm>
#include <sstream>

#include "src/util/logging.h"
#include "src/util/telemetry.h"

namespace tracelens
{

double
ContrastPattern::impact() const
{
    return count == 0 ? 0.0
                      : static_cast<double>(cost) /
                            static_cast<double>(count);
}

std::string
MiningStats::render() const
{
    std::ostringstream oss;
    oss << "metas(fast)=" << fastMetaPatterns
        << " metas(slow)=" << slowMetaPatterns
        << " contrasts(slow-only)=" << slowOnlyContrasts
        << " contrasts(ratio)=" << ratioContrasts
        << " fullPaths=" << fullPaths
        << " selectedPaths=" << selectedPaths;
    return oss.str();
}

DurationNs
MiningResult::totalPatternCost() const
{
    DurationNs total = 0;
    for (const auto &p : patterns)
        total += p.cost;
    return total;
}

namespace
{

/**
 * Step 1 over one class: every segment ending at a class node is one
 * of its interned upward chains, and adds the node's (C, N) to the
 * chain's tuple. Indexed by tuple id; N == 0 means absent.
 */
std::vector<MetaPatternStats>
tallyMetas(const PathTrie &trie, const AwgColumn &column)
{
    std::vector<MetaPatternStats> metas(trie.tupleCount());
    for (std::uint32_t v = 0; v < column.size(); ++v) {
        if (column.count[v] == 0)
            continue;
        for (std::uint32_t tuple : trie.chains(v)) {
            metas[tuple].cost += column.cost[v];
            metas[tuple].count += column.count[v];
        }
    }
    return metas;
}

std::size_t
distinctMetas(const std::vector<MetaPatternStats> &metas)
{
    return static_cast<std::size_t>(
        std::count_if(metas.begin(), metas.end(),
                      [](const MetaPatternStats &m) { return m.count > 0; }));
}

/** Deterministic ordering for ranked output. */
bool
rankBefore(const ContrastPattern &a, const ContrastPattern &b)
{
    if (a.impact() != b.impact())
        return a.impact() > b.impact();
    if (a.cost != b.cost)
        return a.cost > b.cost;
    if (a.count != b.count)
        return a.count > b.count;
    if (a.tuple.waits != b.tuple.waits)
        return a.tuple.waits < b.tuple.waits;
    if (a.tuple.unwaits != b.tuple.unwaits)
        return a.tuple.unwaits < b.tuple.unwaits;
    return a.tuple.runnings < b.tuple.runnings;
}

} // namespace

ContrastMiner::ContrastMiner(const TraceCorpus &corpus,
                             MiningOptions options)
    : corpus_(corpus), options_(options)
{
    TL_ASSERT(options_.maxSegmentLength >= 1, "k must be at least 1");
    if (options_.tFast <= 0 || options_.tSlow <= options_.tFast) {
        TL_FATAL("mining thresholds must satisfy 0 < T_fast < T_slow "
                 "(got ", options_.tFast, ", ", options_.tSlow, ")");
    }
}

std::unordered_map<SignatureSetTuple, MetaPatternStats,
                   SignatureSetTupleHash>
ContrastMiner::enumerateMetaPatterns(const AggregatedWaitGraph &awg,
                                     unsigned /*threads*/) const
{
    PathTrie trie(options_.maxSegmentLength);
    const AwgColumn column = AwgColumn::of(trie, awg);
    const std::vector<MetaPatternStats> metas = tallyMetas(trie, column);
    std::unordered_map<SignatureSetTuple, MetaPatternStats,
                       SignatureSetTupleHash>
        out;
    for (std::uint32_t t = 0; t < metas.size(); ++t)
        if (metas[t].count > 0)
            out.emplace(trie.tuple(t), metas[t]);
    return out;
}

MiningResult
ContrastMiner::mine(const AggregatedWaitGraph &fast,
                    const AggregatedWaitGraph &slow,
                    unsigned /*threads*/) const
{
    PathTrie trie(options_.maxSegmentLength);
    const AwgColumn fast_column = AwgColumn::of(trie, fast);
    const AwgColumn slow_column = AwgColumn::of(trie, slow);
    return mine(trie, fast_column, slow_column);
}

MiningResult
ContrastMiner::mine(const PathTrie &trie, const AwgColumn &fast,
                    const AwgColumn &slow) const
{
    TL_ASSERT(trie.maxSegmentLength() == options_.maxSegmentLength,
              "path trie interned for k=", trie.maxSegmentLength(),
              ", miner wants k=", options_.maxSegmentLength);
    Span span("mining.mine", "analysis");
    if (span.active()) {
        span.arg("trie_nodes", static_cast<std::uint64_t>(trie.size()));
        span.arg("tuples", static_cast<std::uint64_t>(trie.tupleCount()));
    }

    MiningResult result;

    // Step 1: meta-pattern tallies per class.
    const std::vector<MetaPatternStats> fast_metas = tallyMetas(trie, fast);
    const std::vector<MetaPatternStats> slow_metas = tallyMetas(trie, slow);
    result.stats.fastMetaPatterns = distinctMetas(fast_metas);
    result.stats.slowMetaPatterns = distinctMetas(slow_metas);

    // Step 2: contrast meta-patterns.
    std::vector<char> contrast(slow_metas.size(), 0);
    const double threshold_ratio =
        static_cast<double>(options_.tSlow) /
        static_cast<double>(options_.tFast);
    for (std::uint32_t t = 0; t < slow_metas.size(); ++t) {
        const MetaPatternStats &slow_stats = slow_metas[t];
        const MetaPatternStats &fast_stats = fast_metas[t];
        if (slow_stats.count == 0)
            continue;
        if (fast_stats.count == 0) {
            contrast[t] = 1;
            ++result.stats.slowOnlyContrasts;
            continue;
        }
        const double slow_avg = static_cast<double>(slow_stats.cost) /
                                static_cast<double>(slow_stats.count);
        if (fast_stats.cost <= 0) {
            // Zero-cost in the fast class: any slow cost is a contrast.
            if (slow_avg > 0) {
                contrast[t] = 1;
                ++result.stats.ratioContrasts;
            }
            continue;
        }
        const double fast_avg = static_cast<double>(fast_stats.cost) /
                                static_cast<double>(fast_stats.count);
        if (slow_avg / fast_avg > threshold_ratio) {
            contrast[t] = 1;
            ++result.stats.ratioContrasts;
        }
    }

    // Step 3: full paths of the slow class. A path contains a contrast
    // meta-pattern iff one of its nodes ends a contrast chain, so the
    // "selected" flag flows from each root down (parents have smaller
    // ids); each slow leaf adds to its root path's tuple.
    const std::uint32_t nodes = slow.size();
    std::vector<char> has_child(nodes, 0);
    for (std::uint32_t v = 0; v < nodes; ++v) {
        const std::uint32_t p = trie.parent(v);
        if (slow.count[v] > 0 && p != kInvalidIndex)
            has_child[p] = 1;
    }
    struct PathTally
    {
        DurationNs cost = 0;
        std::uint64_t count = 0;
        DurationNs maxExec = 0;
    };
    std::vector<PathTally> paths(trie.tupleCount());
    std::vector<char> selected(nodes, 0);
    for (std::uint32_t v = 0; v < nodes; ++v) {
        if (slow.count[v] == 0)
            continue;
        const std::uint32_t p = trie.parent(v);
        bool chosen = !options_.useMetaPatternGate ||
                      (p != kInvalidIndex && selected[p]);
        for (std::uint32_t tuple : trie.chains(v))
            chosen = chosen || contrast[tuple];
        selected[v] = chosen;
        if (has_child[v])
            continue;
        ++result.stats.fullPaths;
        if (!chosen)
            continue;
        ++result.stats.selectedPaths;
        PathTally &path = paths[trie.rootPath(v)];
        path.cost += slow.cost[v];
        path.count += slow.count[v];
        path.maxExec = std::max(path.maxExec, slow.maxCost[v]);
    }

    for (std::uint32_t t = 0; t < paths.size(); ++t) {
        if (paths[t].count == 0)
            continue;
        ContrastPattern &pattern = result.patterns.emplace_back();
        pattern.tuple = trie.tuple(t);
        pattern.cost = paths[t].cost;
        pattern.count = paths[t].count;
        pattern.maxExec = paths[t].maxExec;
    }
    std::sort(result.patterns.begin(), result.patterns.end(),
              rankBefore);
    return result;
}

} // namespace tracelens
