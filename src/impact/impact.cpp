/**
 * @file
 * Impact-metric accumulation over Wait Graphs: per-graph scans
 * (parallelizable) feeding an order-preserving distinct-wait fold.
 */

#include "src/impact/impact.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "src/core/partial.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/table.h"
#include "src/util/telemetry.h"

namespace tracelens
{

namespace
{

double
ratio(DurationNs num, DurationNs den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

} // namespace

double
ImpactResult::iaRun() const
{
    return ratio(dRun, dScn);
}

double
ImpactResult::iaWait() const
{
    return ratio(dWait, dScn);
}

double
ImpactResult::iaOpt() const
{
    return ratio(dWait - dWaitDist, dScn);
}

double
ImpactResult::waitAmplification() const
{
    return dWaitDist == 0 ? 0.0 : ratio(dWait, dWaitDist);
}

std::string
ImpactResult::render() const
{
    std::ostringstream oss;
    oss << "instances=" << instances
        << " IA_run=" << TextTable::pct(iaRun())
        << " IA_wait=" << TextTable::pct(iaWait())
        << " IA_opt=" << TextTable::pct(iaOpt())
        << " Dwait/Dwaitdist=" << TextTable::num(waitAmplification(), 2);
    return oss.str();
}

ImpactAnalysis::ImpactAnalysis(const TraceCorpus &corpus,
                               NameFilter components)
    : corpus_(corpus), components_(std::move(components))
{
    corpus_.symbols().primeFilter(components_);
}

ImpactContribution
ImpactAnalysis::collect(const WaitGraph &graph) const
{
    const SymbolTable &sym = corpus_.symbols();
    ImpactContribution contribution;
    contribution.dScn = graph.topLevelDuration();

    // Top-level component waits: breadth-first search that stops at the
    // first matching wait on each path (children constitute time already
    // counted by their parent). Recorded in BFS order so the caller's
    // serial dedup fold reproduces the original accumulation exactly.
    std::deque<std::uint32_t> queue(graph.roots().begin(),
                                    graph.roots().end());
    while (!queue.empty()) {
        const WaitGraph::Node &node = graph.node(queue.front());
        queue.pop_front();
        const Event &e = node.event;
        if (e.type == EventType::Wait && e.stack != kNoCallstack &&
            sym.stackTouches(e.stack, components_)) {
            contribution.waitHits.emplace_back(node.ref, e.cost);
            continue; // do not descend into already-counted time
        }
        for (std::uint32_t child : graph.children(node))
            queue.push_back(child);
    }

    // Component running time: every running sample in the graph whose
    // callstack contains a chosen component, each distinct event counted
    // once per instance.
    std::unordered_set<EventRef, EventRefHash> seen_running;
    for (const WaitGraph::Node &node : graph.nodes()) {
        const Event &e = node.event;
        if (e.type != EventType::Running || e.stack == kNoCallstack)
            continue;
        if (!sym.stackTouches(e.stack, components_))
            continue;
        if (seen_running.insert(node.ref).second)
            contribution.dRun += e.cost;
    }
    return contribution;
}

ImpactResult
ImpactAnalysis::analyze(std::span<const WaitGraph> graphs,
                        unsigned threads) const
{
    Span span("impact.analyze", "analysis");
    if (span.active())
        span.arg("graphs", static_cast<std::uint64_t>(graphs.size()));

    PartialImpact partial;
    if (resolveThreads(threads) <= 1 || graphs.size() < 2) {
        for (const WaitGraph &graph : graphs)
            partial.absorbInstance(collect(graph));
        return partial.finalize();
    }

    // Parallel per-graph scans, serial in-order dedup fold: the
    // accumulator sees the same (ref, cost) sequence as the serial
    // path, so the result is bit-identical.
    const std::vector<ImpactContribution> contributions =
        parallelMap<ImpactContribution>(
            threads, graphs.size(),
            [&](std::size_t i) { return collect(graphs[i]); });
    for (const ImpactContribution &c : contributions)
        partial.absorbInstance(c);
    return partial.finalize();
}

std::unordered_map<std::uint32_t, ImpactResult>
ImpactAnalysis::analyzePerScenario(std::span<const WaitGraph> graphs,
                                   unsigned threads) const
{
    std::unordered_map<std::uint32_t, PartialImpact> partials;
    if (resolveThreads(threads) <= 1 || graphs.size() < 2) {
        for (const WaitGraph &graph : graphs)
            partials[graph.instance().scenario].absorbInstance(
                collect(graph));
    } else {
        const std::vector<ImpactContribution> contributions =
            parallelMap<ImpactContribution>(
                threads, graphs.size(),
                [&](std::size_t i) { return collect(graphs[i]); });
        for (std::size_t i = 0; i < graphs.size(); ++i)
            partials[graphs[i].instance().scenario].absorbInstance(
                contributions[i]);
    }

    // Inserted in ascending id order, so equal inputs iterate alike.
    std::vector<std::uint32_t> scenarios;
    for (const auto &[scenario, partial] : partials)
        scenarios.push_back(scenario);
    std::sort(scenarios.begin(), scenarios.end());
    std::unordered_map<std::uint32_t, ImpactResult> results;
    for (std::uint32_t scenario : scenarios)
        results.emplace(scenario, partials.at(scenario).finalize());
    return results;
}

} // namespace tracelens
