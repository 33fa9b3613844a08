/**
 * @file
 * Impact-metric accumulation over Wait Graphs: per-graph scans
 * (parallelizable) feeding an order-preserving distinct-wait fold and
 * the per-component split.
 */

#include "src/impact/impact.h"

#include <algorithm>
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

void
ComponentSplit::absorb(const ImpactContribution &contribution)
{
    for (const ComponentShare &share : contribution.components) {
        if (share.component >= byId_.size())
            byId_.resize(share.component + 1);
        ComponentShare &total = byId_[share.component];
        total.frame = share.frame; // each of its frames names it
        total.wait += share.wait;
        total.run += share.run;
        total.waitEvents += share.waitEvents;
    }
}

std::vector<ComponentImpact>
ComponentSplit::finalize(const SymbolTable &symbols) const
{
    std::vector<ComponentImpact> result;
    for (const ComponentShare &share : byId_) {
        if (share.frame != kNoFrame)
            result.push_back({symbols.componentName(share.frame),
                              share.wait, share.run, share.waitEvents});
    }
    std::sort(result.begin(), result.end(),
              [](const ComponentImpact &a, const ComponentImpact &b) {
                  if (a.total() != b.total())
                      return a.total() > b.total();
                  return a.component < b.component;
              });
    return result;
}

ImpactAnalysis::ImpactAnalysis(const TraceCorpus &corpus,
                               NameFilter components)
    : corpus_(corpus), components_(std::move(components)),
      matches_(corpus_.symbols().primeFilter(components_))
{
}

ImpactContribution
ImpactAnalysis::collect(const WaitGraph &graph) const
{
    const SymbolTable &sym = corpus_.symbols();
    ImpactContribution contribution;
    contribution.dScn = graph.topLevelDuration();
    auto shareOf = [&](FrameId signature) -> ComponentShare & {
        const std::uint32_t component = sym.componentId(signature);
        for (ComponentShare &share : contribution.components)
            if (share.component == component)
                return share;
        return contribution.components.emplace_back(
            ComponentShare{component, signature});
    };

    // Top-level component waits: breadth-first search that stops at the
    // first matching wait on each path (children constitute time already
    // counted by their parent). Recorded in BFS order so the caller's
    // serial dedup fold reproduces the original accumulation exactly.
    std::vector<std::uint32_t> queue(graph.roots());
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const WaitGraph::Node &node = graph.node(queue[head]);
        const Event &e = node.event;
        if (e.type == EventType::Wait && e.stack != kNoCallstack) {
            const FrameId signature = sym.topMatchingFrame(e.stack, matches_);
            if (signature != kNoFrame) {
                contribution.waitHits.emplace_back(node.ref, e.cost);
                ComponentShare &share = shareOf(signature);
                share.wait += e.cost;
                ++share.waitEvents;
                continue; // do not descend into already-counted time
            }
        }
        for (std::uint32_t child : graph.children(node))
            queue.push_back(child);
    }

    // Component running time: every running sample in the graph whose
    // callstack contains a chosen component. D_run counts each distinct
    // event once per instance; the split counts every node.
    std::unordered_set<EventRef, EventRefHash> seen_running;
    for (const WaitGraph::Node &node : graph.nodes()) {
        const Event &e = node.event;
        if (e.type != EventType::Running || e.stack == kNoCallstack)
            continue;
        const FrameId signature = sym.topMatchingFrame(e.stack, matches_);
        if (signature == kNoFrame)
            continue;
        shareOf(signature).run += e.cost;
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

std::vector<ComponentImpact>
impactByComponent(const TraceCorpus &corpus,
                  std::span<const WaitGraph> graphs,
                  const NameFilter &components)
{
    const ImpactAnalysis impact(corpus, components);
    ComponentSplit split;
    for (const WaitGraph &graph : graphs)
        split.absorb(impact.collect(graph));
    return split.finalize(corpus.symbols());
}

} // namespace tracelens
