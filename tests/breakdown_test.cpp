/**
 * @file
 * Tests for per-component impact attribution (the split the impact
 * scan records, against a naive reference walk) and the consolidated
 * report builder.
 */

#include <unistd.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/report.h"
#include "src/impact/impact.h"
#include "src/trace/builder.h"
#include "src/trace/serialize.h"
#include "src/trace/source.h"
#include "src/waitgraph/waitgraph.h"
#include "src/workload/generator.h"

namespace tracelens
{
namespace
{

NameFilter
drivers()
{
    return NameFilter({"*.sys"});
}

// The per-component split as a second walk over each graph, kept
// naive on purpose: a BFS over a deque that stops at matching waits,
// then a pass over every node, each stack resolved through the
// NameFilter lookup.

/** Accumulate per-component wait/run over one graph's top levels. */
void
accumulateComponents(
    const TraceCorpus &corpus, const WaitGraph &graph,
    const NameFilter &components,
    std::unordered_map<std::uint32_t, ComponentImpact> &by_component)
{
    const SymbolTable &sym = corpus.symbols();

    // Top-level component waits: BFS stopping at matching waits.
    std::deque<std::uint32_t> queue(graph.roots().begin(),
                                    graph.roots().end());
    while (!queue.empty()) {
        const WaitGraph::Node &node = graph.node(queue.front());
        queue.pop_front();
        const Event &e = node.event;
        if (e.type == EventType::Wait && e.stack != kNoCallstack) {
            const FrameId sig = sym.topMatchingFrame(e.stack,
                                                     components);
            if (sig != kNoFrame) {
                ComponentImpact &entry =
                    by_component[sym.componentId(sig)];
                if (entry.component.empty())
                    entry.component = sym.componentName(sig);
                entry.wait += e.cost;
                ++entry.waitEvents;
                continue;
            }
        }
        for (std::uint32_t child : graph.children(node))
            queue.push_back(child);
    }

    // Running attribution across the whole graph.
    for (const WaitGraph::Node &node : graph.nodes()) {
        const Event &e = node.event;
        if (e.type != EventType::Running || e.stack == kNoCallstack)
            continue;
        const FrameId sig = sym.topMatchingFrame(e.stack, components);
        if (sig == kNoFrame)
            continue;
        ComponentImpact &entry = by_component[sym.componentId(sig)];
        if (entry.component.empty())
            entry.component = sym.componentName(sig);
        entry.run += e.cost;
    }
}

std::vector<ComponentImpact>
sortedComponents(
    std::unordered_map<std::uint32_t, ComponentImpact> by_component)
{
    std::vector<ComponentImpact> result;
    result.reserve(by_component.size());
    for (auto &[id, entry] : by_component)
        result.push_back(std::move(entry));
    std::sort(result.begin(), result.end(),
              [](const ComponentImpact &a, const ComponentImpact &b) {
                  if (a.total() != b.total())
                      return a.total() > b.total();
                  return a.component < b.component;
              });
    return result;
}

/** The reference split of @p corpus: its graphs built afresh. */
std::vector<ComponentImpact>
referenceSplit(const TraceCorpus &corpus)
{
    const std::vector<WaitGraph> graphs =
        WaitGraphBuilder(corpus).buildAll();
    std::unordered_map<std::uint32_t, ComponentImpact> by_component;
    for (const WaitGraph &graph : graphs)
        accumulateComponents(corpus, graph, drivers(), by_component);
    return sortedComponents(std::move(by_component));
}

void
expectSameSplit(const std::vector<ComponentImpact> &got,
                const std::vector<ComponentImpact> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].component, want[i].component) << "row " << i;
        EXPECT_EQ(got[i].wait, want[i].wait) << want[i].component;
        EXPECT_EQ(got[i].run, want[i].run) << want[i].component;
        EXPECT_EQ(got[i].waitEvents, want[i].waitEvents)
            << want[i].component;
    }
}

TEST(ComponentImpact, AttributesWaitsToSignatureComponent)
{
    TraceCorpus corpus;
    StreamBuilder b(corpus, "s");
    const CallstackId fv = b.stack({"app!U", "fv.sys!Query"});
    const CallstackId net = b.stack({"app!U", "net.sys!Send"});
    b.wait(1, 0, fv);
    b.unwait(9, 300, 1, fv);
    b.wait(1, 400, net);
    b.unwait(9, 1000, 1, net);
    b.instance("S", 1, 0, 1100);
    b.finish();

    WaitGraphBuilder builder(corpus);
    const auto graphs = builder.buildAll();
    const auto components = impactByComponent(corpus, graphs,
                                              drivers());
    ASSERT_EQ(components.size(), 2u);
    // Sorted by total descending: net (600) before fv (300).
    EXPECT_EQ(components[0].component, "net.sys");
    EXPECT_EQ(components[0].wait, 600);
    EXPECT_EQ(components[0].waitEvents, 1u);
    EXPECT_EQ(components[1].component, "fv.sys");
    EXPECT_EQ(components[1].wait, 300);
}

TEST(ComponentImpact, RunningAttribution)
{
    TraceCorpus corpus;
    StreamBuilder b(corpus, "s");
    const CallstackId se = b.stack({"w!T", "se.sys!Decrypt"});
    b.running(1, 0, 500, se);
    b.instance("S", 1, 0, 600);
    b.finish();

    WaitGraphBuilder builder(corpus);
    const auto graphs = builder.buildAll();
    const auto components = impactByComponent(corpus, graphs,
                                              drivers());
    ASSERT_EQ(components.size(), 1u);
    EXPECT_EQ(components[0].component, "se.sys");
    EXPECT_EQ(components[0].run, 500);
    EXPECT_EQ(components[0].wait, 0);
}

TEST(ComponentImpact, ComponentWaitsSumToAggregateDwait)
{
    // The per-component attribution uses the same top-level BFS rule
    // as ImpactAnalysis, so the component waits partition D_wait.
    CorpusSpec spec;
    spec.machines = 8;
    spec.seed = 71;
    const TraceCorpus corpus = generateCorpus(spec);
    WaitGraphBuilder builder(corpus);
    const auto graphs = builder.buildAll();

    ImpactAnalysis impact(corpus, drivers());
    const ImpactResult total = impact.analyze(graphs);

    DurationNs component_sum = 0;
    DurationNs component_run = 0;
    for (const ComponentImpact &c :
         impactByComponent(corpus, graphs, drivers())) {
        component_sum += c.wait;
        component_run += c.run;
    }
    EXPECT_EQ(component_sum, total.dWait);
    // A wait graph holds each event at most once (Definition 1), so
    // counting every running node agrees with D_run's dedup.
    EXPECT_EQ(component_run, total.dRun);
}

TEST(ComponentImpact, AnalyzerSplitMatchesTheReferenceWalk)
{
    // Through the file and the sharded-directory sources, at one and
    // at three threads: the split folded from the kept contributions
    // equals the naive walk, row for row (shard re-interning changes
    // ids, never names or sums).
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("tracelens_breakdown_test_" + std::to_string(::getpid()));
    for (const std::uint64_t seed : {1u, 3u, 7u, 11u}) {
        CorpusSpec spec;
        spec.machines = 4;
        spec.seed = seed;
        const TraceCorpus corpus = generateCorpus(spec);
        const std::vector<ComponentImpact> want = referenceSplit(corpus);
        ASSERT_GT(want.size(), 1u);

        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        const std::string file = (dir / "corpus.tlc").string();
        const std::string shards = (dir / "shards").string();
        writeCorpusFile(corpus, file);
        writeShardedCorpusDir(corpus, shards, 3);
        for (const std::string &path : {file, shards}) {
            for (const unsigned threads : {1u, 3u}) {
                SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                             path + ", threads " +
                             std::to_string(threads));
                Expected<std::unique_ptr<TraceSource>> source =
                    openSource(path);
                ASSERT_TRUE(source.ok());
                AnalyzerConfig config;
                config.threads = threads;
                const Analyzer analyzer(*source.value(), config);
                expectSameSplit(analyzer.impactByComponent(), want);
            }
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(Report, ContainsAllSections)
{
    CorpusSpec spec;
    spec.machines = 6;
    spec.seed = 13;
    const TraceCorpus corpus = generateCorpus(spec);
    EagerSource analyzer_source(corpus);
    Analyzer analyzer(analyzer_source);

    const std::vector<ScenarioThresholds> scenarios = {
        {"BrowserTabCreate", fromMs(300), fromMs(500)},
        {"NotInCorpus", fromMs(1), fromMs(2)},
    };
    const std::string report =
        buildReport(analyzer, scenarios, ReportOptions{});

    EXPECT_NE(report.find("TraceLens report"), std::string::npos);
    EXPECT_NE(report.find("impact analysis"), std::string::npos);
    EXPECT_NE(report.find("impact by component"), std::string::npos);
    EXPECT_NE(report.find("scenario BrowserTabCreate"),
              std::string::npos);
    EXPECT_NE(report.find("not present in this corpus"),
              std::string::npos);
}

TEST(Report, KnowledgeFilterToggle)
{
    CorpusSpec spec;
    spec.machines = 8;
    spec.seed = 21;
    spec.diskProtectionFraction = 1.0; // every machine has dp.sys
    const TraceCorpus corpus = generateCorpus(spec);
    EagerSource analyzer_source(corpus);
    Analyzer analyzer(analyzer_source);

    const std::vector<ScenarioThresholds> scenarios = {
        {"BrowserTabCreate", fromMs(300), fromMs(500)},
    };
    ReportOptions with_filter;
    with_filter.applyKnowledgeFilter = true;
    ReportOptions without_filter;
    without_filter.applyKnowledgeFilter = false;

    const std::string filtered =
        buildReport(analyzer, scenarios, with_filter);
    const std::string unfiltered =
        buildReport(analyzer, scenarios, without_filter);
    // The unfiltered report never mentions suppression.
    EXPECT_EQ(unfiltered.find("suppressed as by-design"),
              std::string::npos);
    // Both are well-formed.
    EXPECT_NE(filtered.find("TraceLens report"), std::string::npos);
}

} // namespace
} // namespace tracelens
