/**
 * @file
 * Tests for the Analyzer's kept results: reports are byte-identical
 * at every thread count and across concurrent Analyzers, and the
 * per-class folds use per-instance summaries that are computed once
 * per instance, counted by the Analyzer's process-wide analyzer.*
 * counters.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/analyzer.h"
#include "src/core/report.h"
#include "src/trace/source.h"
#include "src/util/telemetry.h"
#include "src/workload/generator.h"
#include "src/workload/scenarios.h"

namespace tracelens
{
namespace
{

CorpusSpec
smallSpec()
{
    CorpusSpec spec;
    spec.machines = 12;
    spec.seed = 4242;
    return spec;
}

std::vector<ScenarioThresholds>
catalogThresholds(const TraceCorpus &corpus)
{
    std::vector<ScenarioThresholds> scenarios;
    for (const ScenarioSpec &spec : scenarioCatalog()) {
        if (spec.selected &&
            corpus.findScenario(spec.name) != UINT32_MAX)
            scenarios.push_back({spec.name, spec.tFast, spec.tSlow});
    }
    return scenarios;
}

/** The process-wide count of @p name, such as analyzer.graph_builds:
 *  tests read its change across the calls they make. */
std::uint64_t
counted(std::string_view name)
{
    const Counter *counter = MetricsRegistry::global().findCounter(name);
    return counter == nullptr ? 0 : counter->value();
}

/** The full analysis report — the byte-identity probe. */
std::string
reportOf(const Analyzer &analyzer)
{
    return buildReport(analyzer, catalogThresholds(analyzer.corpus()));
}

/**
 * Everything a scenario query answers, and the layouts of its class
 * AWGs, for byte comparison.
 */
std::string
renderAnalysis(const Analyzer &analyzer, const std::string &name,
               DurationNs tFast, DurationNs tSlow)
{
    const ScenarioAnalysis analysis =
        analyzer.analyzeScenario(name, tFast, tSlow);
    const ClassAwgs awgs = analyzer.scenarioAwgs(name, tFast, tSlow);
    const SymbolTable &symbols = analyzer.corpus().symbols();
    std::ostringstream oss;
    oss << analysis.classes.fast.size() << "/"
        << analysis.classes.middle.size() << "/"
        << analysis.classes.slow.size() << "\n"
        << analysis.slowImpact.render() << " D_scn(slow)="
        << analysis.slowDuration << "\n"
        << awgs.fast.renderText(symbols, 100000)
        << awgs.slow.renderText(symbols, 100000)
        << analysis.mining->stats.render() << "\n"
        << analysis.coverage.render() << "\n";
    for (const ContrastPattern &pattern : analysis.mining->patterns)
        oss << pattern.impact() << " " << pattern.count << "\n"
            << pattern.tuple.render(symbols);
    return oss.str();
}

void
expectSameImpact(const ImpactResult &a, const ImpactResult &b)
{
    EXPECT_EQ(a.instances, b.instances);
    EXPECT_EQ(a.dScn, b.dScn);
    EXPECT_EQ(a.dWait, b.dWait);
    EXPECT_EQ(a.dRun, b.dRun);
    EXPECT_EQ(a.dWaitDist, b.dWaitDist);
}

void
expectSameAwg(const AggregatedWaitGraph &a, const AggregatedWaitGraph &b,
              const SymbolTable &symbols)
{
    ASSERT_EQ(a.nodes().size(), b.nodes().size());
    for (std::size_t i = 0; i < a.nodes().size(); ++i) {
        const AggregatedWaitGraph::Node &x = a.nodes()[i];
        const AggregatedWaitGraph::Node &y = b.nodes()[i];
        EXPECT_TRUE(x.key == y.key) << "node " << i;
        EXPECT_EQ(x.cost, y.cost) << "node " << i;
        EXPECT_EQ(x.count, y.count) << "node " << i;
        EXPECT_EQ(x.maxCost, y.maxCost) << "node " << i;
        EXPECT_EQ(x.children, y.children) << "node " << i;
    }
    EXPECT_EQ(a.roots(), b.roots());
    EXPECT_EQ(a.reducedCost(), b.reducedCost());
    EXPECT_EQ(a.reducedNodes(), b.reducedNodes());
    EXPECT_EQ(a.sourceGraphs(), b.sourceGraphs());
    EXPECT_EQ(a.renderText(symbols, 100000),
              b.renderText(symbols, 100000));
}

/** Copies of @p graphs' entries for @p members, in order. */
std::vector<WaitGraph>
copiesOf(const std::vector<WaitGraph> &graphs,
         const std::vector<std::uint32_t> &members)
{
    std::vector<WaitGraph> subset;
    for (std::uint32_t i : members)
        subset.push_back(graphs[i]);
    return subset;
}

TEST(Incremental, SerialAndParallelReportsAreIdentical)
{
    const TraceCorpus corpus = generateCorpus(smallSpec());
    EagerSource serial_source(corpus), parallel_source(corpus);

    AnalyzerConfig serial_config;
    serial_config.threads = 1;
    Analyzer serial(serial_source, serial_config);

    AnalyzerConfig parallel_config;
    parallel_config.threads = 4;
    Analyzer parallel(parallel_source, parallel_config);

    EXPECT_EQ(reportOf(serial), reportOf(parallel));
}

TEST(Incremental, ConcurrentAnalyzersOverOneCorpusMatchSerial)
{
    // Several analyzers over one borrowed corpus at once, each priming
    // the corpus's symbol filter cache as it ingests. Every report
    // must equal a serial analyzer's.
    const TraceCorpus corpus = generateCorpus(smallSpec());
    AnalyzerConfig config;
    config.threads = 1;

    std::string serial_report;
    {
        EagerSource probe(corpus);
        Analyzer serial(probe, config);
        serial_report = reportOf(serial);
    }

    constexpr int kAnalyzers = 6;
    std::vector<std::string> reports(kAnalyzers);
    {
        std::vector<std::thread> analyzers;
        analyzers.reserve(kAnalyzers);
        for (int i = 0; i < kAnalyzers; ++i) {
            analyzers.emplace_back([&, i] {
                EagerSource source(corpus);
                Analyzer analyzer(source, config);
                reports[static_cast<std::size_t>(i)] =
                    reportOf(analyzer);
            });
        }
        for (std::thread &t : analyzers)
            t.join();
    }
    for (const std::string &report : reports)
        EXPECT_EQ(report, serial_report);
}

TEST(Incremental, ClassFoldsMatchTheReferencePath)
{
    // The per-class stages fold kept per-instance summaries; the
    // reference is the span-of-graphs API over copies of the members.
    const TraceCorpus corpus = generateCorpus(smallSpec());
    for (const unsigned threads : {1u, 4u}) {
        AnalyzerConfig config;
        config.threads = threads;
        EagerSource source(corpus);
        Analyzer analyzer(source, config);
        const std::vector<WaitGraph> graphs =
            WaitGraphBuilder(corpus, config.waitGraph).buildAll();
        const ImpactAnalysis impact(corpus, analyzer.components());
        const AwgBuilder builder(corpus, analyzer.components(),
                                 config.awg);
        for (const ScenarioThresholds &s : catalogThresholds(corpus)) {
            for (const auto &[tFast, tSlow] :
                 {std::pair{s.tFast, s.tSlow},
                  std::pair{s.tFast * 2, s.tSlow * 3 / 2}}) {
                SCOPED_TRACE(s.name + " threads=" +
                             std::to_string(threads) + " tFast=" +
                             std::to_string(tFast));
                const ScenarioAnalysis analysis =
                    analyzer.analyzeScenario(s.name, tFast, tSlow);
                const std::vector<WaitGraph> fast =
                    copiesOf(graphs, analysis.classes.fast);
                const std::vector<WaitGraph> slow =
                    copiesOf(graphs, analysis.classes.slow);
                expectSameImpact(analysis.slowImpact,
                                 impact.analyze(slow, threads));
                const ClassAwgs awgs =
                    analyzer.scenarioAwgs(s.name, tFast, tSlow);
                const AggregatedWaitGraph slowAwg =
                    builder.aggregate(slow, threads);
                expectSameAwg(awgs.fast, builder.aggregate(fast, threads),
                              corpus.symbols());
                expectSameAwg(awgs.slow, slowAwg, corpus.symbols());
                EXPECT_EQ(analysis.slowReducedCost, slowAwg.reducedCost());
                EXPECT_EQ(analysis.slowRootCost, slowAwg.totalRootCost());
            }
        }
    }
}

/** An impact-per-scenario map in its iteration order. */
std::string
renderPerScenario(
    const std::unordered_map<std::uint32_t, ImpactResult> &impacts)
{
    std::ostringstream oss;
    for (const auto &[scenario, impact] : impacts)
        oss << scenario << " " << impact.render() << "\n";
    return oss.str();
}

TEST(Incremental, ImpactScansEachInstanceOnce)
{
    // The corpus-wide, per-scenario and partial impact, the component
    // split and every slow-class fold share one kept contribution per
    // instance.
    const TraceCorpus corpus = generateCorpus(smallSpec());
    for (const unsigned threads : {1u, 3u}) {
        AnalyzerConfig config;
        config.threads = threads;
        EagerSource source(corpus);
        const std::uint64_t base = counted("analyzer.contributions");
        Analyzer analyzer(source, config);
        const std::vector<ComponentImpact> split =
            analyzer.impactByComponent();
        const ImpactResult all = analyzer.impactAll();
        const std::vector<ComponentImpact> split_again =
            analyzer.impactByComponent();
        const std::unordered_map<std::uint32_t, ImpactResult> per =
            analyzer.impactPerScenario();
        const ImpactPartial partial = analyzer.impactPartial();
        for (const ScenarioThresholds &s : catalogThresholds(corpus))
            (void)analyzer.analyzeScenario(s.name, s.tFast, s.tSlow);
        EXPECT_EQ(counted("analyzer.contributions") - base,
                  corpus.instances().size());

        const std::vector<WaitGraph> graphs =
            WaitGraphBuilder(corpus, config.waitGraph).buildAll();
        const ImpactAnalysis impact(corpus, analyzer.components());
        const ImpactResult want_all = impact.analyze(graphs);
        const std::unordered_map<std::uint32_t, ImpactResult> want_per =
            impact.analyzePerScenario(graphs);
        expectSameImpact(all, want_all);
        expectSameImpact(partial.all.finalize(), want_all);
        const std::vector<ComponentImpact> want_split =
            impactByComponent(corpus, graphs, analyzer.components());
        for (const auto *got : {&split, &split_again}) {
            ASSERT_EQ(got->size(), want_split.size());
            for (std::size_t i = 0; i < want_split.size(); ++i) {
                const ComponentImpact &a = (*got)[i], &b = want_split[i];
                EXPECT_EQ(a.component, b.component);
                EXPECT_EQ(a.wait, b.wait);
                EXPECT_EQ(a.run, b.run);
                EXPECT_EQ(a.waitEvents, b.waitEvents);
            }
        }
        // The daemon renders the map in iteration order.
        EXPECT_EQ(renderPerScenario(per), renderPerScenario(want_per));
        ASSERT_EQ(partial.perScenario.size(), want_per.size());
        for (const auto &[name, accumulator] : partial.perScenario)
            expectSameImpact(accumulator.finalize(),
                             want_per.at(corpus.findScenario(name)));
    }
}

TEST(Incremental, NarrowerClassesComputeNoNewSummaries)
{
    const TraceCorpus corpus = generateCorpus(smallSpec());
    const std::vector<ScenarioThresholds> scenarios =
        catalogThresholds(corpus);
    ASSERT_FALSE(scenarios.empty());

    const std::uint64_t fragments = counted("analyzer.fragments");
    const std::uint64_t contributions = counted("analyzer.contributions");
    EagerSource source(corpus);
    Analyzer analyzer(source);
    for (const ScenarioThresholds &s : scenarios)
        (void)analyzer.analyzeScenario(s.name, s.tFast, s.tSlow);
    const std::uint64_t firstFragments =
        counted("analyzer.fragments") - fragments;
    const std::uint64_t firstContributions =
        counted("analyzer.contributions") - contributions;
    EXPECT_GT(firstFragments, 0u);
    EXPECT_GT(firstContributions, 0u);

    // A lower T_fast and a higher T_slow only shrink both classes:
    // every member already has its fragment and contribution.
    for (const ScenarioThresholds &s : scenarios)
        (void)analyzer.analyzeScenario(s.name, s.tFast * 7 / 10,
                                       s.tSlow * 105 / 100);
    EXPECT_EQ(counted("analyzer.fragments") - fragments, firstFragments);
    EXPECT_EQ(counted("analyzer.contributions") - contributions,
              firstContributions);
}

TEST(Incremental, ConcurrentQueriesAtAlternatingThresholdsMatchSerial)
{
    // Four threads keep moving one scenario between two threshold
    // pairs, so trie growth races the column folds that read the trie
    // and several queries map the same members at once. Every answer
    // must equal the serial one.
    const TraceCorpus corpus = generateCorpus(smallSpec());
    const ScenarioThresholds s = catalogThresholds(corpus).front();
    const std::pair<DurationNs, DurationNs> thresholds[2] = {
        {s.tFast, s.tSlow}, {s.tFast * 2, s.tSlow * 3 / 2}};

    std::string serial[2];
    {
        AnalyzerConfig serialConfig;
        serialConfig.threads = 1;
        EagerSource source(corpus);
        Analyzer analyzer(source, serialConfig);
        for (int t = 0; t < 2; ++t)
            serial[t] = renderAnalysis(analyzer, s.name,
                                       thresholds[t].first,
                                       thresholds[t].second);
    }

    AnalyzerConfig config;
    config.threads = 2;
    EagerSource source(corpus);
    Analyzer analyzer(source, config);
    constexpr int kThreads = 4;
    constexpr int kRounds = 6;
    std::vector<std::vector<std::string>> answers(kThreads);
    std::vector<std::thread> threads;
    for (int k = 0; k < kThreads; ++k) {
        threads.emplace_back([&, k] {
            for (int round = 0; round < kRounds; ++round) {
                const auto &[tFast, tSlow] = thresholds[(k + round) % 2];
                answers[static_cast<std::size_t>(k)].push_back(
                    renderAnalysis(analyzer, s.name, tFast, tSlow));
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int k = 0; k < kThreads; ++k)
        for (int round = 0; round < kRounds; ++round)
            EXPECT_EQ(answers[static_cast<std::size_t>(k)]
                             [static_cast<std::size_t>(round)],
                      serial[(k + round) % 2])
                << "thread " << k << " round " << round;
}

} // namespace
} // namespace tracelens
