/**
 * @file
 * Tests for the incremental analysis pipeline: appending shards must
 * build only the new shard's wait graphs and still produce
 * byte-identical reports. The per-class stages fold per-instance
 * summaries that are computed once per instance, and per scenario the
 * Analyzer keeps only the results at the last-asked thresholds.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/analyzer.h"
#include "src/core/report.h"
#include "src/trace/merge.h"
#include "src/trace/source.h"
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

/** The full analysis report — the byte-identity probe. */
std::string
reportOf(const Analyzer &analyzer)
{
    return buildReport(analyzer, catalogThresholds(analyzer.corpus()));
}

/** Everything a scenario analysis answers, for byte comparison. */
std::string
renderAnalysis(const ScenarioAnalysis &analysis,
               const SymbolTable &symbols)
{
    std::ostringstream oss;
    oss << analysis.classes.fast.size() << "/"
        << analysis.classes.middle.size() << "/"
        << analysis.classes.slow.size() << "\n"
        << analysis.slowImpact.render() << " D_scn(slow)="
        << analysis.slowDuration << "\n"
        << analysis.awgFast.renderText(symbols, 100000)
        << analysis.awgSlow.renderText(symbols, 100000)
        << analysis.mining.stats.render() << "\n"
        << analysis.coverage.render() << "\n";
    for (const ContrastPattern &pattern : analysis.mining.patterns)
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

/** Copies of the wait graphs of @p members, in order. */
std::vector<WaitGraph>
copiesOf(const Analyzer &analyzer, const std::vector<std::uint32_t> &members)
{
    std::vector<WaitGraph> subset;
    for (std::uint32_t i : members)
        subset.push_back(analyzer.graphs()[i]);
    return subset;
}

/** Merge of parts[0..count) in order, as the analyzer would absorb. */
TraceCorpus
mergedPrefix(const std::vector<TraceCorpus> &parts, std::size_t count)
{
    TraceCorpus merged;
    for (std::size_t i = 0; i < count; ++i)
        appendCorpus(merged, parts[i]);
    return merged;
}

TEST(Incremental, AppendRebuildsOnlyTheNewShard)
{
    const TraceCorpus corpus = generateCorpus(smallSpec());
    const std::vector<TraceCorpus> parts = splitCorpus(corpus, 4);
    ASSERT_EQ(parts.size(), 4u);

    for (const unsigned threads : {1u, 3u}) {
        AnalyzerConfig config;
        config.threads = threads;

        // Three shards in, full report out: each shard's wait graphs
        // built once, nothing kept from an earlier build yet.
        EagerSource first(parts[0]);
        Analyzer analyzer(first, config);
        analyzer.addStreams(parts[1]);
        analyzer.addStreams(parts[2]);
        ASSERT_EQ(analyzer.shardCount(), 3u);
        const std::string r1 = reportOf(analyzer);
        {
            const PipelineStats stats = analyzer.pipelineStats();
            EXPECT_EQ(stats.of(Stage::WaitGraphs).misses, 3u);
            EXPECT_EQ(stats.of(Stage::WaitGraphs).hits, 0u);
        }

        // The cold equivalent of the three-shard state.
        const TraceCorpus merged3 = mergedPrefix(parts, 3);
        EagerSource cold3_source(merged3);
        Analyzer cold3(cold3_source, config);
        EXPECT_EQ(reportOf(cold3), r1);

        // Appending the fourth shard invalidates only the suffix:
        // the three prefix shards' graphs are kept, and only the new
        // shard's are built.
        analyzer.addStreams(parts[3]);
        const std::string r2 = reportOf(analyzer);
        {
            const PipelineStats stats = analyzer.pipelineStats();
            EXPECT_EQ(stats.of(Stage::WaitGraphs).misses, 4u);
            EXPECT_GE(stats.of(Stage::WaitGraphs).hits, 3u);
        }

        // Byte-identical to a cold full analysis of all four parts.
        const TraceCorpus merged4 = mergedPrefix(parts, 4);
        EagerSource cold4_source(merged4);
        Analyzer cold4(cold4_source, config);
        EXPECT_EQ(reportOf(cold4), r2);
    }
}

TEST(Incremental, AppendKeepsPrefixGraphs)
{
    const TraceCorpus corpus = generateCorpus(smallSpec());
    const std::vector<TraceCorpus> parts = splitCorpus(corpus, 2);
    ASSERT_EQ(parts.size(), 2u);

    EagerSource first(parts[0]);
    Analyzer analyzer(first);
    std::vector<const WaitGraph::Node *> before;
    for (const WaitGraph &graph : analyzer.graphs())
        before.push_back(graph.nodes().data());
    ASSERT_FALSE(before.empty());

    analyzer.addStreams(parts[1]);
    const std::vector<WaitGraph> &after = analyzer.graphs();
    ASSERT_GT(after.size(), before.size());
    // Every prefix graph still owns the node storage it was built
    // into: moved along, neither rebuilt nor copied.
    for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_EQ(after[i].nodes().data(), before[i]) << "graph " << i;
    const PipelineStats stats = analyzer.pipelineStats();
    EXPECT_EQ(stats.of(Stage::WaitGraphs).misses, 2u);
    EXPECT_EQ(stats.of(Stage::WaitGraphs).hits, 1u);
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

TEST(Incremental, RepeatedQueriesHitTheMemoizedStore)
{
    const TraceCorpus corpus = generateCorpus(smallSpec());
    EagerSource source(corpus);
    Analyzer analyzer(source);

    const ImpactResult first = analyzer.impactAll();
    const ImpactResult second = analyzer.impactAll();
    EXPECT_EQ(first.dWait, second.dWait);
    EXPECT_EQ(first.dWaitDist, second.dWaitDist);

    const PipelineStats stats = analyzer.pipelineStats();
    EXPECT_EQ(stats.of(Stage::Impact).misses, 1u);
    EXPECT_GE(stats.of(Stage::Impact).hits, 1u);
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
                    copiesOf(analyzer, analysis.classes.fast);
                const std::vector<WaitGraph> slow =
                    copiesOf(analyzer, analysis.classes.slow);
                expectSameImpact(analysis.slowImpact,
                                 impact.analyze(slow, threads));
                expectSameAwg(analysis.awgFast,
                              builder.aggregate(fast, threads),
                              corpus.symbols());
                expectSameAwg(analysis.awgSlow,
                              builder.aggregate(slow, threads),
                              corpus.symbols());
            }
        }
    }
}

TEST(Incremental, NarrowerClassesComputeNoNewSummaries)
{
    const TraceCorpus corpus = generateCorpus(smallSpec());
    EagerSource source(corpus);
    Analyzer analyzer(source);
    const std::vector<ScenarioThresholds> scenarios =
        catalogThresholds(corpus);
    ASSERT_FALSE(scenarios.empty());

    for (const ScenarioThresholds &s : scenarios)
        (void)analyzer.analyzeScenario(s.name, s.tFast, s.tSlow);
    const PipelineStats first = analyzer.pipelineStats();
    EXPECT_GT(first.of(Stage::Awg).summaries, 0u);
    EXPECT_GT(first.of(Stage::Impact).summaries, 0u);

    // A lower T_fast and a higher T_slow only shrink both classes:
    // every member already has its fragment and contribution.
    for (const ScenarioThresholds &s : scenarios)
        (void)analyzer.analyzeScenario(s.name, s.tFast * 7 / 10,
                                       s.tSlow * 105 / 100);
    const PipelineStats second = analyzer.pipelineStats();
    EXPECT_GT(second.of(Stage::Awg).misses, first.of(Stage::Awg).misses);
    EXPECT_EQ(second.of(Stage::Awg).summaries,
              first.of(Stage::Awg).summaries);
    EXPECT_EQ(second.of(Stage::Impact).summaries,
              first.of(Stage::Impact).summaries);
}

TEST(Incremental, ChangedThresholdsEvictPerQueryArtifacts)
{
    const TraceCorpus corpus = generateCorpus(smallSpec());
    EagerSource source(corpus);
    Analyzer analyzer(source);
    const ScenarioThresholds s = catalogThresholds(corpus).front();
    const DurationNs t2Fast = s.tFast * 2;
    const DurationNs t2Slow = s.tSlow * 3 / 2;
    auto awgStats = [&] { return analyzer.pipelineStats().of(Stage::Awg); };

    const std::string first = renderAnalysis(
        analyzer.analyzeScenario(s.name, s.tFast, s.tSlow),
        corpus.symbols());
    (void)analyzer.analyzeScenario(s.name, t2Fast, t2Slow);
    const StageStats beforeThird = awgStats();

    // Back at t1: the t2 query replaced t1's slot, so both rebuild...
    const std::string third = renderAnalysis(
        analyzer.analyzeScenario(s.name, s.tFast, s.tSlow),
        corpus.symbols());
    EXPECT_EQ(awgStats().misses, beforeThird.misses + 2);
    EXPECT_EQ(awgStats().hits, beforeThird.hits);
    EXPECT_EQ(third, first);

    // ...and a repeat at t1 finds them kept.
    const StageStats beforeFourth = awgStats();
    const std::string fourth = renderAnalysis(
        analyzer.analyzeScenario(s.name, s.tFast, s.tSlow),
        corpus.symbols());
    EXPECT_EQ(awgStats().misses, beforeFourth.misses);
    EXPECT_EQ(awgStats().hits, beforeFourth.hits + 2);
    EXPECT_EQ(fourth, first);
}

TEST(Incremental, ConcurrentQueriesAtAlternatingThresholdsMatchSerial)
{
    // Four threads keep moving one scenario between two threshold
    // pairs, so slot replacements race builds and summaries are first
    // needed by several queries at once. Every answer must equal the
    // serial one.
    const TraceCorpus corpus = generateCorpus(smallSpec());
    const ScenarioThresholds s = catalogThresholds(corpus).front();
    const std::pair<DurationNs, DurationNs> thresholds[2] = {
        {s.tFast, s.tSlow}, {s.tFast * 2, s.tSlow * 3 / 2}};

    std::string serial[2];
    {
        EagerSource source(corpus);
        Analyzer analyzer(source, AnalyzerConfig{.threads = 1});
        for (int t = 0; t < 2; ++t)
            serial[t] = renderAnalysis(
                analyzer.analyzeScenario(s.name, thresholds[t].first,
                                         thresholds[t].second),
                corpus.symbols());
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
                    renderAnalysis(
                        analyzer.analyzeScenario(s.name, tFast, tSlow),
                        corpus.symbols()));
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
