/**
 * @file
 * End-to-end integration tests: the full pipeline on mixed corpora,
 * the calibrated headline shape, the case studies through the public
 * facade, the knowledge filter and pattern index over real mining
 * output, and cross-format persistence.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "src/baseline/callgraph.h"
#include "src/baseline/lockcontention.h"
#include "src/core/analyzer.h"
#include "src/core/report.h"
#include "src/mining/knowledge.h"
#include "src/mining/patternindex.h"
#include "src/trace/csv.h"
#include "src/trace/serialize.h"
#include "src/workload/generator.h"
#include "src/workload/motivating.h"
#include "tests/corpus_bytes.h"

namespace tracelens
{
namespace
{

/** One shared medium corpus for the expensive integration checks. */
const TraceCorpus &
mediumCorpus()
{
    static const TraceCorpus corpus = [] {
        CorpusSpec spec;
        spec.machines = 40;
        spec.seed = 20140301;
        return generateCorpus(spec);
    }();
    return corpus;
}

TEST(Integration, HeadlineShapeHolds)
{
    EagerSource analyzer_source(mediumCorpus());
    Analyzer analyzer(analyzer_source);
    const ImpactResult impact = analyzer.impactAll();

    // The paper's shape: drivers dominate waiting, not running; a
    // substantial share of waiting is propagated; one driver wait
    // affects multiple instances on average. Bounds are loose — the
    // corpus is a small sample of the calibrated fleet.
    EXPECT_GT(impact.iaWait(), 0.20);
    EXPECT_LT(impact.iaWait(), 0.65);
    EXPECT_LT(impact.iaRun(), 0.06);
    EXPECT_GT(impact.iaWait(), 5 * impact.iaRun());
    EXPECT_GT(impact.iaOpt(), 0.05);
    EXPECT_GT(impact.waitAmplification(), 1.3);
}

TEST(Integration, EveryScenarioAnalyzesCleanly)
{
    EagerSource analyzer_source(mediumCorpus());
    Analyzer analyzer(analyzer_source);
    for (const ScenarioSpec &scn : scenarioCatalog()) {
        if (mediumCorpus().findScenario(scn.name) == UINT32_MAX)
            continue;
        const ScenarioAnalysis analysis = analyzer.analyzeScenario(
            scn.name, scn.tFast, scn.tSlow);
        EXPECT_LE(analysis.coverage.itc(),
                  analysis.coverage.ttc() + 1e-9)
            << scn.name;
        if (!analysis.classes.slow.empty()) {
            EXPECT_FALSE(
                analyzer.scenarioAwgs(scn.name, scn.tFast, scn.tSlow)
                    .slow.empty())
                << scn.name;
        }
    }
}

TEST(Integration, PatternIndexAcrossScenarios)
{
    EagerSource analyzer_source(mediumCorpus());
    Analyzer analyzer(analyzer_source);
    PatternIndex index(mediumCorpus().symbols());
    for (const ScenarioSpec &scn : scenarioCatalog()) {
        if (mediumCorpus().findScenario(scn.name) == UINT32_MAX)
            continue;
        const ScenarioAnalysis analysis = analyzer.analyzeScenario(
            scn.name, scn.tFast, scn.tSlow);
        index.add(scn.name, *analysis.mining);
    }
    ASSERT_GT(index.patternCount(), 0u);

    // File-system behaviour should be indexed from several scenarios
    // (the paper's "FS + filter drivers near-ubiquitous" observation).
    const auto hits = index.byComponent("fs.sys");
    std::set<std::string> scenarios;
    for (const PatternHit &hit : hits)
        scenarios.insert(hit.scenario);
    EXPECT_GE(scenarios.size(), 3u);

    // Hits are impact-sorted.
    for (std::size_t i = 1; i < hits.size(); ++i) {
        EXPECT_GE(hits[i - 1].pattern.impact(),
                  hits[i].pattern.impact());
    }
}

TEST(Integration, KnowledgeFilterOnRealMiningOutput)
{
    CorpusSpec spec;
    spec.machines = 25;
    spec.seed = 77;
    spec.diskProtectionFraction = 1.0;
    const TraceCorpus corpus = generateCorpus(spec);
    EagerSource analyzer_source(corpus);
    Analyzer analyzer(analyzer_source);

    bool saw_suppression = false;
    const KnowledgeBase kb = KnowledgeBase::defaults();
    for (const ScenarioSpec &scn : scenarioCatalog()) {
        if (corpus.findScenario(scn.name) == UINT32_MAX)
            continue;
        const ScenarioAnalysis analysis = analyzer.analyzeScenario(
            scn.name, scn.tFast, scn.tSlow);
        const FilteredMiningResult filtered =
            kb.apply(*analysis.mining, corpus.symbols());
        EXPECT_EQ(filtered.kept.size() + filtered.suppressed.size(),
                  analysis.mining->patterns.size());
        saw_suppression |= !filtered.suppressed.empty();
        for (const SuppressedPattern &s : filtered.suppressed)
            EXPECT_FALSE(s.reason.empty());
        for (const ContrastPattern &p : filtered.kept)
            EXPECT_FALSE(kb.matches(p.tuple, corpus.symbols()));
    }
    // With dp.sys on every machine, at least one dp pattern surfaces
    // somewhere and is suppressed.
    EXPECT_TRUE(saw_suppression);
}

TEST(Integration, PersistenceBinaryAndCsvAgree)
{
    const TraceCorpus &corpus = mediumCorpus();

    std::stringstream binary;
    writeCorpus(corpus, binary);
    const TraceCorpus from_binary = decodeCorpusBytes(binary.str());

    std::ostringstream events, instances;
    writeEventsCsv(corpus, events);
    writeInstancesCsv(corpus, instances);
    std::istringstream ein(events.str()), iin(instances.str());
    const TraceCorpus from_csv = readCorpusCsv(ein, iin);

    // Analyses of both copies agree exactly.
    EagerSource binary_source(from_binary), csv_source(from_csv);
    const ImpactResult a = Analyzer(binary_source).impactAll();
    const ImpactResult b = Analyzer(csv_source).impactAll();
    EXPECT_EQ(a.dScn, b.dScn);
    EXPECT_EQ(a.dWait, b.dWait);
    EXPECT_EQ(a.dRun, b.dRun);
    EXPECT_EQ(a.dWaitDist, b.dWaitDist);
}

TEST(Integration, BaselinesAgreeOnTotals)
{
    const TraceCorpus &corpus = mediumCorpus();

    // The CPU profiler's total equals the sum of running events.
    CallGraphProfiler profiler(corpus);
    DurationNs running = 0;
    DurationNs wait_events = 0;
    for (std::uint32_t s = 0; s < corpus.streamCount(); ++s) {
        for (const Event &e : corpus.stream(s).events()) {
            if (e.type == EventType::Running)
                running += e.cost;
            if (e.type == EventType::Wait)
                ++wait_events;
        }
    }
    EXPECT_EQ(profiler.totalCpu(), running);

    // The contention analyzer never reports more waits than exist.
    LockContentionAnalyzer contention(corpus);
    std::uint64_t analyzed_waits = 0;
    for (const ContentionEntry &e : contention.analyze())
        analyzed_waits += e.waits;
    EXPECT_LE(analyzed_waits, wait_events);
}

TEST(Integration, CaseStudiesSurviveSerialization)
{
    TraceCorpus corpus;
    buildMotivatingExample(corpus);
    buildGraphicsHardFaultCase(corpus);

    std::stringstream buffer;
    writeCorpus(corpus, buffer);
    const TraceCorpus copy = decodeCorpusBytes(buffer.str());

    ASSERT_EQ(copy.instances().size(), 2u);
    EXPECT_GT(copy.instances()[0].duration(), fromMs(800));
    EXPECT_GT(copy.instances()[1].duration(), fromMs(4500));

    // The Figure-1 chain still mines correctly from the reloaded copy.
    WaitGraphBuilder builder(copy);
    const WaitGraph graph = builder.build(copy.instances()[0]);
    EXPECT_FALSE(graph.empty());
    EXPECT_GT(graph.topLevelDuration(), fromMs(700));
}

TEST(Integration, ReportOverMediumCorpus)
{
    EagerSource analyzer_source(mediumCorpus());
    Analyzer analyzer(analyzer_source);
    std::vector<ScenarioThresholds> scenarios;
    for (const ScenarioSpec &scn : scenarioCatalog())
        scenarios.push_back({scn.name, scn.tFast, scn.tSlow});
    const std::string report =
        buildReport(analyzer, scenarios, ReportOptions{});
    EXPECT_GT(report.size(), 1000u);
    EXPECT_NE(report.find("impact by component"), std::string::npos);
    // All eight scenarios show up.
    for (const ScenarioSpec &scn : scenarioCatalog())
        EXPECT_NE(report.find(scn.name), std::string::npos);
}

} // namespace
} // namespace tracelens
