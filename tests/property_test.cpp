/**
 * @file
 * Property-based tests: invariants that must hold on *any* generated
 * corpus, swept over seeds and fleet shapes with parameterized gtest.
 */

#include <map>
#include <sstream>
#include <unordered_set>

#include <gtest/gtest.h>

#include "src/core/analyzer.h"
#include "src/mining/coverage.h"
#include "src/trace/csv.h"
#include "src/trace/serialize.h"
#include "src/trace/validate.h"
#include "src/workload/generator.h"
#include "tests/corpus_bytes.h"

namespace tracelens
{
namespace
{

struct CorpusParam
{
    std::uint64_t seed;
    std::uint32_t machines;
};

void
PrintTo(const CorpusParam &p, std::ostream *os)
{
    *os << "seed" << p.seed << "_machines" << p.machines;
}

class CorpusProperty : public testing::TestWithParam<CorpusParam>
{
  protected:
    static const TraceCorpus &
    corpus()
    {
        // Cache per parameter: corpora are expensive to regenerate for
        // every property.
        static std::map<std::pair<std::uint64_t, std::uint32_t>,
                        TraceCorpus>
            cache;
        const auto key = std::make_pair(GetParam().seed,
                                        GetParam().machines);
        auto it = cache.find(key);
        if (it == cache.end()) {
            CorpusSpec spec;
            spec.seed = GetParam().seed;
            spec.machines = GetParam().machines;
            it = cache.emplace(key, generateCorpus(spec)).first;
        }
        return it->second;
    }
};

TEST_P(CorpusProperty, TracesAreStructurallySound)
{
    const ValidationReport report = validateCorpus(corpus());
    EXPECT_EQ(report.strayUnwaits, 0u) << report.render();
    EXPECT_EQ(report.selfUnwaits, 0u) << report.render();
    EXPECT_EQ(report.stacklessEvents, 0u) << report.render();
}

TEST_P(CorpusProperty, EventsAreTimeOrderedWithinStreams)
{
    const TraceCorpus &c = corpus();
    for (std::uint32_t s = 0; s < c.streamCount(); ++s) {
        TimeNs last = std::numeric_limits<TimeNs>::min();
        for (const Event &e : c.stream(s).events()) {
            EXPECT_GE(e.timestamp, last);
            EXPECT_GE(e.cost, 0);
            last = e.timestamp;
        }
    }
}

TEST_P(CorpusProperty, ImpactInvariants)
{
    EagerSource analyzer_source(corpus());
    Analyzer analyzer(analyzer_source);
    const ImpactResult impact = analyzer.impactAll();

    EXPECT_GE(impact.dWait, impact.dWaitDist);
    EXPECT_GE(impact.dWaitDist, 0);
    EXPECT_GE(impact.iaOpt(), 0.0);
    EXPECT_LE(impact.iaWait(), 1.0 + 1e-9);
    EXPECT_GE(impact.iaWait(), 0.0);
    EXPECT_GE(impact.iaRun(), 0.0);
    if (impact.dWaitDist > 0) {
        EXPECT_GE(impact.waitAmplification(), 1.0);
    }
}

TEST_P(CorpusProperty, PerScenarioImpactPartitionsTotals)
{
    EagerSource analyzer_source(corpus());
    Analyzer analyzer(analyzer_source);
    const ImpactResult total = analyzer.impactAll();
    const auto per = analyzer.impactPerScenario();

    DurationNs scn = 0, run = 0;
    std::size_t instances = 0;
    for (const auto &[id, result] : per) {
        scn += result.dScn;
        run += result.dRun;
        instances += result.instances;
    }
    EXPECT_EQ(scn, total.dScn);
    EXPECT_EQ(run, total.dRun);
    EXPECT_EQ(instances, total.instances);
    // D_wait also partitions (it is per-instance); D_waitdist does not
    // (scenario-local dedup keeps more duplicates than global dedup).
    DurationNs wait = 0, waitdist = 0;
    for (const auto &[id, result] : per) {
        wait += result.dWait;
        waitdist += result.dWaitDist;
    }
    EXPECT_EQ(wait, total.dWait);
    EXPECT_GE(waitdist, total.dWaitDist);
}

TEST_P(CorpusProperty, WaitGraphChildCostsAreWindowClipped)
{
    const TraceCorpus &c = corpus();
    WaitGraphBuilder builder(c);
    for (const ScenarioInstance &instance : c.instances()) {
        const WaitGraph graph = builder.build(instance);
        for (const auto &node : graph.nodes()) {
            for (std::uint32_t child : graph.children(node)) {
                EXPECT_LE(graph.node(child).event.cost,
                          node.event.cost);
            }
        }
    }
}

TEST_P(CorpusProperty, WaitGraphEventsAreUniquePerGraph)
{
    const TraceCorpus &c = corpus();
    WaitGraphBuilder builder(c);
    for (const ScenarioInstance &instance : c.instances()) {
        const WaitGraph graph = builder.build(instance);
        std::unordered_set<EventRef, EventRefHash> seen;
        for (const auto &node : graph.nodes())
            EXPECT_TRUE(seen.insert(node.ref).second);
    }
}

TEST_P(CorpusProperty, BinarySerializationRoundTripsExactly)
{
    std::stringstream first;
    writeCorpus(corpus(), first);
    const TraceCorpus copy = decodeCorpusBytes(first.str());
    std::stringstream second;
    writeCorpus(copy, second);
    EXPECT_EQ(first.str(), second.str());
}

TEST_P(CorpusProperty, CsvAndBinaryAgreeOnEventCounts)
{
    std::ostringstream events, instances;
    writeEventsCsv(corpus(), events);
    writeInstancesCsv(corpus(), instances);
    std::istringstream ein(events.str()), iin(instances.str());
    const TraceCorpus copy = readCorpusCsv(ein, iin);
    EXPECT_EQ(copy.totalEvents(), corpus().totalEvents());
    EXPECT_EQ(copy.instances().size(), corpus().instances().size());
    EXPECT_EQ(copy.streamCount(), corpus().streamCount());
}

TEST_P(CorpusProperty, ScenarioAnalysisInvariants)
{
    EagerSource analyzer_source(corpus());
    Analyzer analyzer(analyzer_source);
    for (const ScenarioSpec &scn : scenarioCatalog()) {
        if (corpus().findScenario(scn.name) == UINT32_MAX)
            continue;
        const ScenarioAnalysis analysis = analyzer.analyzeScenario(
            scn.name, scn.tFast, scn.tSlow);

        // Classes partition instances of the scenario.
        const auto all = corpus().instancesOfScenario(
            corpus().findScenario(scn.name));
        EXPECT_EQ(analysis.classes.fast.size() +
                      analysis.classes.middle.size() +
                      analysis.classes.slow.size(),
                  all.size());

        // Coverage sanity.
        EXPECT_LE(analysis.coverage.itc(),
                  analysis.coverage.ttc() + 1e-9);
        EXPECT_GE(analysis.coverage.itc(), 0.0);
        EXPECT_GE(analysis.nonOptimizableShare(), 0.0);
        EXPECT_LE(analysis.nonOptimizableShare(), 1.0);

        // Ranking is by impact, descending; tuples are canonical.
        double last = std::numeric_limits<double>::infinity();
        for (const ContrastPattern &p : analysis.mining->patterns) {
            EXPECT_LE(p.impact(), last + 1e-9);
            last = p.impact();
            SignatureSetTuple normalized = p.tuple;
            normalized.normalize();
            EXPECT_EQ(normalized, p.tuple);
            EXPECT_GT(p.count, 0u);
            EXPECT_GE(p.cost, 0);
            EXPECT_LE(p.maxExec, p.cost);
        }

        // Ranked coverage is monotone in the inspected fraction.
        double prev = 0.0;
        for (double f : {0.1, 0.2, 0.3, 0.5, 1.0}) {
            const double cov = topPatternCoverage(*analysis.mining, f);
            EXPECT_GE(cov, prev - 1e-9);
            prev = cov;
        }
        if (!analysis.mining->patterns.empty() &&
            analysis.mining->totalPatternCost() > 0) {
            EXPECT_NEAR(topPatternCoverage(*analysis.mining, 1.0), 1.0,
                        1e-9);
        }

        // AWG structural sanity: no node reachable twice from roots.
        const AggregatedWaitGraph awgSlow =
            analyzer.scenarioAwgs(scn.name, scn.tFast, scn.tSlow).slow;
        std::unordered_set<std::uint32_t> visited;
        std::vector<std::uint32_t> stack(awgSlow.roots().begin(),
                                         awgSlow.roots().end());
        while (!stack.empty()) {
            const std::uint32_t id = stack.back();
            stack.pop_back();
            EXPECT_TRUE(visited.insert(id).second)
                << "AWG node " << id << " reachable twice";
            for (std::uint32_t child : awgSlow.node(id).children)
                stack.push_back(child);
        }
    }
}

TEST_P(CorpusProperty, GenerationIsDeterministic)
{
    CorpusSpec spec;
    spec.seed = GetParam().seed;
    spec.machines = GetParam().machines;
    const TraceCorpus again = generateCorpus(spec);
    std::ostringstream a, b;
    writeCorpus(corpus(), a);
    writeCorpus(again, b);
    EXPECT_EQ(a.str(), b.str());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CorpusProperty,
    testing::Values(CorpusParam{1, 6}, CorpusParam{2, 6},
                    CorpusParam{3, 10}, CorpusParam{20140301, 8},
                    CorpusParam{0xdeadbeef, 12}),
    [](const testing::TestParamInfo<CorpusParam> &info) {
        return "seed" + std::to_string(info.param.seed) + "x" +
               std::to_string(info.param.machines);
    });

/** Mining determinism on a fixed corpus. */
TEST(MiningProperty, MiningIsDeterministic)
{
    CorpusSpec spec;
    spec.machines = 8;
    spec.seed = 99;
    const TraceCorpus corpus = generateCorpus(spec);

    auto run = [&] {
        EagerSource analyzer_source(corpus);
        Analyzer analyzer(analyzer_source);
        const ScenarioAnalysis analysis = analyzer.analyzeScenario(
            "WebPageNavigation", fromMs(500), fromMs(1000));
        std::ostringstream oss;
        for (const ContrastPattern &p : analysis.mining->patterns) {
            oss << p.tuple.renderCompact(corpus.symbols()) << "|"
                << p.cost << "|" << p.count << "\n";
        }
        return oss.str();
    };
    EXPECT_EQ(run(), run());
}

/** Larger k never loses patterns relative to k-1 on the same corpus. */
TEST(MiningProperty, MetaPatternsGrowMonotonicallyWithK)
{
    CorpusSpec spec;
    spec.machines = 6;
    spec.seed = 5;
    spec.onlyScenarios = {"BrowserTabCreate"};
    const TraceCorpus corpus = generateCorpus(spec);

    std::size_t last = 0;
    for (std::uint32_t k = 1; k <= 6; ++k) {
        AnalyzerConfig config;
        config.maxSegmentLength = k;
        EagerSource analyzer_source(corpus);
        Analyzer analyzer(analyzer_source, config);
        const ScenarioAnalysis analysis = analyzer.analyzeScenario(
            "BrowserTabCreate", fromMs(300), fromMs(500));
        EXPECT_GE(analysis.mining->stats.slowMetaPatterns, last);
        last = analysis.mining->stats.slowMetaPatterns;
    }
}

} // namespace
} // namespace tracelens
