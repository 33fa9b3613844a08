/**
 * @file
 * An independent oracle for contrast mining (paper Section 4.2.3).
 *
 * The reference below is written from the definitions, not from the
 * production miner: it brute-forces every downward segment of length
 * <= k of two AWGs into std::set-based Signature Set Tuples, tallies
 * each at its end node's (C, N), applies criteria (a) and (b), tests
 * every root-to-leaf path by checking each of its contiguous
 * sub-segments, and merges the selected paths by tuple. Its patterns
 * and counters must equal both ContrastMiner::mine over the same AWGs
 * and Analyzer::analyzeScenario, which mines over the scenario's path
 * trie, on many small generated corpora across k, the meta-pattern
 * gate, both AwgOptions flags and several threshold pairs.
 *
 * A second check pins history independence: the path trie's node and
 * tuple ids follow which classes grew it first, and no answer may.
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/awg/awg.h"
#include "src/core/analyzer.h"
#include "src/mining/miner.h"
#include "src/trace/merge.h"
#include "src/trace/source.h"
#include "src/workload/generator.h"
#include "src/workload/scenarios.h"

namespace tracelens
{
namespace
{

// ------------------------------------------------------ the reference

/** A Signature Set Tuple as three ordered sets (Definition 5). */
struct RefTuple
{
    std::set<FrameId> waits;
    std::set<FrameId> unwaits;
    std::set<FrameId> runnings;

    friend auto operator<=>(const RefTuple &, const RefTuple &) = default;
};

/** Definition 5: what one AWG node contributes to a segment's tuple. */
void
addNode(RefTuple &tuple, const AwgKey &key)
{
    if (key.status == AwgStatus::Waiting) {
        tuple.waits.insert(key.primary);
        tuple.unwaits.insert(key.secondary);
    } else {
        // Running signatures, and hardware dummy signatures with them.
        tuple.runnings.insert(key.primary);
    }
}

RefTuple
tupleOf(const AggregatedWaitGraph &awg,
        const std::vector<std::uint32_t> &segment)
{
    RefTuple tuple;
    for (std::uint32_t id : segment)
        addNode(tuple, awg.node(id).key);
    return tuple;
}

struct RefStats
{
    DurationNs cost = 0;
    std::uint64_t count = 0;
};

/** Every downward segment of 1..k nodes, tallied at its end node. */
std::map<RefTuple, RefStats>
referenceMetas(const AggregatedWaitGraph &awg, std::uint32_t k)
{
    std::map<RefTuple, RefStats> metas;
    for (std::uint32_t start = 0; start < awg.nodes().size(); ++start) {
        std::vector<std::vector<std::uint32_t>> segments = {{start}};
        while (!segments.empty()) {
            const std::vector<std::uint32_t> segment = segments.back();
            segments.pop_back();
            const auto &end = awg.node(segment.back());
            RefStats &stats = metas[tupleOf(awg, segment)];
            stats.cost += end.cost;
            stats.count += end.count;
            if (segment.size() == k)
                continue;
            for (std::uint32_t child : end.children) {
                std::vector<std::uint32_t> longer = segment;
                longer.push_back(child);
                segments.push_back(longer);
            }
        }
    }
    return metas;
}

/** Every root-to-leaf path of @p awg. */
std::vector<std::vector<std::uint32_t>>
fullPaths(const AggregatedWaitGraph &awg)
{
    std::vector<std::vector<std::uint32_t>> paths;
    std::vector<std::vector<std::uint32_t>> open;
    for (std::uint32_t root : awg.roots())
        open.push_back({root});
    while (!open.empty()) {
        const std::vector<std::uint32_t> path = open.back();
        open.pop_back();
        const auto &last = awg.node(path.back());
        if (last.children.empty()) {
            paths.push_back(path);
            continue;
        }
        for (std::uint32_t child : last.children) {
            std::vector<std::uint32_t> longer = path;
            longer.push_back(child);
            open.push_back(longer);
        }
    }
    return paths;
}

struct RefPattern
{
    RefTuple tuple;
    DurationNs cost = 0;
    std::uint64_t count = 0;
    DurationNs maxExec = 0;
};

struct RefResult
{
    std::vector<RefPattern> patterns;
    MiningStats stats;
};

/** Section 4.2.3's three steps, from the definitions. */
RefResult
referenceMine(const AggregatedWaitGraph &fast,
              const AggregatedWaitGraph &slow, const MiningOptions &o)
{
    RefResult result;
    const std::uint32_t k = o.maxSegmentLength;
    const std::map<RefTuple, RefStats> fast_metas = referenceMetas(fast, k);
    const std::map<RefTuple, RefStats> slow_metas = referenceMetas(slow, k);
    result.stats.fastMetaPatterns = fast_metas.size();
    result.stats.slowMetaPatterns = slow_metas.size();

    // (a) only in the slow class; (b) in both, with
    // (Ps.C / Ps.N) / (Pf.C / Pf.N) > T_slow / T_fast.
    std::set<RefTuple> contrasts;
    const double ratio =
        static_cast<double>(o.tSlow) / static_cast<double>(o.tFast);
    for (const auto &[tuple, s] : slow_metas) {
        const auto f = fast_metas.find(tuple);
        if (f == fast_metas.end()) {
            contrasts.insert(tuple);
            ++result.stats.slowOnlyContrasts;
            continue;
        }
        const double slow_avg = static_cast<double>(s.cost) /
                                static_cast<double>(s.count);
        const double fast_avg = static_cast<double>(f->second.cost) /
                                static_cast<double>(f->second.count);
        if (slow_avg / fast_avg > ratio) {
            contrasts.insert(tuple);
            ++result.stats.ratioContrasts;
        }
    }

    // A full slow path is selected when one of its contiguous
    // sub-segments of <= k nodes is a contrast meta-pattern; selected
    // paths with equal tuples merge.
    std::map<RefTuple, RefPattern> merged;
    for (const std::vector<std::uint32_t> &path : fullPaths(slow)) {
        ++result.stats.fullPaths;
        bool selected = !o.useMetaPatternGate;
        for (std::size_t a = 0; a < path.size() && !selected; ++a) {
            for (std::size_t b = a + 1;
                 b <= std::min<std::size_t>(path.size(), a + k); ++b) {
                const std::vector<std::uint32_t> sub(path.begin() + a,
                                                     path.begin() + b);
                if (contrasts.count(tupleOf(slow, sub)) != 0) {
                    selected = true;
                    break;
                }
            }
        }
        if (!selected)
            continue;
        ++result.stats.selectedPaths;
        const auto &leaf = slow.node(path.back());
        const RefTuple tuple = tupleOf(slow, path);
        RefPattern &pattern = merged[tuple];
        pattern.tuple = tuple;
        pattern.cost += leaf.cost;
        pattern.count += leaf.count;
        pattern.maxExec = std::max(pattern.maxExec, leaf.maxCost);
    }

    // Rank by impact P.C / P.N, then cost, count, and the tuple.
    for (auto &[tuple, pattern] : merged)
        result.patterns.push_back(pattern);
    std::sort(result.patterns.begin(), result.patterns.end(),
              [](const RefPattern &a, const RefPattern &b) {
                  const double ia = static_cast<double>(a.cost) /
                                    static_cast<double>(a.count);
                  const double ib = static_cast<double>(b.cost) /
                                    static_cast<double>(b.count);
                  if (ia != ib)
                      return ia > ib;
                  if (a.cost != b.cost)
                      return a.cost > b.cost;
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.tuple < b.tuple;
              });
    return result;
}

// --------------------------------------------------------- comparison

std::vector<FrameId>
asVector(const std::set<FrameId> &set)
{
    return {set.begin(), set.end()};
}

void
expectMatches(const RefResult &want, const MiningResult &got,
              const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(got.stats.render(), want.stats.render());
    ASSERT_EQ(got.patterns.size(), want.patterns.size());
    for (std::size_t i = 0; i < want.patterns.size(); ++i) {
        const RefPattern &w = want.patterns[i];
        const ContrastPattern &g = got.patterns[i];
        EXPECT_EQ(g.tuple.waits, asVector(w.tuple.waits)) << "rank " << i;
        EXPECT_EQ(g.tuple.unwaits, asVector(w.tuple.unwaits))
            << "rank " << i;
        EXPECT_EQ(g.tuple.runnings, asVector(w.tuple.runnings))
            << "rank " << i;
        EXPECT_EQ(g.cost, w.cost) << "rank " << i;
        EXPECT_EQ(g.count, w.count) << "rank " << i;
        EXPECT_EQ(g.maxExec, w.maxExec) << "rank " << i;
    }
}

/**
 * Threshold pairs for one scenario, from its own durations: the
 * catalog-free quantile pairs (10, 50), (30, 70) and (50, 90) percent,
 * so both classes are usually non-empty on a small corpus.
 */
std::vector<std::pair<DurationNs, DurationNs>>
thresholdPairs(const TraceCorpus &corpus, std::uint32_t scenario)
{
    std::vector<DurationNs> durations;
    for (std::uint32_t i : corpus.instancesOfScenario(scenario))
        durations.push_back(corpus.instanceDurations()[i]);
    std::sort(durations.begin(), durations.end());
    std::vector<std::pair<DurationNs, DurationNs>> pairs;
    if (durations.empty())
        return pairs;
    auto at = [&](int percent) {
        return durations[(durations.size() - 1) *
                         static_cast<std::size_t>(percent) / 100];
    };
    for (const auto &[lo, hi] : {std::pair{10, 50}, {30, 70}, {50, 90}}) {
        const DurationNs t_fast = std::max<DurationNs>(1, at(lo));
        const DurationNs t_slow = at(hi);
        if (t_slow > t_fast)
            pairs.emplace_back(t_fast, t_slow);
    }
    return pairs;
}

/** The Analyzer configuration a seed picks: k, gate, both AWG flags. */
AnalyzerConfig
configForSeed(std::uint64_t seed)
{
    static constexpr std::uint32_t kLengths[] = {1, 2, 3, 5};
    AnalyzerConfig config;
    config.threads = 1;
    config.maxSegmentLength = kLengths[seed % 4];
    config.useMetaPatternGate = (seed / 4) % 2 == 0;
    config.awg.eliminateInnerIrrelevant = (seed / 8) % 2 == 0;
    config.awg.reduceNonOptimizable = (seed / 16) % 2 == 0;
    return config;
}

/** Three machines running one catalog scenario, which the seed picks. */
CorpusSpec
tinySpec(std::uint64_t seed)
{
    const std::vector<ScenarioSpec> &catalog = scenarioCatalog();
    CorpusSpec spec;
    spec.seed = seed;
    spec.machines = 3;
    spec.onlyScenarios = {catalog[(seed * 7) % catalog.size()].name};
    return spec;
}

/** Seeds [first, first + count) against the reference. */
void
checkSeeds(std::uint64_t first, std::uint64_t count)
{
    // Guards against a vacuous pass: the group must compare queries
    // whose reference answers are not empty.
    std::size_t queries = 0, patterns = 0;
    for (std::uint64_t seed = first; seed < first + count; ++seed) {
        const TraceCorpus corpus = generateCorpus(tinySpec(seed));
        const AnalyzerConfig config = configForSeed(seed);
        EagerSource source(corpus);
        const Analyzer analyzer(source, config);
        const AwgBuilder builder(corpus, analyzer.components(),
                                 config.awg);
        for (std::uint32_t scenario = 0;
             scenario < corpus.scenarioCount(); ++scenario) {
            const std::string &name = corpus.scenarioName(scenario);
            for (const auto &[t_fast, t_slow] :
                 thresholdPairs(corpus, scenario)) {
                const std::string what =
                    "seed " + std::to_string(seed) + " " + name + " " +
                    std::to_string(t_fast) + "/" + std::to_string(t_slow) +
                    " k=" + std::to_string(config.maxSegmentLength);
                const ContrastClasses classes =
                    analyzer.classify(scenario, t_fast, t_slow);
                std::vector<WaitGraph> fast_graphs, slow_graphs;
                for (std::uint32_t i : classes.fast)
                    fast_graphs.push_back(analyzer.graphs()[i]);
                for (std::uint32_t i : classes.slow)
                    slow_graphs.push_back(analyzer.graphs()[i]);
                const AggregatedWaitGraph fast =
                    builder.aggregate(fast_graphs);
                const AggregatedWaitGraph slow =
                    builder.aggregate(slow_graphs);

                MiningOptions options;
                options.maxSegmentLength = config.maxSegmentLength;
                options.useMetaPatternGate = config.useMetaPatternGate;
                options.tFast = t_fast;
                options.tSlow = t_slow;
                const RefResult want = referenceMine(fast, slow, options);
                ++queries;
                patterns += want.patterns.size();

                const ContrastMiner miner(corpus, options);
                expectMatches(want, miner.mine(fast, slow),
                              what + " ContrastMiner::mine");
                const ScenarioAnalysis analysis =
                    analyzer.analyzeScenario(name, t_fast, t_slow);
                expectMatches(want, *analysis.mining,
                              what + " Analyzer::analyzeScenario");
                EXPECT_EQ(analysis.slowReducedCost, slow.reducedCost())
                    << what;
                EXPECT_EQ(analysis.slowRootCost, slow.totalRootCost())
                    << what;
            }
        }
    }
    EXPECT_GE(queries, count);
    EXPECT_GE(patterns, queries);
}

// Eight groups of 32 seeds: every configuration of configForSeed()
// appears eight times, and ctest runs the groups in parallel.
class MiningOracle : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MiningOracle, MatchesTheDefinitionsOnGeneratedCorpora)
{
    checkSeeds(GetParam() * 32 + 1, 32);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MiningOracle,
                         ::testing::Range<std::uint64_t>(0, 8));

// --------------------------------------------------- history independence

/** Everything an analysis answers, names resolved, for comparison. */
std::string
answerOf(const Analyzer &analyzer, const std::string &name,
         DurationNs t_fast, DurationNs t_slow)
{
    const ScenarioAnalysis a = analyzer.analyzeScenario(name, t_fast, t_slow);
    const SymbolTable &symbols = analyzer.corpus().symbols();
    std::ostringstream oss;
    oss << a.classes.fast.size() << "/" << a.classes.middle.size() << "/"
        << a.classes.slow.size() << " " << a.slowImpact.render() << " "
        << a.slowDuration << " " << a.slowReducedCost << " "
        << a.slowRootCost << "\n"
        << a.mining->stats.render() << "\n"
        << a.coverage.render() << "\n";
    for (const ContrastPattern &p : a.mining->patterns)
        oss << p.cost << " " << p.count << " " << p.maxExec << " "
            << p.tuple.renderCompact(symbols) << "\n";
    return oss.str();
}

TEST(MiningOracle, AnswersDoNotDependOnQueryHistory)
{
    CorpusSpec spec;
    spec.seed = 77;
    spec.machines = 8;
    const TraceCorpus corpus = generateCorpus(spec);
    const std::vector<TraceCorpus> parts = splitCorpus(corpus, 3);
    ASSERT_EQ(parts.size(), 3u);
    TraceCorpus merged;
    for (const TraceCorpus &part : parts)
        appendCorpus(merged, part);

    AnalyzerConfig config;
    config.threads = 2;
    EagerSource source_ab(merged), source_ba(merged);
    const Analyzer ab(source_ab, config);
    const Analyzer ba(source_ba, config);

    for (std::uint32_t scenario = 0; scenario < merged.scenarioCount();
         ++scenario) {
        const std::string &name = merged.scenarioName(scenario);
        const auto pairs = thresholdPairs(merged, scenario);
        if (pairs.size() < 2)
            continue;
        SCOPED_TRACE(name);
        const auto [a_fast, a_slow] = pairs.front();
        const auto [b_fast, b_slow] = pairs.back();

        auto fresh = [&](DurationNs t_fast, DurationNs t_slow) {
            EagerSource source(merged);
            const Analyzer analyzer(source, config);
            return answerOf(analyzer, name, t_fast, t_slow);
        };
        const std::string want_a = fresh(a_fast, a_slow);
        const std::string want_b = fresh(b_fast, b_slow);

        EXPECT_EQ(answerOf(ab, name, a_fast, a_slow), want_a);
        EXPECT_EQ(answerOf(ab, name, b_fast, b_slow), want_b);
        EXPECT_EQ(answerOf(ba, name, b_fast, b_slow), want_b);
        EXPECT_EQ(answerOf(ba, name, a_fast, a_slow), want_a);
    }
}

} // namespace
} // namespace tracelens
