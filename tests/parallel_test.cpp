/**
 * @file
 * Determinism and safety tests for the corpus-parallel pipeline.
 *
 * The contract under test: every analysis stage produces bit-identical
 * results for threads=1 and threads=hardware_concurrency (the parallel
 * paths shard only order-insensitive work and keep every
 * order-sensitive fold serial). Plus ThreadSanitizer-friendly smoke
 * tests of the work-stealing pool itself — run these under the tsan
 * CMake preset: ctest --preset tsan -L tsan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/analyzer.h"
#include "src/util/parallel.h"
#include "src/waitgraph/waitgraph.h"
#include "src/workload/generator.h"
#include "src/workload/scenarios.h"

namespace tracelens
{
namespace
{

unsigned
manyThreads()
{
    // At least 4 so the pool, the steals, and the shard merges are
    // genuinely exercised even on single-core CI machines.
    return std::max(4u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------- pool

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    const std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    ThreadPool pool(manyThreads());
    pool.parallelFor(0, n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossJobs)
{
    ThreadPool pool(manyThreads());
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::int64_t> sum{0};
        pool.parallelFor(0, 1000, [&](std::size_t i) {
            sum.fetch_add(static_cast<std::int64_t>(i),
                          std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 999 * 1000 / 2);
    }
}

TEST(ThreadPool, StealsUnbalancedWork)
{
    // Front-loaded shard sizes: worker 0 owns indices that each spin,
    // the rest finish instantly and must steal to keep the wall time
    // bounded. Correctness (full coverage) is what we assert.
    const std::size_t n = 256;
    std::vector<std::atomic<int>> hits(n);
    ThreadPool pool(manyThreads());
    pool.parallelFor(0, n, [&](std::size_t i) {
        if (i < n / 8) { // heavy head
            volatile std::uint64_t x = 0;
            for (int k = 0; k < 20000; ++k)
                x = x + static_cast<std::uint64_t>(k);
        }
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    const std::thread::id self = std::this_thread::get_id();
    pool.parallelFor(5, 8, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), self);
    });
}

TEST(ThreadPool, PropagatesBodyException)
{
    ThreadPool pool(manyThreads());
    EXPECT_THROW(pool.parallelFor(0, 100,
                                  [](std::size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<int> count{0};
    pool.parallelFor(0, 10, [&](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 10);
}

TEST(ParallelMap, ResultsInIndexOrder)
{
    const auto squares = parallelMap<std::size_t>(
        manyThreads(), 5000, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 5000u);
    for (std::size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(ParallelFor, RespectsBeginOffset)
{
    std::atomic<std::int64_t> sum{0};
    parallelFor(manyThreads(), 100, 200, [&](std::size_t i) {
        sum.fetch_add(static_cast<std::int64_t>(i),
                      std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

// ------------------------------------------------------- determinism

CorpusSpec
smallFleet()
{
    CorpusSpec spec;
    spec.machines = 30;
    spec.seed = 0xC0FFEE;
    return spec;
}

void
expectSameImpact(const ImpactResult &a, const ImpactResult &b)
{
    EXPECT_EQ(a.dScn, b.dScn);
    EXPECT_EQ(a.dWait, b.dWait);
    EXPECT_EQ(a.dRun, b.dRun);
    EXPECT_EQ(a.dWaitDist, b.dWaitDist);
    EXPECT_EQ(a.instances, b.instances);
}

TEST(ParallelDeterminism, WaitGraphsIdentical)
{
    const TraceCorpus corpus = generateCorpus(smallFleet());
    WaitGraphBuilder builder(corpus);
    const std::vector<WaitGraph> serial = builder.buildAll();
    const std::vector<WaitGraph> parallel =
        builder.buildAllParallel(manyThreads());

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t g = 0; g < serial.size(); ++g) {
        ASSERT_EQ(serial[g].size(), parallel[g].size()) << "graph " << g;
        ASSERT_EQ(serial[g].roots(), parallel[g].roots());
        for (std::size_t n = 0; n < serial[g].size(); ++n) {
            const auto &sn = serial[g].nodes()[n];
            const auto &pn = parallel[g].nodes()[n];
            EXPECT_EQ(sn.ref, pn.ref);
            EXPECT_EQ(sn.event.cost, pn.event.cost);
            const auto sc = serial[g].children(sn);
            const auto pc = parallel[g].children(pn);
            EXPECT_TRUE(std::equal(sc.begin(), sc.end(), pc.begin(),
                                   pc.end()));
            EXPECT_EQ(sn.unwaitStack, pn.unwaitStack);
        }
    }
}

TEST(ParallelDeterminism, ImpactAllIdentical)
{
    const TraceCorpus corpus = generateCorpus(smallFleet());

    AnalyzerConfig serial_config;
    serial_config.threads = 1;
    EagerSource serial_source(corpus);
    Analyzer serial(serial_source, serial_config);

    AnalyzerConfig parallel_config;
    parallel_config.threads = manyThreads();
    EagerSource parallel_source(corpus);
    Analyzer parallel(parallel_source, parallel_config);

    expectSameImpact(serial.impactAll(), parallel.impactAll());

    const auto serial_per = serial.impactPerScenario();
    const auto parallel_per = parallel.impactPerScenario();
    ASSERT_EQ(serial_per.size(), parallel_per.size());
    for (const auto &[scenario, impact] : serial_per) {
        auto it = parallel_per.find(scenario);
        ASSERT_NE(it, parallel_per.end());
        expectSameImpact(impact, it->second);
    }
}

TEST(ParallelDeterminism, ScenarioAnalysisIdentical)
{
    const TraceCorpus corpus = generateCorpus(smallFleet());

    AnalyzerConfig serial_config;
    serial_config.threads = 1;
    EagerSource serial_source(corpus);
    Analyzer serial(serial_source, serial_config);

    AnalyzerConfig parallel_config;
    parallel_config.threads = manyThreads();
    EagerSource parallel_source(corpus);
    Analyzer parallel(parallel_source, parallel_config);

    for (const ScenarioSpec &spec : scenarioCatalog()) {
        if (!spec.selected ||
            corpus.findScenario(spec.name) == UINT32_MAX)
            continue;
        SCOPED_TRACE(spec.name);
        const ScenarioAnalysis a =
            serial.analyzeScenario(spec.name, spec.tFast, spec.tSlow);
        const ScenarioAnalysis b =
            parallel.analyzeScenario(spec.name, spec.tFast, spec.tSlow);

        EXPECT_EQ(a.classes.fast, b.classes.fast);
        EXPECT_EQ(a.classes.slow, b.classes.slow);
        EXPECT_EQ(a.classes.middle, b.classes.middle);
        expectSameImpact(a.slowImpact, b.slowImpact);
        EXPECT_EQ(a.slowDuration, b.slowDuration);

        // AWGs: identical structure including node order (the trie
        // fold is serial and ordered in both paths).
        EXPECT_EQ(a.slowReducedCost, b.slowReducedCost);
        EXPECT_EQ(a.slowRootCost, b.slowRootCost);
        const ClassAwgs awgsA =
            serial.scenarioAwgs(spec.name, spec.tFast, spec.tSlow);
        const ClassAwgs awgsB =
            parallel.scenarioAwgs(spec.name, spec.tFast, spec.tSlow);
        EXPECT_EQ(awgsA.slow.reducedCost(), awgsB.slow.reducedCost());
        EXPECT_EQ(awgsA.slow.totalRootCost(), awgsB.slow.totalRootCost());
        EXPECT_EQ(awgsA.fast.renderText(corpus.symbols(), 10000),
                  awgsB.fast.renderText(corpus.symbols(), 10000));
        EXPECT_EQ(awgsA.slow.renderText(corpus.symbols(), 10000),
                  awgsB.slow.renderText(corpus.symbols(), 10000));

        // Mined pattern ranking: identical order and contents.
        ASSERT_EQ(a.mining->patterns.size(), b.mining->patterns.size());
        for (std::size_t i = 0; i < a.mining->patterns.size(); ++i) {
            const ContrastPattern &pa = a.mining->patterns[i];
            const ContrastPattern &pb = b.mining->patterns[i];
            EXPECT_EQ(pa.cost, pb.cost) << "pattern " << i;
            EXPECT_EQ(pa.count, pb.count) << "pattern " << i;
            EXPECT_EQ(pa.maxExec, pb.maxExec) << "pattern " << i;
            EXPECT_EQ(pa.tuple.waits, pb.tuple.waits);
            EXPECT_EQ(pa.tuple.unwaits, pb.tuple.unwaits);
            EXPECT_EQ(pa.tuple.runnings, pb.tuple.runnings);
        }
        EXPECT_EQ(a.mining->stats.fullPaths, b.mining->stats.fullPaths);
        EXPECT_EQ(a.mining->stats.selectedPaths,
                  b.mining->stats.selectedPaths);

        EXPECT_EQ(a.coverage.componentCost, b.coverage.componentCost);
        EXPECT_EQ(a.coverage.impactfulCost, b.coverage.impactfulCost);
        EXPECT_EQ(a.coverage.totalCost, b.coverage.totalCost);
        EXPECT_EQ(a.coverage.patternCount, b.coverage.patternCount);
    }
}

TEST(ParallelDeterminism, ScenarioFanOutMatchesSequentialCalls)
{
    const TraceCorpus corpus = generateCorpus(smallFleet());
    AnalyzerConfig config;
    config.threads = manyThreads();
    EagerSource analyzer_source(corpus);
    Analyzer analyzer(analyzer_source, config);

    std::vector<ScenarioThresholds> requests;
    for (const ScenarioSpec &spec : scenarioCatalog()) {
        if (spec.selected &&
            corpus.findScenario(spec.name) != UINT32_MAX)
            requests.push_back({spec.name, spec.tFast, spec.tSlow});
    }
    ASSERT_FALSE(requests.empty());

    const std::vector<ScenarioAnalysis> fanned =
        analyzer.analyzeScenarios(requests);
    ASSERT_EQ(fanned.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const ScenarioAnalysis direct = analyzer.analyzeScenario(
            requests[i].name, requests[i].tFast, requests[i].tSlow);
        EXPECT_EQ(fanned[i].name, direct.name);
        EXPECT_EQ(fanned[i].classes.slow, direct.classes.slow);
        expectSameImpact(fanned[i].slowImpact, direct.slowImpact);
        ASSERT_EQ(fanned[i].mining->patterns.size(),
                  direct.mining->patterns.size());
        for (std::size_t p = 0; p < direct.mining->patterns.size(); ++p) {
            EXPECT_EQ(fanned[i].mining->patterns[p].cost,
                      direct.mining->patterns[p].cost);
            EXPECT_EQ(fanned[i].mining->patterns[p].count,
                      direct.mining->patterns[p].count);
        }
    }
}

} // namespace
} // namespace tracelens
