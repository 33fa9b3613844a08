/**
 * @file
 * Microbenchmarks (google-benchmark) of the TraceLens pipeline stages:
 * simulation/trace generation, wait-graph construction, impact
 * analysis, AWG aggregation, meta-pattern enumeration, full mining,
 * and corpus serialization.
 *
 * Before the registered benchmarks run, main() executes the columnar
 * regression contract of docs/PERFORMANCE.md: the production
 * WaitGraphBuilder is raced against the faithful pre-refactor builder
 * (bench/legacy_waitgraph.h) over the shared corpus, node-for-node
 * parity is asserted, rendered reports must be byte-identical across
 * 1/4/8 build threads, and the per-shard build must be at least
 * kMinSpeedup times faster than the legacy path. Results land in
 * BENCH_micro.json in the working directory; any violation exits
 * non-zero. Pass --contract-only to skip the google-benchmark suite.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/legacy_waitgraph.h"

#include "src/awg/awg.h"
#include "src/core/analyzer.h"
#include "src/impact/impact.h"
#include "src/mining/miner.h"
#include "src/trace/serialize.h"
#include "src/waitgraph/waitgraph.h"
#include "src/workload/generator.h"

namespace
{

using namespace tracelens;

const TraceCorpus &
sharedCorpus()
{
    static const TraceCorpus corpus = [] {
        CorpusSpec spec;
        spec.machines = 30;
        spec.seed = 42;
        return generateCorpus(spec);
    }();
    return corpus;
}

void
BM_GenerateMachine(benchmark::State &state)
{
    CorpusSpec spec;
    spec.machines = 1;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        spec.seed = seed++;
        TraceCorpus corpus = generateCorpus(spec);
        benchmark::DoNotOptimize(corpus.totalEvents());
    }
}
BENCHMARK(BM_GenerateMachine)->Unit(benchmark::kMillisecond);

void
BM_WaitGraphBuildAll(benchmark::State &state)
{
    const TraceCorpus &corpus = sharedCorpus();
    for (auto _ : state) {
        WaitGraphBuilder builder(corpus);
        auto graphs = builder.buildAll();
        benchmark::DoNotOptimize(graphs.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(corpus.instances().size()));
}
BENCHMARK(BM_WaitGraphBuildAll)->Unit(benchmark::kMillisecond);

void
BM_ImpactAnalysis(benchmark::State &state)
{
    const TraceCorpus &corpus = sharedCorpus();
    WaitGraphBuilder builder(corpus);
    const auto graphs = builder.buildAll();
    ImpactAnalysis impact(corpus, NameFilter({"*.sys"}));
    for (auto _ : state) {
        const ImpactResult result = impact.analyze(graphs);
        benchmark::DoNotOptimize(result.dWait);
    }
}
BENCHMARK(BM_ImpactAnalysis)->Unit(benchmark::kMillisecond);

void
BM_AwgAggregate(benchmark::State &state)
{
    const TraceCorpus &corpus = sharedCorpus();
    WaitGraphBuilder builder(corpus);
    const auto graphs = builder.buildAll();
    AwgBuilder awg_builder(corpus, NameFilter({"*.sys"}));
    for (auto _ : state) {
        const AggregatedWaitGraph awg = awg_builder.aggregate(graphs);
        benchmark::DoNotOptimize(awg.nodes().size());
    }
}
BENCHMARK(BM_AwgAggregate)->Unit(benchmark::kMillisecond);

void
BM_MetaPatternEnumeration(benchmark::State &state)
{
    const TraceCorpus &corpus = sharedCorpus();
    WaitGraphBuilder builder(corpus);
    const auto graphs = builder.buildAll();
    AwgBuilder awg_builder(corpus, NameFilter({"*.sys"}));
    const AggregatedWaitGraph awg = awg_builder.aggregate(graphs);
    MiningOptions options;
    options.maxSegmentLength =
        static_cast<std::uint32_t>(state.range(0));
    ContrastMiner miner(corpus, options);
    for (auto _ : state) {
        const auto metas = miner.enumerateMetaPatterns(awg);
        benchmark::DoNotOptimize(metas.size());
    }
}
BENCHMARK(BM_MetaPatternEnumeration)
    ->Arg(1)
    ->Arg(3)
    ->Arg(5)
    ->Arg(7)
    ->Unit(benchmark::kMillisecond);

void
BM_FullScenarioAnalysis(benchmark::State &state)
{
    const TraceCorpus &corpus = sharedCorpus();
    for (auto _ : state) {
        EagerSource analyzer_source(corpus);
        Analyzer analyzer(analyzer_source);
        const ScenarioAnalysis analysis = analyzer.analyzeScenario(
            "WebPageNavigation", fromMs(500), fromMs(1000));
        benchmark::DoNotOptimize(analysis.mining->patterns.size());
    }
}
BENCHMARK(BM_FullScenarioAnalysis)->Unit(benchmark::kMillisecond);

void
BM_SerializeCorpus(benchmark::State &state)
{
    const TraceCorpus &corpus = sharedCorpus();
    for (auto _ : state) {
        std::ostringstream buffer;
        writeCorpus(corpus, buffer);
        benchmark::DoNotOptimize(buffer.str().size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(sharedCorpus().totalEvents()));
}
BENCHMARK(BM_SerializeCorpus)->Unit(benchmark::kMillisecond);

void
BM_DeserializeCorpus(benchmark::State &state)
{
    std::ostringstream buffer;
    writeCorpus(sharedCorpus(), buffer);
    const std::string bytes = buffer.str();
    for (auto _ : state) {
        const Expected<TraceCorpus> corpus =
            parseCorpus(std::as_bytes(std::span(bytes)));
        benchmark::DoNotOptimize(corpus.value().totalEvents());
    }
}
BENCHMARK(BM_DeserializeCorpus)->Unit(benchmark::kMillisecond);

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Best-of-@p reps cold build time: each repetition constructs the
 * builder afresh so the per-stream index work (pairing, per-thread
 * CSR/hash index) is inside the timed region, exactly what a new
 * analysis process pays per shard.
 */
template <typename BuildFn>
double
bestOfMs(int reps, BuildFn &&build)
{
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        build();
        const double ms = msSince(start);
        if (rep == 0 || ms < best)
            best = ms;
    }
    return best;
}

/** Concatenated renderText of every graph: the byte-parity probe. */
std::string
renderAll(const std::vector<WaitGraph> &graphs,
          const TraceCorpus &corpus)
{
    const NameFilter components({"*.sys"});
    std::string out;
    for (const WaitGraph &graph : graphs)
        out += graph.renderText(corpus.symbols(), components);
    return out;
}

/**
 * The columnar-hot-core regression contract (docs/PERFORMANCE.md):
 * parity, thread-count byte-stability, and the >= kMinSpeedup per-shard
 * build speedup over the pre-refactor builder. Returns 0 on success.
 */
int
runWaitGraphContract()
{
    constexpr double kMinSpeedup = 2.0;
    constexpr int kReps = 5;

    // Dense shards: many concurrent instances per machine, so the
    // per-thread event lists reach the lengths real fleet shards have.
    CorpusSpec spec;
    spec.machines = 6;
    spec.minInstancesPerMachine = 80;
    spec.maxInstancesPerMachine = 120;
    spec.seed = 42;
    const TraceCorpus corpus = generateCorpus(spec);
    const auto legacy_streams = legacy::materializeStreams(corpus);

    std::cout << "== Wait-graph build contract (" << corpus.streamCount()
              << " shards, " << corpus.instances().size()
              << " instances, " << corpus.totalEvents()
              << " events, best of " << kReps << ") ==\n";

    // Parity first: every graph node-for-node identical to the legacy
    // construction.
    const std::vector<legacy::LegacyGraph> legacy_graphs =
        legacy::LegacyBuilder(corpus, legacy_streams).buildAll();
    const std::vector<WaitGraph> graphs =
        WaitGraphBuilder(corpus).buildAll();
    if (legacy_graphs.size() != graphs.size()) {
        std::cerr << "contract FAILED: graph count mismatch\n";
        return 1;
    }
    for (std::size_t i = 0; i < graphs.size(); ++i) {
        if (!legacy::graphsEqual(legacy_graphs[i], graphs[i])) {
            std::cerr << "contract FAILED: graph " << i
                      << " diverges from the legacy construction\n";
            return 1;
        }
    }

    // Byte-identical reports regardless of build thread count.
    const std::string report1 =
        renderAll(WaitGraphBuilder(corpus).buildAllParallel(1), corpus);
    const std::string report4 =
        renderAll(WaitGraphBuilder(corpus).buildAllParallel(4), corpus);
    const std::string report8 =
        renderAll(WaitGraphBuilder(corpus).buildAllParallel(8), corpus);
    if (report1 != report4 || report1 != report8) {
        std::cerr << "contract FAILED: rendered reports differ "
                     "across 1/4/8 build threads\n";
        return 1;
    }

    // Timed region: cold corpus-wide build (index construction
    // included), serial on both sides so the ratio isolates the data
    // layout, not the thread pool.
    const double legacy_ms = bestOfMs(kReps, [&] {
        legacy::LegacyBuilder builder(corpus, legacy_streams);
        const auto built = builder.buildAll();
        if (built.size() != graphs.size())
            std::abort();
    });
    const double columnar_ms = bestOfMs(kReps, [&] {
        WaitGraphBuilder builder(corpus);
        const auto built = builder.buildAll();
        if (built.size() != graphs.size())
            std::abort();
    });

    const double shards = static_cast<double>(corpus.streamCount());
    const double legacy_shard_ms = legacy_ms / shards;
    const double columnar_shard_ms = columnar_ms / shards;
    const double ratio =
        columnar_ms <= 0.0 ? 0.0 : legacy_ms / columnar_ms;

    std::cout << "legacy (pre-refactor):  " << legacy_ms << " ms total, "
              << legacy_shard_ms << " ms/shard\n"
              << "columnar (production):  " << columnar_ms
              << " ms total, " << columnar_shard_ms << " ms/shard\n"
              << "speedup: " << ratio << "x (contract: >= "
              << kMinSpeedup << "x)\n"
              << "BENCH_micro_waitgraph_speedup=" << ratio << "\n";

    {
        std::ofstream json("BENCH_micro.json");
        json << "{\n"
             << "  \"shards\": " << corpus.streamCount() << ",\n"
             << "  \"instances\": " << corpus.instances().size()
             << ",\n"
             << "  \"events\": " << corpus.totalEvents() << ",\n"
             << "  \"reps\": " << kReps << ",\n"
             << "  \"parity\": true,\n"
             << "  \"reports_byte_identical_1_4_8_threads\": true,\n"
             << "  \"legacy_build_ms\": " << legacy_ms << ",\n"
             << "  \"legacy_build_ms_per_shard\": " << legacy_shard_ms
             << ",\n"
             << "  \"columnar_build_ms\": " << columnar_ms << ",\n"
             << "  \"columnar_build_ms_per_shard\": "
             << columnar_shard_ms << ",\n"
             << "  \"waitgraph_build_speedup\": " << ratio << ",\n"
             << "  \"min_speedup_contract\": " << kMinSpeedup << "\n"
             << "}\n";
        std::cout << "wrote BENCH_micro.json\n";
    }

    if (ratio < kMinSpeedup) {
        std::cerr << "contract FAILED: speedup " << ratio
                  << "x below the " << kMinSpeedup << "x floor\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const int contract = runWaitGraphContract();
    if (contract != 0)
        return contract;

    bool contract_only = false;
    std::vector<char *> bench_args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--contract-only") == 0)
            contract_only = true;
        else
            bench_args.push_back(argv[i]);
    }
    if (contract_only)
        return 0;

    int bench_argc = static_cast<int>(bench_args.size());
    benchmark::Initialize(&bench_argc, bench_args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
