/**
 * @file
 * Telemetry-pipeline integration tests: a traced analysis run records
 * a span for every pipeline stage; a warm artifact-cache run records
 * the disk-hit outcome in its stage spans; and span recording never
 * perturbs analysis results (reports stay byte-identical with
 * telemetry on and off).
 */

#include <unistd.h>

#include <filesystem>
#include <string>
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

namespace fs = std::filesystem;

/**
 * Self-cleaning temp directory for the disk artifact cache; the path
 * embeds the process id so concurrent ctest binaries never collide.
 */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : path_(fs::temp_directory_path() /
                ("tracelens_telemetry_test_" +
                 std::to_string(::getpid()) + "_" + name))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() { fs::remove_all(path_); }

    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

CorpusSpec
smallSpec()
{
    CorpusSpec spec;
    spec.machines = 12;
    spec.seed = 991;
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

/** Run the full scenario pipeline and return the text report. */
std::string
runPipeline(const TraceCorpus &corpus, const std::string &cacheDir)
{
    EagerSource source(corpus);
    AnalyzerConfig config;
    config.artifactCacheDir = cacheDir;
    Analyzer analyzer(source, config);
    analyzer.analyzeScenarios(catalogThresholds(corpus));
    return buildReport(analyzer, catalogThresholds(corpus));
}

struct TelemetryPipelineTest : ::testing::Test
{
    void SetUp() override
    {
        Telemetry::setEnabled(false);
        Telemetry::reset();
    }
    void TearDown() override
    {
        Telemetry::setEnabled(false);
        Telemetry::reset();
    }
};

TEST_F(TelemetryPipelineTest, TraceCoversEveryPipelineStage)
{
    const TraceCorpus corpus = generateCorpus(smallSpec());

    Telemetry::setEnabled(true);
    runPipeline(corpus, "");
    Telemetry::setEnabled(false);

    const std::string trace = Telemetry::renderChromeTrace();
    // One span name per artifact stage plus the analysis-layer spans
    // around them.
    for (const char *name :
         {"stage.wait-graphs", "stage.classes", "stage.impact",
          "stage.awg", "stage.mining", "analyzer.ingest-shard",
          "analyzer.graphs", "analyzer.scenario",
          "waitgraph.build-range", "impact.analyze", "awg.aggregate",
          "mining.mine", "report.build"}) {
        EXPECT_NE(trace.find(std::string("\"name\": \"") + name +
                             "\""),
                  std::string::npos)
            << "span '" << name << "' missing from trace";
    }
    // Cold memory-only run: every stage span reports a miss first.
    EXPECT_NE(trace.find("\"outcome\": \"miss\""), std::string::npos);
}

TEST_F(TelemetryPipelineTest, WarmCacheRunRecordsDiskHitSpans)
{
    const TraceCorpus corpus = generateCorpus(smallSpec());
    ScratchDir cache("warm");

    // Cold run populates the disk cache; telemetry off to prove the
    // cache write needs no recording.
    runPipeline(corpus, cache.str());

    // Warm run (a fresh Analyzer, as a new process would be) with
    // tracing on: the AWG stage restores from disk and stamps the
    // disk-hit outcome into its span.
    Telemetry::reset();
    Telemetry::setEnabled(true);
    runPipeline(corpus, cache.str());
    Telemetry::setEnabled(false);

    const std::string trace = Telemetry::renderChromeTrace();
    EXPECT_NE(trace.find("\"name\": \"stage.wait-graphs\""),
              std::string::npos);
    EXPECT_NE(trace.find("\"outcome\": \"disk-hit\""),
              std::string::npos);
    // Artifact keys ride along as span args.
    EXPECT_NE(trace.find("\"key\": \""), std::string::npos);
}

TEST_F(TelemetryPipelineTest, ReportsAreIdenticalWithTelemetryOnAndOff)
{
    const TraceCorpus corpus = generateCorpus(smallSpec());

    const std::string off_report = runPipeline(corpus, "");

    Telemetry::setEnabled(true);
    const std::string on_report = runPipeline(corpus, "");
    Telemetry::setEnabled(false);

    EXPECT_EQ(off_report, on_report);
    EXPECT_GT(Telemetry::spanCount(), 0u);
}

TEST_F(TelemetryPipelineTest, PipelineStatsMatchGlobalRegistryMerge)
{
    const TraceCorpus corpus = generateCorpus(smallSpec());

    // A private registry per store keeps pipelineStats() correct per
    // analyzer; destruction folds the counters into the global
    // registry. Compare the before/after delta of one global counter
    // with the per-analyzer snapshot.
    MetricsRegistry &global = MetricsRegistry::global();
    const Counter *before_counter =
        global.findCounter("pipeline.wait-graphs.misses");
    const std::uint64_t before =
        before_counter == nullptr ? 0 : before_counter->value();

    std::uint64_t misses = 0;
    {
        EagerSource source(corpus);
        Analyzer analyzer(source);
        analyzer.analyzeScenarios(catalogThresholds(corpus));
        misses = analyzer.pipelineStats().of(Stage::WaitGraphs).misses;
        EXPECT_GT(misses, 0u);
    }

    const Counter *after_counter =
        global.findCounter("pipeline.wait-graphs.misses");
    ASSERT_NE(after_counter, nullptr);
    EXPECT_EQ(after_counter->value() - before, misses);
}

} // namespace
} // namespace tracelens
