/**
 * @file
 * Telemetry-pipeline integration tests: a traced analysis run records
 * a span for every layer of the pipeline, and span recording never
 * perturbs analysis results (reports stay byte-identical with
 * telemetry on and off).
 */

#include <unistd.h>

#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/analyzer.h"
#include "src/core/report.h"
#include "src/trace/serialize.h"
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
runPipeline(const TraceCorpus &corpus)
{
    EagerSource source(corpus);
    Analyzer analyzer(source);
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
    runPipeline(corpus);
    Telemetry::setEnabled(false);

    const std::string trace = Telemetry::renderChromeTrace();
    // One span name per layer of the pipeline.
    for (const char *name :
         {"analyzer.ingest-shard", "analyzer.graphs", "analyzer.scenario",
          "waitgraph.build-range", "impact.analyze", "awg.aggregate",
          "awg.grow-trie", "mining.mine", "report.build"}) {
        EXPECT_NE(trace.find(std::string("\"name\": \"") + name +
                             "\""),
                  std::string::npos)
            << "span '" << name << "' missing from trace";
    }
}

TEST_F(TelemetryPipelineTest, ReportsAreIdenticalWithTelemetryOnAndOff)
{
    const TraceCorpus corpus = generateCorpus(smallSpec());

    const std::string off_report = runPipeline(corpus);

    Telemetry::setEnabled(true);
    const std::string on_report = runPipeline(corpus);
    Telemetry::setEnabled(false);

    EXPECT_EQ(off_report, on_report);
    EXPECT_GT(Telemetry::spanCount(), 0u);
}

TEST_F(TelemetryPipelineTest, GraphBuildsNeverNestInImpactStages)
{
    // Every impact entry point builds the wait graphs before its
    // impact.analyze span opens, so that span's time is the scan and
    // the fold alone.
    const TraceCorpus corpus = generateCorpus(smallSpec());
    Telemetry::setEnabled(true);
    {
        EagerSource source(corpus);
        Analyzer analyzer(source);
        (void)analyzer.impactAll();
        (void)analyzer.impactPerScenario();
        (void)buildReport(analyzer, catalogThresholds(corpus));
    }
    {
        EagerSource source(corpus);
        Analyzer analyzer(source);
        (void)analyzer.impactPerScenario();
    }
    Telemetry::setEnabled(false);

    const std::vector<SpanSnapshot> spans = Telemetry::snapshotSpans();
    std::unordered_map<std::uint64_t, const SpanSnapshot *> byId;
    for (const SpanSnapshot &span : spans)
        byId[span.spanId] = &span;
    std::size_t graphs = 0, impact = 0;
    for (const SpanSnapshot &span : spans) {
        impact += span.name == "impact.analyze";
        if (span.name != "analyzer.graphs")
            continue;
        ++graphs;
        for (auto it = byId.find(span.parentSpanId); it != byId.end();
             it = byId.find(it->second->parentSpanId))
            EXPECT_NE(it->second->name, "impact.analyze");
    }
    EXPECT_EQ(graphs, 2u);
    EXPECT_GT(impact, 0u);
}

/** The value of @p span's arg @p key, or "" when it has none. */
std::string
argOf(const SpanSnapshot &span, const std::string &key)
{
    for (const auto &[name, value] : span.args)
        if (name == key)
            return value;
    return "";
}

TEST_F(TelemetryPipelineTest, EachShardDecodesUnderItsOwnSpan)
{
    // The analysis path decodes a shard before ingesting it: one
    // source.decode-shard span per shard, carrying the shard's file
    // size and event count, closed before that shard's
    // analyzer.ingest-shard opens.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("tracelens_telemetry_pipeline_test_" +
         std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    const std::vector<std::string> paths = writeShardedCorpusDir(
        generateCorpus(smallSpec()), dir.string(), 4);
    ASSERT_EQ(paths.size(), 4u);
    Expected<std::unique_ptr<TraceSource>> source =
        openSource(dir.string());
    ASSERT_TRUE(source.ok());

    Telemetry::setEnabled(true);
    { const Analyzer analyzer(*source.value()); }
    Telemetry::setEnabled(false);

    std::vector<const SpanSnapshot *> decodes(paths.size(), nullptr);
    std::vector<const SpanSnapshot *> ingests(paths.size(), nullptr);
    std::size_t decodeSpans = 0;
    const std::vector<SpanSnapshot> spans = Telemetry::snapshotSpans();
    for (const SpanSnapshot &span : spans) {
        const bool decode = span.name == "source.decode-shard";
        if (!decode && span.name != "analyzer.ingest-shard")
            continue;
        const std::size_t shard = std::stoul(argOf(span, "shard"));
        ASSERT_LT(shard, paths.size());
        (decode ? decodes : ingests)[shard] = &span;
        decodeSpans += decode;
    }
    EXPECT_EQ(decodeSpans, paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
        ASSERT_NE(decodes[i], nullptr) << "shard " << i;
        ASSERT_NE(ingests[i], nullptr) << "shard " << i;
        EXPECT_EQ(argOf(*decodes[i], "bytes"),
                  std::to_string(std::filesystem::file_size(paths[i])));
        EXPECT_EQ(argOf(*decodes[i], "events"),
                  std::to_string(
                      readCorpusFileChecked(paths[i]).value().totalEvents()));
        EXPECT_LE(decodes[i]->startUs + decodes[i]->durUs,
                  ingests[i]->startUs)
            << "shard " << i;
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace tracelens
