/**
 * @file
 * The checkers must be able to fail: each test hands one checker a
 * real answer, which it must accept, and the same answer deliberately
 * altered, which it must reject.
 */

#include <unistd.h>

#include <filesystem>
#include <regex>

#include <gtest/gtest.h>

#include "bench.h"
#include "src/core/analyzer.h"
#include "src/core/partial.h"
#include "src/core/report.h"
#include "src/core/resultjson.h"
#include "src/fleet/service.h"
#include "src/trace/serialize.h"
#include "src/trace/source.h"
#include "src/workload/generator.h"
#include "src/workload/scenarios.h"

using namespace tlbench;
using namespace tracelens;

namespace
{

Truth
truthOf(const TraceCorpus &corpus)
{
    Truth truth;
    for (std::size_t i = 0; i < corpus.instances().size(); ++i)
        truth.instances.emplace_back(
            corpus.scenarioName(corpus.instanceScenarios()[i]),
            corpus.instanceDurations()[i]);
    return truth;
}

TraceCorpus
smallCorpus(std::uint64_t seed, double encrypted = 0.55, double hdd = 0.45)
{
    CorpusSpec spec;
    spec.seed = seed;
    spec.machines = 30;
    spec.encryptedFraction = encrypted;
    spec.hddFraction = hdd;
    return generateCorpus(spec);
}

std::vector<ScenarioThresholds>
selected(const TraceCorpus &corpus)
{
    std::vector<ScenarioThresholds> out;
    for (const ScenarioSpec *spec : selectedScenarios())
        if (corpus.findScenario(spec->name) != UINT32_MAX)
            out.push_back({spec->name, spec->tFast, spec->tSlow});
    return out;
}

class TempDir
{
  public:
    TempDir()
        : path_((std::filesystem::temp_directory_path() /
                 ("tlbench_test_" + std::to_string(::getpid())))
                    .string())
    {
        makeDirs(path_);
    }
    ~TempDir() { removeTree(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** An analyze-shaped answer finalized from the corpus's partial, as a
 *  coordinator builds it. */
JsonValue
gatheredAnswer(const Analyzer &analyzer, const std::string &scenario)
{
    const ScenarioSpec &spec = scenarioByName(scenario);
    ScenarioPartial partial =
        analyzer.scenarioPartial(scenario, spec.tFast, spec.tSlow);
    SymbolTable symbols;
    partial.remapFrames(symbols);
    const ImpactResult impact = partial.slowImpact.finalize();
    const AggregatedWaitGraph fast = std::move(partial.awgFast).finalize(true);
    const AggregatedWaitGraph slow = std::move(partial.awgSlow).finalize(true);
    return summarizeScenario(scenario, spec.tFast, spec.tSlow,
                             partial.classes, impact, fast, slow, symbols, 5,
                             true)
        .json;
}

} // namespace

TEST(BatchChecks, ClassTallyOffByOneIsRejected)
{
    const TraceCorpus corpus = smallCorpus(7);
    const Truth truth = truthOf(corpus);
    EagerSource source(corpus);
    Analyzer analyzer(source, {});
    const std::string report = buildReport(analyzer, selected(corpus));
    EXPECT_EQ(checkReportTallies(report, truth), "");

    std::smatch match;
    const std::regex fast("classes: ([0-9]+) fast");
    ASSERT_TRUE(std::regex_search(report, match, fast));
    const std::string altered =
        report.substr(0, match.position(1)) +
        std::to_string(std::stoull(match[1]) + 1) +
        report.substr(match.position(1) + match.length(1));
    EXPECT_NE(checkReportTallies(altered, truth), "");
}

TEST(BatchChecks, ReuseReportThatDiffersIsRejected)
{
    const TraceCorpus corpus = smallCorpus(8);
    TempDir dir;
    const std::string file = dir.path() + "/corpus.tlc";
    writeCorpusFile(corpus, file);
    auto report = [&](const std::string &cache) {
        auto source = std::move(openSource(file).value());
        AnalyzerConfig config;
        config.artifactCacheDir = cache;
        Analyzer analyzer(*source, config);
        return buildReport(analyzer, selected(analyzer.corpus()));
    };
    const std::string fresh = report("");
    (void)report(dir.path() + "/cache");
    const std::string reuse = report(dir.path() + "/cache");
    EXPECT_EQ(checkIdentical("reports", reuse, fresh), "");

    std::string altered = reuse;
    altered[altered.size() / 2] ^= 1;
    EXPECT_NE(checkIdentical("reports", altered, fresh), "");
}

TEST(DaemonChecks, AnswerTallyOffByOneIsRejected)
{
    const TraceCorpus corpus = smallCorpus(9);
    const Truth truth = truthOf(corpus);
    EagerSource source(corpus);
    Analyzer analyzer(source, {});
    const std::string scenario = "BrowserTabCreate";
    const JsonValue answer = gatheredAnswer(analyzer, scenario);
    const Query query = catalogQuery(scenario);
    EXPECT_EQ(checkAnswerClasses(answer, truth, scenario, query.tFastMs,
                                 query.tSlowMs),
              "");

    JsonValue altered = answer;
    JsonValue classes = *altered.find("classes");
    classes.set("slow", JsonValue(classes.find("slow")->asNumber() + 1));
    altered.set("classes", classes);
    EXPECT_NE(checkAnswerClasses(altered, truth, scenario, query.tFastMs,
                                 query.tSlowMs),
              "");
}

TEST(DaemonChecks, SlowClassGrowingWithTSlowIsRejected)
{
    std::vector<ClassPoint> points = {{"S", 100, 200, 9}, {"S", 100, 300, 7}};
    EXPECT_EQ(checkSlowMonotone(points), "");
    points.push_back({"S", 100, 400, 8});
    EXPECT_NE(checkSlowMonotone(points), "");
}

TEST(ClusterChecks, GatheredAnswerWithOnePatternSwappedIsRejected)
{
    const TraceCorpus corpus = smallCorpus(10);
    EagerSource source(corpus);
    Analyzer analyzer(source, {});
    const JsonValue single = gatheredAnswer(analyzer, "WebPageNavigation");
    EXPECT_EQ(checkGathered(single, single), "");

    JsonValue gathered = single;
    JsonValue patterns = *gathered.find("patterns");
    ASSERT_GE(patterns.asArray().size(), 2u);
    std::swap(patterns.asArray()[0], patterns.asArray()[1]);
    gathered.set("patterns", patterns);
    EXPECT_NE(checkGathered(gathered, single), "");

    JsonValue degraded = single;
    degraded.set("partial_results", JsonValue(true));
    EXPECT_NE(checkGathered(degraded, single), "");
}

namespace
{

/** Four calm windows (no encryption, few slow disks), then a fifth
 *  that is regressed (all encrypted, most disks slow) or calm. */
std::vector<Alert>
fleetRun(bool regressedLastWindow)
{
    FleetConfig config;
    config.maxWindows = 16;
    for (const ScenarioSpec &spec : scenarioCatalog())
        config.sentinel.scenarios.push_back(
            {spec.name, spec.tFast, spec.tSlow});
    FleetService service(config);
    for (std::uint64_t window = 0; window < 5; ++window) {
        for (std::uint64_t shard = 0; shard < 2; ++shard) {
            const bool hot = regressedLastWindow && window == 4;
            TraceCorpus corpus = smallCorpus(100 + window * 2 + shard,
                                             hot ? 1.0 : 0.0, hot ? 0.9 : 0.1);
            service.ingest("shard-" + std::to_string(window * 2 + shard) +
                               ".tlc",
                           std::move(corpus),
                           window * config.windowMs + shard);
        }
    }
    return service.alerts().since(0);
}

} // namespace

TEST(FleetChecks, CalmRegressedWindowIsRejected)
{
    EXPECT_EQ(checkAlerts(fleetRun(true), 4, "se.sys"), "");
    EXPECT_NE(checkAlerts(fleetRun(false), 4, "se.sys"), "");
}

TEST(FleetChecks, RepeatedAlertIsRejected)
{
    Alert alert;
    alert.rule = "cost_regression";
    alert.scenario = "FileOpen";
    alert.component = "se.sys";
    alert.window = 4;
    EXPECT_EQ(checkAlerts({alert}, 4, "se.sys"), "");
    EXPECT_NE(checkAlerts({alert, alert}, 4, "se.sys"), "");
}
