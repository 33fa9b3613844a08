/**
 * @file
 * Tests for continuous fleet mode (src/fleet/): window bucketing and
 * eviction determinism, byte-identical rolling summaries under
 * shuffled shard arrival, the regression sentinel's exactly-once
 * firing, the alert JSON schema round trip, and the spool watcher's
 * rename-into-place discipline.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/fleet/alerts.h"
#include "src/fleet/fleet.h"
#include "src/fleet/sentinel.h"
#include "src/fleet/service.h"
#include "src/fleet/watcher.h"
#include "src/fleet/windows.h"
#include "src/trace/serialize.h"
#include "src/workload/generator.h"
#include "src/workload/scenarios.h"

namespace tracelens
{
namespace
{

namespace fs = std::filesystem;

constexpr std::uint64_t kWindowNs = 60ull * 1000 * 1000 * 1000;

/**
 * Fresh scratch directory under /tmp, removed on destruction. The
 * path embeds the process id: this file builds into more than one
 * test binary, and ctest -j runs those binaries concurrently, so a
 * fixed name would let two processes stomp each other's fixtures.
 */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : path_(fs::temp_directory_path() /
                ("tracelens_fleet_test_" +
                 std::to_string(::getpid()) + "_" + name))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() { fs::remove_all(path_); }

    const fs::path &path() const { return path_; }
    std::string str() const { return path_.string(); }
    std::string file(const std::string &name) const
    {
        return (path_ / name).string();
    }

  private:
    fs::path path_;
};

CorpusSpec
fleetSpec(std::uint64_t seed)
{
    CorpusSpec spec;
    spec.machines = 12;
    spec.seed = seed;
    return spec;
}

/** Shards named shard-NNNN.tlc in generation order. */
std::vector<std::pair<std::string, TraceCorpus>>
namedShards(const CorpusSpec &spec, std::size_t count)
{
    std::vector<TraceCorpus> shards =
        generateShardedCorpus(spec, count);
    std::vector<std::pair<std::string, TraceCorpus>> out;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        char name[32];
        std::snprintf(name, sizeof name, "shard-%04zu.tlc", i);
        out.emplace_back(name, std::move(shards[i]));
    }
    return out;
}

FleetWindowConfig
windowConfig(std::size_t maxWindows = 8)
{
    FleetWindowConfig config;
    config.windowNs = kWindowNs;
    config.maxWindows = maxWindows;
    return config;
}

TEST(FleetWindows, BucketingIsAPureFunctionOfTimestamp)
{
    WindowedAnalyzer windows(windowConfig());
    EXPECT_EQ(windows.windowOf(0), 0u);
    EXPECT_EQ(windows.windowOf(kWindowNs - 1), 0u);
    EXPECT_EQ(windows.windowOf(kWindowNs), 1u);
    EXPECT_EQ(windows.windowOf(17 * kWindowNs + 5), 17u);

    auto shards = namedShards(fleetSpec(41), 3);
    EXPECT_EQ(windows.addShard(shards[0].first,
                               std::move(shards[0].second), 10),
              0u);
    EXPECT_EQ(windows.addShard(shards[1].first,
                               std::move(shards[1].second),
                               kWindowNs + 10),
              1u);
    // Late arrival for the old window still lands in the old window:
    // membership depends on the stamp, never on arrival order.
    EXPECT_EQ(windows.addShard(shards[2].first,
                               std::move(shards[2].second), 20),
              0u);

    const std::vector<WindowInfo> infos = windows.windows();
    ASSERT_EQ(infos.size(), 2u);
    EXPECT_EQ(infos[0].id, 0u);
    EXPECT_EQ(infos[0].shards, 2u);
    EXPECT_EQ(infos[1].id, 1u);
    EXPECT_EQ(infos[1].shards, 1u);
    EXPECT_EQ(windows.currentWindow(), std::uint64_t{1});
    EXPECT_EQ(windows.shardCount(), 3u);
}

TEST(FleetWindows, EvictionKeepsNewestWindowsAndReportsNames)
{
    WindowedAnalyzer windows(windowConfig(2));
    auto shards = namedShards(fleetSpec(42), 4);
    for (std::size_t i = 0; i < shards.size(); ++i)
        windows.addShard(shards[i].first,
                         std::move(shards[i].second),
                         i * kWindowNs);

    std::vector<std::string> evicted = windows.evictExpired();
    std::sort(evicted.begin(), evicted.end());
    EXPECT_EQ(evicted, (std::vector<std::string>{
                           "shard-0000.tlc", "shard-0001.tlc"}));
    EXPECT_EQ(windows.allWindows(),
              (std::vector<std::uint64_t>{2, 3}));
    EXPECT_EQ(windows.shardCount(), 2u);
    // Idempotent once within budget.
    EXPECT_TRUE(windows.evictExpired().empty());
}

TEST(FleetWindows, SummariesAreByteIdenticalUnderShuffledArrival)
{
    const ScenarioSpec &scn = scenarioByName("FileOpen");
    auto ordered = namedShards(fleetSpec(43), 6);
    auto shuffled = namedShards(fleetSpec(43), 6);
    // Timestamp of shard i: shards 0..2 in window 0, 3..5 in window 1.
    const auto stampOf = [](std::size_t i) {
        return (i / 3) * kWindowNs + (i % 3) * 1000;
    };

    WindowedAnalyzer a(windowConfig());
    for (std::size_t i = 0; i < ordered.size(); ++i)
        a.addShard(ordered[i].first, std::move(ordered[i].second),
                   stampOf(i));

    // Worst-case interleaving: newest first.
    WindowedAnalyzer b(windowConfig());
    for (std::size_t i = shuffled.size(); i-- > 0;)
        b.addShard(shuffled[i].first, std::move(shuffled[i].second),
                   stampOf(i));

    const std::vector<std::uint64_t> all{0, 1};
    const WindowScenarioSummary sa = a.summarize(
        all, scn.name, scn.tFast, scn.tSlow, 5, true);
    const WindowScenarioSummary sb = b.summarize(
        all, scn.name, scn.tFast, scn.tSlow, 5, true);
    ASSERT_TRUE(sa.scenarioFound);
    EXPECT_EQ(sa.shards, 6u);
    EXPECT_EQ(sa.summary.json.render(), sb.summary.json.render());

    // Per-window summaries agree too, and repeated summaries hit the
    // partial cache without changing a byte.
    for (std::uint64_t w : all) {
        const std::string first =
            a.summarize({w}, scn.name, scn.tFast, scn.tSlow, 5, true)
                .summary.json.render();
        EXPECT_EQ(first, b.summarize({w}, scn.name, scn.tFast,
                                     scn.tSlow, 5, true)
                             .summary.json.render());
        EXPECT_EQ(first, a.summarize({w}, scn.name, scn.tFast,
                                     scn.tSlow, 5, true)
                             .summary.json.render());
    }
}

TEST(FleetWindows, SummaryMatchesColdRebuildAfterEviction)
{
    const ScenarioSpec &scn = scenarioByName("FileOpen");
    auto live = namedShards(fleetSpec(44), 6);
    auto cold = namedShards(fleetSpec(44), 6);

    // The live analyzer saw history that has since been evicted; the
    // cold one is built from only the surviving shards, like a fresh
    // daemon reading the pruned spool.
    WindowedAnalyzer rolling(windowConfig(2));
    for (std::size_t i = 0; i < live.size(); ++i)
        rolling.addShard(live[i].first, std::move(live[i].second),
                         (i / 2) * kWindowNs);
    rolling.evictExpired();
    ASSERT_EQ(rolling.allWindows(),
              (std::vector<std::uint64_t>{1, 2}));

    WindowedAnalyzer fresh(windowConfig(2));
    for (std::size_t i = 2; i < cold.size(); ++i)
        fresh.addShard(cold[i].first, std::move(cold[i].second),
                       (i / 2) * kWindowNs);

    const std::vector<std::uint64_t> ids{1, 2};
    EXPECT_EQ(rolling
                  .summarize(ids, scn.name, scn.tFast, scn.tSlow, 5,
                             true)
                  .summary.json.render(),
              fresh
                  .summarize(ids, scn.name, scn.tFast, scn.tSlow, 5,
                             true)
                  .summary.json.render());
}

TEST(FleetWindows, RetainedCorporaSurviveReallocationAndCopy)
{
    // Regression guard for the interner/symbol-table copy semantics:
    // WindowedAnalyzer keeps corpora inside growing vectors, so a
    // reallocation that copied self-referential indexes used to leave
    // string_view keys dangling into freed storage, and lookups went
    // silently empty.
    const TraceCorpus reference = generateCorpus(fleetSpec(45));
    const std::uint32_t scenarioId =
        reference.findScenario("FileOpen");
    ASSERT_NE(scenarioId, UINT32_MAX);

    std::vector<TraceCorpus> vec;
    for (int i = 0; i < 9; ++i)
        vec.push_back(generateCorpus(fleetSpec(45)));
    for (const TraceCorpus &corpus : vec) {
        EXPECT_EQ(corpus.findScenario("FileOpen"), scenarioId);
        EXPECT_EQ(corpus.scenarioName(scenarioId), "FileOpen");
    }

    // An explicit copy must outlive its source with working indexes.
    TraceCorpus copy;
    {
        TraceCorpus original = generateCorpus(fleetSpec(45));
        copy = original;
    }
    EXPECT_EQ(copy.findScenario("FileOpen"), scenarioId);
    EXPECT_GT(copy.symbols().frameCount(), 0u);
    for (std::size_t f = 0; f < copy.symbols().frameCount(); ++f)
        EXPECT_FALSE(
            copy.symbols()
                .frameName(static_cast<FrameId>(f))
                .empty());
}

/** Sentinel fixture: a calm baseline window and a regressed one. */
SentinelConfig
sentinelConfig()
{
    const ScenarioSpec &scn = scenarioByName("BrowserTabCreate");
    SentinelConfig config;
    config.scenarios = {{scn.name, scn.tFast, scn.tSlow}};
    config.baselineWindows = 2;
    return config;
}

void
addCohort(WindowedAnalyzer &windows, std::uint64_t seed,
          double encrypted, double hdd, std::uint64_t window,
          const std::string &prefix)
{
    CorpusSpec spec = fleetSpec(seed);
    spec.machines = 40;
    spec.encryptedFraction = encrypted;
    spec.hddFraction = hdd;
    std::vector<TraceCorpus> shards = generateShardedCorpus(spec, 2);
    for (std::size_t i = 0; i < shards.size(); ++i)
        windows.addShard(prefix + "-" + std::to_string(i) + ".tlc",
                         std::move(shards[i]),
                         window * kWindowNs + i * 1000);
}

TEST(FleetSentinel, FiresExactlyOncePerWindowCondition)
{
    WindowedAnalyzer windows(windowConfig());
    AlertSink sink;
    RegressionSentinel sentinel(windows, sink, sentinelConfig());

    addCohort(windows, 2024, 0.0, 0.1, 0, "calm-a");
    addCohort(windows, 2025, 0.0, 0.1, 1, "calm-b");
    // The rollout window: encryption everywhere, slower disks.
    addCohort(windows, 2026, 1.0, 0.5, 2, "rollout");

    const std::size_t first = sentinel.evaluate();
    ASSERT_GT(first, 0u);
    EXPECT_EQ(sink.lastSeq(), first);

    // A persistent condition must not flap: re-evaluating the same
    // window (as every subsequent ingest does) emits nothing new.
    EXPECT_EQ(sentinel.evaluate(), 0u);
    EXPECT_EQ(sentinel.evaluate(), 0u);
    EXPECT_EQ(sink.lastSeq(), first);

    // A later window with the same regression is a fresh finding.
    addCohort(windows, 2027, 1.0, 0.5, 3, "rollout-b");
    EXPECT_GT(sentinel.evaluate(), 0u);

    for (const Alert &alert : sink.since(0)) {
        EXPECT_TRUE(alert.rule == "cost_regression" ||
                    alert.rule == "impact_rank");
        EXPECT_EQ(alert.scenario, "BrowserTabCreate");
        EXPECT_FALSE(alert.baselineWindows.empty());
    }
}

TEST(FleetAlerts, AlertJsonRoundTrips)
{
    Alert alert;
    alert.seq = 17;
    alert.rule = "impact_rank";
    alert.scenario = "FileOpen";
    alert.component = "se.sys";
    alert.window = 42;
    alert.baselineWindows = {39, 40, 41};
    alert.ratio = 2.5;
    alert.detail = "se.sys entered impact top-3";
    alert.unixMs = 1700000000123;

    const JsonValue json = alertJson(alert);
    const std::optional<Alert> parsed = parseAlert(json);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->seq, alert.seq);
    EXPECT_EQ(parsed->rule, alert.rule);
    EXPECT_EQ(parsed->scenario, alert.scenario);
    EXPECT_EQ(parsed->component, alert.component);
    EXPECT_EQ(parsed->window, alert.window);
    EXPECT_EQ(parsed->baselineWindows, alert.baselineWindows);
    EXPECT_DOUBLE_EQ(parsed->ratio, alert.ratio);
    EXPECT_EQ(parsed->detail, alert.detail);
    EXPECT_EQ(parsed->unixMs, alert.unixMs);

    // Re-rendering the parsed alert is byte-stable (sorted keys).
    EXPECT_EQ(alertJson(*parsed).render(), json.render());

    // Schema violations parse to nullopt, never to half-filled alerts.
    JsonValue missing = json;
    missing.asObject().erase("rule");
    EXPECT_FALSE(parseAlert(missing).has_value());
    JsonValue wrongType = json;
    wrongType.set("window", JsonValue("not-a-number"));
    EXPECT_FALSE(parseAlert(wrongType).has_value());
    EXPECT_FALSE(parseAlert(JsonValue("just a string")).has_value());
}

TEST(FleetAlerts, SinkWritesJsonlAndServesSince)
{
    ScratchDir scratch("alert_sink");
    AlertSink::Config config;
    config.path = scratch.file("alerts.jsonl");
    AlertSink sink(config);

    for (int i = 0; i < 3; ++i) {
        Alert alert;
        alert.rule = "cost_regression";
        alert.scenario = "FileOpen";
        alert.window = static_cast<std::uint64_t>(i);
        sink.emit(std::move(alert));
    }
    EXPECT_EQ(sink.lastSeq(), 3u);
    EXPECT_EQ(sink.since(0).size(), 3u);
    EXPECT_EQ(sink.since(2).size(), 1u);
    EXPECT_TRUE(sink.since(3).empty());

    std::ifstream in(config.path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        const std::optional<Alert> parsed =
            parseAlert(JsonValue::parse(line).value());
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->seq, ++lines);
    }
    EXPECT_EQ(lines, 3u);
}

TEST(FleetWatcher, ReportsOnlyFinishedShardsOnce)
{
    ScratchDir scratch("watcher");
    CorpusWatcher watcher(scratch.str());

    const TraceCorpus corpus = generateCorpus(fleetSpec(46));
    writeCorpusFile(corpus, scratch.file("shard-0001.tlc"));
    // Unfinished/foreign entries a spool directory accumulates.
    std::ofstream(scratch.file(".shard-0002.tlc.tmp")) << "partial";
    std::ofstream(scratch.file("shard-0003.tlc.tmp")) << "partial";
    std::ofstream(scratch.file(".hidden.tlc")) << "dotfile";
    std::ofstream(scratch.file("notes.txt")) << "unrelated";

    std::vector<std::string> fresh = watcher.poll();
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_EQ(fs::path(fresh[0]).filename(), "shard-0001.tlc");
    EXPECT_GE(watcher.stats().skippedEntries, 4u);

    // Never reported twice, even across polls.
    EXPECT_TRUE(watcher.poll().empty());

    // Rename-into-place finishes a staged shard; only then is it
    // visible, sorted by filename with any other arrivals.
    writeCorpusFile(corpus, scratch.file(".shard-0002.tlc.stage"));
    fs::rename(scratch.file(".shard-0002.tlc.stage"),
               scratch.file("shard-0002.tlc"));
    writeCorpusFile(corpus, scratch.file("shard-0000.tlc"));
    fresh = watcher.poll();
    ASSERT_EQ(fresh.size(), 2u);
    EXPECT_EQ(fs::path(fresh[0]).filename(), "shard-0000.tlc");
    EXPECT_EQ(fs::path(fresh[1]).filename(), "shard-0002.tlc");

    // markSeen suppresses a future poll (the ingest_push path).
    writeCorpusFile(corpus, scratch.file("shard-0004.tlc"));
    watcher.markSeen(scratch.file("shard-0004.tlc"));
    EXPECT_TRUE(watcher.poll().empty());

    // A missing directory is an empty batch, not an error.
    CorpusWatcher absent(scratch.file("does-not-exist"));
    EXPECT_TRUE(absent.poll().empty());
}

TEST(FleetService, PollIngestsSpoolAndSkipsCorruptShards)
{
    ScratchDir scratch("service");
    const ScenarioSpec &scn = scenarioByName("FileOpen");

    auto shards = namedShards(fleetSpec(47), 3);
    for (const auto &[name, corpus] : shards)
        writeCorpusFile(corpus, scratch.file(name));
    std::ofstream(scratch.file("shard-9999.tlc")) << "garbage bytes";

    FleetConfig config;
    config.dir = scratch.str();
    config.windowMs = 60000;
    FleetService service(config);
    EXPECT_EQ(service.pollOnce(), 3u);
    EXPECT_EQ(service.ingestedShards(), 3u);
    // The corrupt shard is skipped for good, not retried forever.
    EXPECT_EQ(service.pollOnce(), 0u);

    const JsonValue summary = service.windowSummary(
        scn.name, scn.tFast, scn.tSlow, "all", 1, 5, true);
    EXPECT_TRUE(summary.find("summary") != nullptr);
    EXPECT_EQ(summary.find("shards")->asNumber(), 3.0);

    // ingest() marks the spooled file seen: pushing a shard that also
    // lands in the watched directory must not double-count.
    const TraceCorpus pushed = generateCorpus(fleetSpec(48));
    writeCorpusFile(pushed, scratch.file("shard-0100.tlc"));
    service.ingest("shard-0100.tlc", pushed, std::nullopt);
    EXPECT_EQ(service.pollOnce(), 0u);
    EXPECT_EQ(service.ingestedShards(), 4u);
}

TEST(FleetService, StopDoesNotWaitOutThePollInterval)
{
    ScratchDir scratch("stop");
    FleetConfig config;
    config.dir = scratch.str();
    config.pollMs = 60000;
    FleetService service(config);
    service.start();
    // Give the poll thread time to finish its first scan and wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    const auto begin = std::chrono::steady_clock::now();
    service.stop();
    EXPECT_LT(std::chrono::steady_clock::now() - begin,
              std::chrono::seconds(1));
}

TEST(Fleet, RevisionIsAdvertised)
{
    EXPECT_GE(fleetRevision(), 1u);
}

} // namespace
} // namespace tracelens
