/**
 * @file
 * Continuous-mode composition root (src/fleet/service.h).
 */

#include "src/fleet/service.h"

#include <chrono>
#include <filesystem>
#include <utility>

#include "src/fleet/fleet.h"
#include "src/trace/serialize.h"
#include "src/util/logging.h"
#include "src/util/telemetry.h"

namespace tracelens
{

namespace
{

std::uint64_t
nowUnixMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

FleetWindowConfig
windowConfig(const FleetConfig &config)
{
    FleetWindowConfig out;
    out.windowNs = config.windowMs * 1000 * 1000;
    out.maxWindows = config.maxWindows;
    out.analyzer = config.analyzer;
    return out;
}

AlertSink::Config
sinkConfig(const FleetConfig &config)
{
    AlertSink::Config out;
    out.path = config.alertsPath;
    return out;
}

} // namespace

FleetService::FleetService(FleetConfig config,
                           std::function<void()> onArrival)
    : config_(std::move(config)), onArrival_(std::move(onArrival)),
      sink_(sinkConfig(config_)),
      watcher_(config_.dir), windows_(windowConfig(config_)),
      sentinel_(windows_, sink_, config_.sentinel)
{
}

FleetService::~FleetService() { stop(); }

std::size_t
FleetService::pollOnce()
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<std::string> fresh = watcher_.poll();
    std::size_t ingested = 0;
    for (const std::string &path : fresh) {
        Expected<TraceCorpus> corpus = readCorpusFileChecked(path);
        if (!corpus) {
            // Rename-into-place makes torn reads impossible; a bad
            // shard here is genuinely corrupt. Isolate it, exactly
            // like batch ingestion does.
            TL_LOG(Warn, "fleet: skipping corrupt shard ", path,
                   ": ", corpus.error().render());
            MetricsRegistry::global()
                .counter("fleet.skipped_shards")
                .add(1);
            continue;
        }
        ingestLocked(
            std::filesystem::path(path).filename().string(),
            std::move(corpus.value()), std::nullopt);
        ++ingested;
    }
    return ingested;
}

IngestOutcome
FleetService::ingest(std::string name, TraceCorpus corpus,
                     std::optional<std::uint64_t> timestampMs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!config_.dir.empty()) {
        // The pusher landed this shard in the spool already; keep the
        // poll loop from ingesting the same file a second time.
        watcher_.markSeen(
            (std::filesystem::path(config_.dir) / name).string());
    }
    return ingestLocked(std::move(name), std::move(corpus),
                        timestampMs);
}

IngestOutcome
FleetService::ingestLocked(std::string name, TraceCorpus corpus,
                           std::optional<std::uint64_t> timestampMs)
{
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t stampMs =
        timestampMs ? *timestampMs : nowUnixMs();

    IngestOutcome outcome;
    outcome.window = windows_.addShard(
        std::move(name), std::move(corpus),
        stampMs * 1000 * 1000);
    outcome.alerts = sentinel_.evaluate();
    outcome.evicted = windows_.evictExpired().size();
    if (onArrival_)
        onArrival_();

    ingested_.fetch_add(1, std::memory_order_relaxed);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    MetricsRegistry::global().counter("fleet.ingested_shards").add(1);
    MetricsRegistry::global()
        .histogram("fleet.ingest_ms")
        .record(static_cast<std::uint64_t>(elapsed.count()));
    if (outcome.alerts != 0) {
        // Arrival -> emission latency of the alerts this shard
        // triggered (the BENCH_fleet.json gate).
        MetricsRegistry::global()
            .histogram("fleet.alert_latency_ms")
            .record(static_cast<std::uint64_t>(elapsed.count()));
    }
    return outcome;
}

void
FleetService::start()
{
    if (running_.exchange(true))
        return;
    thread_ = std::thread([this] {
        const auto stopped = [this] {
            return !running_.load(std::memory_order_acquire);
        };
        std::unique_lock<std::mutex> lock(wakeMutex_);
        while (!stopped()) {
            lock.unlock();
            pollOnce();
            lock.lock();
            // stop() notifies, so a long poll interval never delays it.
            wake_.wait_for(lock, std::chrono::milliseconds(config_.pollMs),
                           stopped);
        }
    });
}

void
FleetService::stop()
{
    {
        // Under the wake mutex, so the poll thread either sees the
        // flag before it waits or is already waiting for the notify.
        std::lock_guard<std::mutex> lock(wakeMutex_);
        if (!running_.exchange(false))
            return;
    }
    wake_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

JsonValue
FleetService::windowSummary(const std::string &scenario,
                            DurationNs tFast, DurationNs tSlow,
                            const std::string &windowsSel,
                            std::size_t trailing, std::size_t top,
                            bool applyKnowledgeFilter)
{
    std::lock_guard<std::mutex> lock(mutex_);

    std::vector<std::uint64_t> ids;
    if (windowsSel == "all") {
        ids = windows_.allWindows();
    } else {
        std::optional<std::uint64_t> anchor;
        if (windowsSel.empty() || windowsSel == "current") {
            anchor = windows_.currentWindow();
        } else if (!windowsSel.empty() &&
                   windowsSel.find_first_not_of("0123456789") ==
                       std::string::npos) {
            anchor = std::stoull(windowsSel);
        }
        if (anchor) {
            if (trailing > 1) {
                for (std::uint64_t id : windows_.allWindows()) {
                    if (id <= *anchor)
                        ids.push_back(id);
                }
                if (ids.size() > trailing)
                    ids.erase(ids.begin(),
                              ids.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      ids.size() - trailing));
            } else {
                ids.push_back(*anchor);
            }
        }
    }

    const WindowScenarioSummary summary =
        windows_.summarize(ids, scenario, tFast, tSlow, top,
                           applyKnowledgeFilter);

    JsonValue result = JsonValue::makeObject();
    result.set("fleet_revision", JsonValue(fleetRevision()));
    result.set("window_ms", JsonValue(config_.windowMs));
    JsonValue windowIds = JsonValue::makeArray();
    for (std::uint64_t id : summary.windows)
        windowIds.push(JsonValue(id));
    result.set("windows", std::move(windowIds));
    result.set("shards", JsonValue(summary.shards));
    result.set("scenario_found", JsonValue(summary.scenarioFound));
    result.set("summary", summary.summary.json);
    return result;
}

JsonValue
FleetService::status()
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonValue result = JsonValue::makeObject();
    result.set("fleet_revision", JsonValue(fleetRevision()));
    result.set("dir", JsonValue(config_.dir));
    result.set("window_ms", JsonValue(config_.windowMs));
    result.set("max_windows", JsonValue(config_.maxWindows));
    result.set("ingested_shards", JsonValue(ingestedShards()));
    result.set("retained_shards", JsonValue(windows_.shardCount()));
    result.set("last_alert_seq", JsonValue(sink_.lastSeq()));
    JsonValue windowList = JsonValue::makeArray();
    for (const WindowInfo &info : windows_.windows()) {
        JsonValue entry = JsonValue::makeObject();
        entry.set("id", JsonValue(info.id));
        entry.set("shards", JsonValue(info.shards));
        windowList.push(std::move(entry));
    }
    result.set("window_list", std::move(windowList));
    const WatcherStats &stats = watcher_.stats();
    JsonValue watcher = JsonValue::makeObject();
    watcher.set("polls", JsonValue(stats.polls));
    watcher.set("skipped_entries", JsonValue(stats.skippedEntries));
    watcher.set("reported_shards", JsonValue(stats.reportedShards));
    result.set("watcher", std::move(watcher));
    return result;
}

} // namespace tracelens
