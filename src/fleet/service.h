/**
 * @file
 * FleetService: the continuous-mode composition root.
 *
 * Owns the spool watcher, the rolling-window ring, the sentinel, and
 * the alert sink, and serializes every mutation behind one mutex so
 * the three entry points can interleave safely:
 *
 *  - the background poll thread (`tracelens watch`, or a daemon
 *    started with --watch) discovering renamed-into-place shards,
 *  - the server's `ingest_push` handler pushing decoded shards,
 *  - the server's `window_summary` / `alerts` handlers reading.
 *
 * Every ingest runs the same sequence: bucket the shard by timestamp,
 * evaluate the sentinel against the trailing baseline, evict expired
 * windows, then tell the owner a shard arrived. Ingest throughput,
 * alert counts, and shard-arrival → alert-emission latency are
 * exported through the metrics registry
 * (`fleet.*`, docs/TELEMETRY.md) and gated by bench_scale's
 * BENCH_fleet.json section.
 */

#ifndef TRACELENS_FLEET_SERVICE_H
#define TRACELENS_FLEET_SERVICE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/fleet/alerts.h"
#include "src/fleet/sentinel.h"
#include "src/fleet/watcher.h"
#include "src/fleet/windows.h"
#include "src/util/json.h"

namespace tracelens
{

/** Continuous-mode configuration (CLI: `tracelens watch --help`). */
struct FleetConfig
{
    /** Spool directory to watch (and the ingest_push target). */
    std::string dir;
    /** Window width in milliseconds. */
    std::uint64_t windowMs = 60000;
    /** Bounded window ring size. */
    std::size_t maxWindows = 8;
    /** Poll interval of the background thread. */
    std::uint64_t pollMs = 200;
    /** Sentinel rules (watched scenarios + thresholds). */
    SentinelConfig sentinel;
    /** Pipeline configuration for per-shard partials. */
    AnalyzerConfig analyzer;
    /** Alert JSONL sink path; empty = in-memory ring only. */
    std::string alertsPath;
};

/** Outcome of one ingest (diagnostics + tests). */
struct IngestOutcome
{
    /** Window the shard landed in. */
    std::uint64_t window = 0;
    /** Alerts the post-ingest sentinel pass emitted. */
    std::size_t alerts = 0;
    /** Shards evicted by the post-ingest ring trim. */
    std::size_t evicted = 0;
};

/** See file comment. Thread-safe. */
class FleetService
{
  public:
    /**
     * @p onArrival, when set, runs after every shard the service
     * ingests, polled or pushed, still under the service lock: a
     * window_summary that counts the shard is answered after it ran.
     * The daemon retires its sessions over the spool there.
     */
    explicit FleetService(FleetConfig config,
                          std::function<void()> onArrival = {});
    ~FleetService();

    FleetService(const FleetService &) = delete;
    FleetService &operator=(const FleetService &) = delete;

    /**
     * Scan the spool once and ingest every newly finished shard in
     * filename order (ingest time = wall clock). Returns the number
     * of shards ingested.
     */
    std::size_t pollOnce();

    /**
     * Ingest one corpus directly under spool name @p name.
     * @p timestampMs overrides the window-bucketing wall clock — the
     * determinism hook `ingest_push` exposes as `timestamp_ms`.
     */
    IngestOutcome ingest(std::string name, TraceCorpus corpus,
                         std::optional<std::uint64_t> timestampMs);

    /** Start/stop the background poll thread (idempotent). */
    void start();
    void stop();

    /**
     * One scenario summary over a window selection. @p windowsSel is
     * "current" (default), "all", or a decimal window id; @p trailing
     * widens the selection to the N windows up to and including the
     * selected one (0 = just the selection). Result: fleet_revision,
     * window metadata, and the analyze-shaped object under "summary".
     */
    JsonValue windowSummary(const std::string &scenario,
                            DurationNs tFast, DurationNs tSlow,
                            const std::string &windowsSel,
                            std::size_t trailing, std::size_t top,
                            bool applyKnowledgeFilter);

    /** Watch-state overview (windows, shards, alerts, watcher). */
    JsonValue status();

    AlertSink &alerts() { return sink_; }
    const FleetConfig &config() const { return config_; }

    /** Shards ingested over the service's lifetime. */
    std::uint64_t ingestedShards() const
    {
        return ingested_.load(std::memory_order_relaxed);
    }

  private:
    /** The locked ingest + sentinel + evict sequence. */
    IngestOutcome
    ingestLocked(std::string name, TraceCorpus corpus,
                 std::optional<std::uint64_t> timestampMs);

    FleetConfig config_;
    std::function<void()> onArrival_;
    AlertSink sink_;
    CorpusWatcher watcher_;

    std::mutex mutex_; //!< guards windows_, sentinel_, watcher_
    WindowedAnalyzer windows_;
    RegressionSentinel sentinel_;

    std::atomic<std::uint64_t> ingested_{0};
    std::atomic<bool> running_{false};
    std::mutex wakeMutex_; //!< pairs with wake_
    std::condition_variable wake_; //!< stop() cuts a poll wait short
    std::thread thread_;
};

} // namespace tracelens

#endif // TRACELENS_FLEET_SERVICE_H
