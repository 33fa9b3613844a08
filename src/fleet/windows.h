/**
 * @file
 * WindowedAnalyzer: rolling time windows over a live shard stream.
 *
 * Continuous mode cannot re-analyze the past on every arrival, and it
 * cannot keep unbounded history. This layer buckets arriving shards
 * into fixed-width time windows (window id = timestamp / width, so
 * membership is a pure function of the timestamp — arrival
 * interleaving can never change it) and serves per-window and
 * trailing-N-window scenario summaries by *re-merging per-shard
 * partial results* (src/core/partial.h) instead of re-running the
 * pipeline:
 *
 *  - Each shard gets one Analyzer when it arrives. That Analyzer
 *    builds the shard's wait graphs once, keeps every instance's
 *    summaries and drops the graphs, so any (scenario, thresholds)
 *    partial is a fold of kept summaries, not a graph build.
 *  - A summary merges the selected shards' ScenarioPartials in
 *    *name-sorted order* — the same filename order listShardFiles()
 *    gives openSource() and the coordinator — through the exact
 *    gather fold of coordinator mode, then finalizes through the
 *    shared renderer (src/core/resultjson.h).
 *
 * Because the partial merge is associative and order-deterministic,
 * and the merge order is derived from shard *names* rather than
 * arrival times, a window summary is byte-identical to a cold batch
 * `analyze` over the same shard files regardless of how their
 * arrivals interleaved (asserted by tests/fleet_test.cpp and
 * scripts/smoke_fleet.sh).
 *
 * The ring is bounded: evictExpired() drops the oldest windows beyond
 * maxWindows, releasing their retained corpora and Analyzers (the
 * in-memory state of this layer). Not thread-safe — FleetService
 * serializes access.
 */

#ifndef TRACELENS_FLEET_WINDOWS_H
#define TRACELENS_FLEET_WINDOWS_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/analyzer.h"
#include "src/core/partial.h"
#include "src/core/resultjson.h"
#include "src/trace/source.h"
#include "src/trace/stream.h"

namespace tracelens
{

/** Rolling-window configuration. */
struct FleetWindowConfig
{
    /** Window width; shards bucket by timestamp / width. */
    std::uint64_t windowNs = 60ull * 1000 * 1000 * 1000;
    /** Bounded ring: evictExpired() keeps the newest N windows. */
    std::size_t maxWindows = 8;
    /** Pipeline configuration for the per-shard analyzers. */
    AnalyzerConfig analyzer;
};

/** One window's metadata. */
struct WindowInfo
{
    std::uint64_t id = 0;
    std::size_t shards = 0;
    std::uint64_t firstTimestampNs = 0;
    std::uint64_t lastTimestampNs = 0;
};

/** A finalized summary over a window selection. */
struct WindowScenarioSummary
{
    /** Mining/coverage plus the analyze-shaped JSON object. */
    ScenarioSummary summary;
    /** Merged symbol table the summary's patterns index into. */
    SymbolTable symbols;
    bool scenarioFound = false;
    std::size_t shards = 0;
    /** The windows merged, ascending. */
    std::vector<std::uint64_t> windows;
};

/** See file comment. */
class WindowedAnalyzer
{
  public:
    explicit WindowedAnalyzer(FleetWindowConfig config = {});

    /** Window id owning @p timestampNs. */
    std::uint64_t windowOf(std::uint64_t timestampNs) const;

    /**
     * Ingest one shard under its spool @p name (the merge-order key;
     * a re-pushed name replaces the previous corpus) and summarize its
     * instances. Returns the owning window id.
     */
    std::uint64_t addShard(std::string name, TraceCorpus corpus,
                           std::uint64_t timestampNs);

    /**
     * Drop the oldest windows beyond maxWindows, releasing their
     * corpora and Analyzers. Returns the evicted shard names
     * (the service uses them to clean the spool/session side).
     */
    std::vector<std::string> evictExpired();

    /** Per-window metadata, ascending by id. */
    std::vector<WindowInfo> windows() const;

    /** Newest window id; nullopt before the first shard. */
    std::optional<std::uint64_t> currentWindow() const;

    /** Every live window id, ascending. */
    std::vector<std::uint64_t> allWindows() const;

    /** Retained shards across all windows. */
    std::size_t shardCount() const;

    /**
     * Merge the selected shards' partials and finalize one scenario
     * summary (see file comment for the byte-identity contract).
     * Unknown window ids are ignored; an empty selection yields an
     * empty summary with scenarioFound = false.
     */
    WindowScenarioSummary
    summarize(const std::vector<std::uint64_t> &windowIds,
              const std::string &scenario, DurationNs tFast,
              DurationNs tSlow, std::size_t top,
              bool applyKnowledgeFilter) const;

    const FleetWindowConfig &config() const { return config_; }

  private:
    /** One retained shard. Held by pointer and never moved: the
     *  Analyzer keeps a pointer to the source beside it. */
    struct ShardEntry
    {
        ShardEntry(std::string name, std::uint64_t timestampNs,
                   TraceCorpus corpus, const AnalyzerConfig &config);

        std::string name;
        std::uint64_t timestampNs = 0;
        EagerSource source;
        Analyzer analyzer;
    };

    FleetWindowConfig config_;
    /** Window id -> shards, insertion order within the window. */
    std::map<std::uint64_t, std::vector<std::unique_ptr<ShardEntry>>>
        windows_;
};

} // namespace tracelens

#endif // TRACELENS_FLEET_WINDOWS_H
