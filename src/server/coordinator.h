/**
 * @file
 * Coordinator side of the sharded analysis service (docs/SERVER.md):
 * consistent-hash shard placement over a set of worker daemons,
 * scatter of per-shard `*_partial` requests over protocol v2 client
 * sessions, and gather/merge through the partial-result layer
 * (src/core/partial.h).
 *
 * `tracelens serve --coordinator --cluster-workers host:port,...`
 * runs a Server whose analyze/impact/mine handlers delegate here. The
 * workers are plain `tracelens serve` daemons sharing a filesystem
 * view of the corpus; the coordinator lists the corpus's shard files
 * with the same listShardFiles() a single-node openSource() uses,
 * asks each shard's owner worker for that shard's
 * partial, and folds the partials *in global shard order* with the
 * same merge functions the thread-level and incremental paths use —
 * which is why coordinator reports are byte-identical to single-node
 * reports over the same corpus.
 *
 * Failure semantics: a shard whose owner fails (connect, transport,
 * or error response) is retried once on its replica — the next
 * distinct worker clockwise on the hash ring. If the retry also
 * fails, the query *degrades* instead of failing: the response
 * carries "partial_results": true plus the missing shard list, and
 * the merge simply excludes those shards. Deadlines bound every
 * blocking step, so a dead worker can never hang a query past its
 * deadline. Mixed-version clusters fail fast: the coordinator
 * handshakes each worker's `health` and rejects the query with a
 * structured error when the advertised partial-encoding revision
 * differs from its own.
 */

#ifndef TRACELENS_SERVER_COORDINATOR_H
#define TRACELENS_SERVER_COORDINATOR_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/partial.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/trace/symbols.h"
#include "src/util/expected.h"
#include "src/util/json.h"

namespace tracelens
{
namespace server
{

// ----------------------------------------------------------- hash ring

/**
 * Consistent-hash ring over worker addresses. Each worker contributes
 * @c virtualNodes positions (hash of "addr#i"), which evens out the
 * shard distribution; a shard key maps to the first position at or
 * after its own hash (clockwise). The replica of a key is the next
 * *distinct* worker clockwise — the retry target when the owner
 * fails. Placement is a pure function of the worker list, so every
 * query (and every coordinator restart over the same topology) routes
 * shards identically, keeping worker-side session caches warm.
 */
class HashRing
{
  public:
    explicit HashRing(std::vector<std::string> workers,
                      unsigned virtualNodes = 64);

    const std::vector<std::string> &
    workers() const
    {
        return workers_;
    }

    /** Index (into workers()) of the worker owning @p key. */
    std::uint32_t primary(std::string_view key) const;

    /** Next distinct worker clockwise; nullopt with a single worker. */
    std::optional<std::uint32_t> replica(std::string_view key) const;

  private:
    std::vector<std::string> workers_;
    /** (position hash, worker index), sorted by hash. */
    std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

// ---------------------------------------------------------- coordinator

/** Coordinator topology + scatter knobs (CLI: `tracelens serve`). */
struct CoordinatorConfig
{
    /** Worker addresses ("host:port"), as given on the CLI. */
    std::vector<std::string> workers;
    /** Virtual nodes per worker on the hash ring. */
    unsigned virtualNodes = 64;
    /** Per-shard request deadline; also bounds the retry call. */
    std::uint64_t shardDeadlineMs = 10000;
};

/** One shard the gather could not obtain (owner and replica failed). */
struct ShardFailure
{
    std::string shard;
    std::string worker; //!< Last worker tried.
    std::string reason;
};

/** Degradation bookkeeping for one gather. */
struct GatherReport
{
    std::size_t shards = 0;  //!< Shards the corpus enumerates to.
    std::size_t retried = 0; //!< Shards answered by their replica.
    std::vector<ShardFailure> missing;

    bool
    degraded() const
    {
        return !missing.empty();
    }
};

/** A gather failure that must abort the whole query. */
struct GatherError
{
    ErrorCode code = ErrorCode::Internal;
    std::string message;
};

/** Merged scenario gather (the analyze/mine coordinator state). */
struct ScenarioGather : ScenarioFold
{
    bool scenarioFound = false;
    GatherReport report;
};

/** Merged corpus-wide impact gather. */
struct ImpactGather
{
    PartialImpact all;
    /** Per-scenario accumulators in first-seen shard order; render
     *  order comes from the JSON object's key sort. */
    std::vector<std::pair<std::string, PartialImpact>> perScenario;
    GatherReport report;
};

class Coordinator
{
  public:
    explicit Coordinator(CoordinatorConfig config);

    const CoordinatorConfig &
    config() const
    {
        return config_;
    }
    const HashRing &
    ring() const
    {
        return ring_;
    }

    /**
     * Scatter one scenario-partial request per shard (@p method is
     * Method::AnalyzePartial or Method::MinePartial — same payload,
     * same worker handler) and merge the partials in shard order.
     * Returns an error only for query-level failures (bad corpus,
     * revision mismatch, deadline, scenario absent everywhere);
     * per-shard worker failures degrade into @c out.report instead.
     */
    std::optional<GatherError>
    gatherScenario(Method method, const std::string &corpusPath,
                   const std::string &scenario, double tfastMs,
                   double tslowMs,
                   const std::vector<std::string> &components,
                   const std::optional<
                       std::chrono::steady_clock::time_point> &deadline,
                   ScenarioGather &out);

    /** Scatter `impact_partial` and merge (same contract). */
    std::optional<GatherError>
    gatherImpact(const std::string &corpusPath,
                 const std::vector<std::string> &components,
                 const std::optional<
                     std::chrono::steady_clock::time_point> &deadline,
                 ImpactGather &out);

    /**
     * Probe every worker's `health` (short per-worker timeout) and
     * report the topology: address, reachability, protocol and
     * partial-encoding revisions, plus the liveness extras (uptime,
     * inflight, open sessions) the status table renders (the
     * `cluster_status` method).
     */
    JsonValue clusterStatus() const;

    /**
     * Pull every worker's metrics registry (`metrics` method) and
     * fold the snapshots into @p aggregate — bucket-exact for
     * histograms (Histogram::State). Returns one entry per worker:
     * {"node", "ok", ["error"]} describing the pull.
     */
    JsonValue clusterMetrics(MetricsRegistry &aggregate) const;

    /**
     * Pull every reachable worker's span buffer (`telemetry_pull`)
     * as NodeSpans ready for Telemetry::renderChromeTraceMerged().
     * Pids are NOT assigned here — the caller namespaces them after
     * prepending its own node. Unreachable workers are skipped with
     * a warning (a stitched trace is best-effort by nature).
     */
    std::vector<NodeSpans> pullWorkerSpans() const;

  private:
    class Scatter; // per-gather session bookkeeping (coordinator.cpp)

    /**
     * Worker-session pool. A gather that drains cleanly returns its
     * handshaken sessions here, so the next gather skips the TCP
     * connect, the preface/SETTINGS exchange, and the health/revision
     * handshake — the dominant fixed cost of small gathers. A Session is
     * single-threaded, so concurrent gathers each check out their own;
     * a pooled socket that went stale is detected by the transport
     * failure and retried once on a fresh dial before the shard falls
     * back to its replica.
     */
    std::optional<Session> checkoutSession(std::uint32_t worker);
    void checkinSession(std::uint32_t worker, Session session);

    static constexpr std::size_t kMaxPooledSessionsPerWorker = 4;

    CoordinatorConfig config_;
    HashRing ring_;

    std::mutex poolMutex_;
    std::map<std::uint32_t, std::vector<Session>> pool_;
};

} // namespace server
} // namespace tracelens

#endif // TRACELENS_SERVER_COORDINATOR_H
