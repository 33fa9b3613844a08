/**
 * @file
 * Coordinator scatter/gather (src/server/coordinator.h): hash-ring
 * placement, pipelined per-shard partial requests over client
 * sessions, replica retry, and shard-order merging.
 */

#include "src/server/coordinator.h"

#include <algorithm>
#include <map>

#include "src/server/client.h"
#include "src/trace/source.h"
#include "src/util/logging.h"
#include "src/util/telemetry.h"

namespace tracelens
{
namespace server
{

namespace
{

using Clock = std::chrono::steady_clock;

/** FNV-1a 64 with a splitmix64 finalizer: cheap, deterministic, and
 *  well-mixed enough for ring positions. */
std::uint64_t
hashKey(std::string_view text)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : text) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ULL;
    }
    h += 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
}

/** Milliseconds until @p deadline; max() when none, 0 when elapsed. */
std::uint64_t
remainingMs(const std::optional<Clock::time_point> &deadline)
{
    if (!deadline)
        return UINT64_MAX;
    const auto now = Clock::now();
    if (now >= *deadline)
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            *deadline - now)
            .count());
}

} // namespace

// ----------------------------------------------------------- HashRing

HashRing::HashRing(std::vector<std::string> workers,
                   unsigned virtualNodes)
    : workers_(std::move(workers))
{
    TL_ASSERT(!workers_.empty(), "hash ring needs at least one worker");
    const unsigned replicas = std::max(1u, virtualNodes);
    ring_.reserve(workers_.size() * replicas);
    for (std::uint32_t w = 0; w < workers_.size(); ++w) {
        for (unsigned v = 0; v < replicas; ++v) {
            ring_.emplace_back(
                hashKey(workers_[w] + "#" + std::to_string(v)), w);
        }
    }
    std::sort(ring_.begin(), ring_.end());
}

std::uint32_t
HashRing::primary(std::string_view key) const
{
    const std::uint64_t h = hashKey(key);
    auto it = std::upper_bound(
        ring_.begin(), ring_.end(), h,
        [](std::uint64_t value, const auto &entry) {
            return value < entry.first;
        });
    if (it == ring_.end())
        it = ring_.begin();
    return it->second;
}

std::optional<std::uint32_t>
HashRing::replica(std::string_view key) const
{
    const std::uint32_t owner = primary(key);
    const std::uint64_t h = hashKey(key);
    auto it = std::upper_bound(
        ring_.begin(), ring_.end(), h,
        [](std::uint64_t value, const auto &entry) {
            return value < entry.first;
        });
    if (it == ring_.end())
        it = ring_.begin();
    // Walk clockwise to the first position of a different worker.
    for (std::size_t step = 0; step < ring_.size(); ++step) {
        ++it;
        if (it == ring_.end())
            it = ring_.begin();
        if (it->second != owner)
            return it->second;
    }
    return std::nullopt;
}

// -------------------------------------------------------- Coordinator

Coordinator::Coordinator(CoordinatorConfig config)
    : config_(std::move(config)),
      ring_(config_.workers, config_.virtualNodes)
{
}

// -------------------------------------------------- Scatter (private)

/**
 * One gather's connection and pipelining state. Each involved worker
 * gets one Session (a Session is single-threaded and handler threads
 * run concurrently): checked out of the coordinator's pool when a
 * previous gather left a handshaken one behind, freshly dialled
 * otherwise. Each worker's shard requests pipeline on its session,
 * and responses are collected in global shard order so the caller can
 * fold as they resolve. Sessions that drain cleanly go back to the
 * pool on destruction; a pooled socket that proves stale (worker
 * restarted, idle close) is retried once on a fresh dial before the
 * shard falls back to its replica, so pooling can never turn a live
 * worker into a degraded response.
 */
class Coordinator::Scatter
{
  public:
    Scatter(Coordinator &owner,
            const std::optional<Clock::time_point> &deadline)
        : owner_(owner), ring_(owner.ring()),
          shardDeadlineMs_(owner.config().shardDeadlineMs),
          deadline_(deadline)
    {
    }

    ~Scatter()
    {
        checkinAll(conns_);
        checkinAll(fresh_);
    }

    /**
     * Scatter @p params[i] (method @p method) for shard i to its
     * owner, retry failures once on the replica, and leave each
     * obtained result object in @p results[i] (nullopt = missing,
     * recorded in @p report). Returns a query-level error for
     * revision mismatches and elapsed deadlines only.
     */
    std::optional<GatherError>
    run(Method method, const std::vector<std::string> &shards,
        const std::vector<JsonValue> &params,
        std::vector<std::optional<JsonValue>> &results,
        GatherReport &report)
    {
        report.shards = shards.size();
        results.assign(shards.size(), std::nullopt);

        struct Pending
        {
            std::uint32_t worker = 0;
            std::uint64_t handle = 0;
            bool sent = false;
            std::string reason;
        };
        std::vector<Pending> pending(shards.size());

        // Scatter phase: pipeline each shard's request on its
        // owner's session, in shard order per worker.
        for (std::size_t i = 0; i < shards.size(); ++i) {
            pending[i].worker = ring_.primary(shards[i]);
            if (auto error = checkDeadline())
                return error;
            Conn &conn = connect(pending[i].worker);
            if (conn.revisionMismatch)
                return GatherError{ErrorCode::BadRequest,
                                   conn.reason};
            if (!conn.alive) {
                pending[i].reason = conn.reason;
                continue;
            }
            Expected<std::uint64_t> handle =
                conn.session.send(method, params[i], callOptions());
            if (!handle) {
                conn.alive = false;
                conn.reason = handle.error().reason;
                pending[i].reason = conn.reason;
                continue;
            }
            ++conn.inflight;
            pending[i].sent = true;
            pending[i].handle = handle.value();
        }

        // Gather phase, strictly in shard order (merge order).
        for (std::size_t i = 0; i < shards.size(); ++i) {
            if (auto error = checkDeadline())
                return error;
            Pending &p = pending[i];
            std::string worker = ring_.workers()[p.worker];
            bool have = false;
            if (p.sent) {
                Conn &conn = conns_.at(p.worker);
                if (conn.alive) {
                    Expected<Response> response =
                        conn.session.wait(p.handle);
                    if (!response) {
                        conn.alive = false;
                        conn.reason = response.error().reason;
                        p.reason = conn.reason;
                    } else if (!response.value().ok) {
                        --conn.inflight;
                        p.reason =
                            response.value().error.message.empty()
                                ? std::string(errorCodeName(
                                      response.value().error.code))
                                : response.value().error.message;
                    } else {
                        --conn.inflight;
                        results[i] =
                            std::move(response.value().result);
                        have = true;
                    }
                } else {
                    p.reason = conn.reason;
                }
            }

            if (!have) {
                // A pooled socket can go stale between gathers (the
                // worker restarted, or closed the idle connection):
                // that transport failure need not mean the worker is
                // down, so retry once on a fresh dial of the primary
                // before burning the replica.
                auto primary = conns_.find(p.worker);
                if (primary != conns_.end() &&
                    primary->second.pooled &&
                    !primary->second.alive) {
                    if (auto error = checkDeadline())
                        return error;
                    Conn &conn = freshConnect(p.worker);
                    if (conn.revisionMismatch)
                        return GatherError{ErrorCode::BadRequest,
                                           conn.reason};
                    have = callOn(conn, method, params[i],
                                  results[i], p.reason);
                }
            }

            if (!have) {
                // Retry once on the replica (next distinct worker).
                const std::optional<std::uint32_t> rep =
                    ring_.replica(shards[i]);
                if (rep) {
                    if (auto error = checkDeadline())
                        return error;
                    worker = ring_.workers()[*rep];
                    Conn &conn = connect(*rep);
                    if (conn.revisionMismatch)
                        return GatherError{ErrorCode::BadRequest,
                                           conn.reason};
                    const bool wasPooledAlive =
                        conn.pooled && conn.alive;
                    have = callOn(conn, method, params[i],
                                  results[i], p.reason);
                    if (!have && wasPooledAlive && !conn.alive) {
                        // Same stale-socket rule for the replica.
                        Conn &fresh = freshConnect(*rep);
                        if (fresh.revisionMismatch)
                            return GatherError{ErrorCode::BadRequest,
                                               fresh.reason};
                        have = callOn(fresh, method, params[i],
                                      results[i], p.reason);
                    }
                    if (have)
                        ++report.retried;
                }
            }

            if (!have) {
                TL_LOG(Warn, "coordinator: shard ", shards[i],
                       " missing (", p.reason, ")");
                report.missing.push_back(
                    {shards[i], worker,
                     p.reason.empty() ? "worker unavailable"
                                      : p.reason});
            }
        }
        return std::nullopt;
    }

  private:
    struct Conn
    {
        Session session;
        bool alive = false;
        bool pooled = false; //!< Checked out of the coordinator pool.
        bool revisionMismatch = false;
        int inflight = 0; //!< Pipelined requests not yet drained.
        std::string reason;
    };

    /** Synchronous call on @p conn, filling @p result on success.
     *  A transport failure marks the conn dead; any failure leaves
     *  its description in @p reason. */
    bool
    callOn(Conn &conn, Method method, const JsonValue &params,
           std::optional<JsonValue> &result, std::string &reason)
    {
        if (!conn.alive) {
            if (reason.empty())
                reason = conn.reason;
            return false;
        }
        Expected<Response> response =
            conn.session.call(method, params, callOptions());
        if (!response) {
            conn.alive = false;
            conn.reason = response.error().reason;
            reason = conn.reason;
            return false;
        }
        if (!response.value().ok) {
            reason = response.value().error.message.empty()
                         ? std::string(errorCodeName(
                               response.value().error.code))
                         : response.value().error.message;
            return false;
        }
        result = std::move(response.value().result);
        return true;
    }

    std::optional<GatherError>
    checkDeadline() const
    {
        if (remainingMs(deadline_) == 0)
            return GatherError{
                ErrorCode::DeadlineExceeded,
                "deadline elapsed during coordinator scatter/gather"};
        return std::nullopt;
    }

    CallOptions
    callOptions() const
    {
        CallOptions options;
        options.deadlineMs =
            std::min<std::uint64_t>(shardDeadlineMs_,
                                    remainingMs(deadline_));
        // Hand the incoming request's span context (installed by
        // Server::process) down to the workers, so one query's spans
        // stitch into a single cross-node trace.
        options.traceContext = Telemetry::currentContext();
        return options;
    }

    /**
     * Lazily connect to worker @p index: reuse a pooled session from
     * an earlier gather when one exists (already handshaken — skips
     * the dial and the health round trip), fresh-dial otherwise.
     */
    Conn &
    connect(std::uint32_t index)
    {
        auto it = conns_.find(index);
        if (it != conns_.end())
            return it->second;
        Conn &conn = conns_[index];
        if (std::optional<Session> pooled =
                owner_.checkoutSession(index)) {
            conn.session = std::move(*pooled);
            conn.alive = true;
            conn.pooled = true;
            return conn;
        }
        dial(conn, index);
        return conn;
    }

    /** The fresh-dial retry conn for worker @p index (at most one per
     *  gather): used when a pooled socket proves stale. */
    Conn &
    freshConnect(std::uint32_t index)
    {
        auto it = fresh_.find(index);
        if (it != fresh_.end())
            return it->second;
        Conn &conn = fresh_[index];
        dial(conn, index);
        return conn;
    }

    /** Dial worker @p index and handshake its health: reachability
     *  and the partial-encoding revision. */
    void
    dial(Conn &conn, std::uint32_t index)
    {
        const std::string &address = ring_.workers()[index];
        const auto colon = address.rfind(':');
        const std::string host = address.substr(0, colon);
        const std::uint16_t port = static_cast<std::uint16_t>(
            std::stoul(address.substr(colon + 1)));

        SessionOptions options;
        options.ioTimeout =
            std::chrono::milliseconds(shardDeadlineMs_ + 2000);
        Expected<Session> session =
            Session::connect(host, port, options);
        if (!session) {
            conn.reason = "worker " + address +
                          " unreachable: " + session.error().reason;
            return;
        }
        conn.session = std::move(session.value());

        Expected<Response> health = conn.session.health();
        if (!health || !health.value().ok) {
            conn.reason = "worker " + address + " health probe failed";
            return;
        }
        const JsonValue *revision =
            health.value().result.find("partial_encoding");
        const std::uint32_t theirs =
            revision != nullptr && revision->isNumber()
                ? static_cast<std::uint32_t>(revision->asNumber())
                : 0;
        if (theirs != partialEncodingRevision()) {
            conn.revisionMismatch = true;
            conn.reason =
                "partial encoding revision mismatch: worker " +
                address + " speaks revision " +
                std::to_string(theirs) +
                ", coordinator speaks revision " +
                std::to_string(partialEncodingRevision()) +
                " — upgrade the cluster to one build";
            return;
        }
        conn.alive = true;
    }

    /** Return every healthy, fully drained session to the pool. */
    void
    checkinAll(std::map<std::uint32_t, Conn> &conns)
    {
        for (auto &[index, conn] : conns) {
            if (conn.alive && !conn.revisionMismatch &&
                conn.inflight == 0 && conn.session.connected())
                owner_.checkinSession(index,
                                      std::move(conn.session));
        }
        conns.clear();
    }

    Coordinator &owner_;
    const HashRing &ring_;
    std::uint64_t shardDeadlineMs_;
    const std::optional<Clock::time_point> &deadline_;
    /** Per-worker pipelining conns (pooled or fresh). */
    std::map<std::uint32_t, Conn> conns_;
    /** Per-worker stale-pool retry conns, always freshly dialled. */
    std::map<std::uint32_t, Conn> fresh_;
};

std::optional<Session>
Coordinator::checkoutSession(std::uint32_t worker)
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    auto it = pool_.find(worker);
    if (it == pool_.end() || it->second.empty())
        return std::nullopt;
    Session session = std::move(it->second.back());
    it->second.pop_back();
    return session;
}

void
Coordinator::checkinSession(std::uint32_t worker, Session session)
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    std::vector<Session> &idle = pool_[worker];
    // A bounded pool: beyond the cap the session just destructs,
    // closing its socket.
    if (idle.size() < kMaxPooledSessionsPerWorker)
        idle.push_back(std::move(session));
}

// ------------------------------------------------------------ gathers

namespace
{

/** Pull the base64 TLP1 payload out of one worker result. */
std::optional<GatherError>
extractPartialBytes(const JsonValue &result, const std::string &shard,
                    std::string &bytes)
{
    const JsonValue *b64 = result.find("partial");
    if (b64 == nullptr || !b64->isString()) {
        return GatherError{ErrorCode::Internal,
                           "worker returned no partial payload for " +
                               shard};
    }
    std::optional<std::string> raw = base64Decode(b64->asString());
    if (!raw) {
        return GatherError{ErrorCode::Internal,
                           "worker returned non-base64 partial for " +
                               shard};
    }
    bytes = std::move(*raw);
    return std::nullopt;
}

/** Decode failures keep their structured revision-mismatch message. */
GatherError
decodeError(const SourceError &error)
{
    const bool mismatch =
        error.reason.find("revision mismatch") != std::string::npos;
    return GatherError{mismatch ? ErrorCode::BadRequest
                                : ErrorCode::Internal,
                       error.reason};
}

} // namespace

std::optional<GatherError>
Coordinator::gatherScenario(
    Method method, const std::string &corpusPath,
    const std::string &scenario, double tfastMs, double tslowMs,
    const std::vector<std::string> &components,
    const std::optional<Clock::time_point> &deadline,
    ScenarioGather &out)
{
    Span span("coordinator.gather-scenario", "server");
    Expected<std::vector<std::string>> shards =
        listShardFiles(corpusPath);
    if (!shards)
        return GatherError{ErrorCode::NotFound,
                           shards.error().render()};
    if (span.active())
        span.arg("shards",
                 static_cast<std::uint64_t>(shards.value().size()));

    std::vector<JsonValue> params;
    params.reserve(shards.value().size());
    for (const std::string &shard : shards.value()) {
        AnalyzePartialRequest request;
        request.corpus = shard;
        request.scenario = scenario;
        request.tfastMs = tfastMs;
        request.tslowMs = tslowMs;
        request.components = components;
        params.push_back(request.toParams());
    }

    std::vector<std::optional<JsonValue>> results;
    Scatter scatter(*this, deadline);
    if (auto error = scatter.run(method, shards.value(), params,
                                 results, out.report))
        return error;

    // Fold in global shard order — the byte-identity contract.
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i])
            continue;
        std::string bytes;
        if (auto error = extractPartialBytes(
                *results[i], shards.value()[i], bytes))
            return error;
        Expected<ScenarioPartial> decoded =
            decodeScenarioPartial(bytes);
        if (!decoded)
            return decodeError(decoded.error());
        ScenarioPartial partial = std::move(decoded.value());
        if (const JsonValue *found =
                results[i]->find("scenario_found");
            found != nullptr && found->isBool() && found->asBool())
            out.scenarioFound = true;

        out.add(partial);
    }

    if (!out.scenarioFound && !out.report.degraded()) {
        return GatherError{ErrorCode::NotFound,
                           "scenario \"" + scenario +
                               "\" not present in corpus"};
    }
    return std::nullopt;
}

std::optional<GatherError>
Coordinator::gatherImpact(
    const std::string &corpusPath,
    const std::vector<std::string> &components,
    const std::optional<Clock::time_point> &deadline,
    ImpactGather &out)
{
    Span span("coordinator.gather-impact", "server");
    Expected<std::vector<std::string>> shards =
        listShardFiles(corpusPath);
    if (!shards)
        return GatherError{ErrorCode::NotFound,
                           shards.error().render()};
    if (span.active())
        span.arg("shards",
                 static_cast<std::uint64_t>(shards.value().size()));

    std::vector<JsonValue> params;
    params.reserve(shards.value().size());
    for (const std::string &shard : shards.value()) {
        ImpactPartialRequest request;
        request.corpus = shard;
        request.components = components;
        params.push_back(request.toParams());
    }

    std::vector<std::optional<JsonValue>> results;
    Scatter scatter(*this, deadline);
    if (auto error = scatter.run(Method::ImpactPartial,
                                 shards.value(), params, results,
                                 out.report))
        return error;

    std::uint32_t streams = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i])
            continue;
        std::string bytes;
        if (auto error = extractPartialBytes(
                *results[i], shards.value()[i], bytes))
            return error;
        Expected<ImpactPartial> decoded = decodeImpactPartial(bytes);
        if (!decoded)
            return decodeError(decoded.error());
        ImpactPartial partial = std::move(decoded.value());

        partial.rebaseStreams(streams);
        streams += partial.streamCount;
        out.all.merge(partial.all);
        for (auto &[name, acc] : partial.perScenario) {
            auto it = std::find_if(
                out.perScenario.begin(), out.perScenario.end(),
                [&, &scenarioName = name](const auto &entry) {
                    return entry.first == scenarioName;
                });
            if (it == out.perScenario.end())
                out.perScenario.emplace_back(name, std::move(acc));
            else
                it->second.merge(acc);
        }
    }
    return std::nullopt;
}

namespace
{

/** Dial one worker with a short probe timeout (status/metrics/trace
 *  pulls — not the scatter path, which pools sessions). */
Expected<Session>
dialWorker(const std::string &address, std::uint64_t timeoutMs)
{
    const auto colon = address.rfind(':');
    const std::string host = address.substr(0, colon);
    const std::uint16_t port = static_cast<std::uint16_t>(
        std::stoul(address.substr(colon + 1)));
    SessionOptions options;
    options.ioTimeout = std::chrono::milliseconds(timeoutMs);
    return Session::connect(host, port, options);
}

/** Copy a numeric member of @p from into @p to when present. */
void
copyNumber(const JsonValue &from, JsonValue &to, std::string_view key)
{
    if (const JsonValue *value = from.find(key);
        value != nullptr && value->isNumber())
        to.set(key, JsonValue(value->asNumber()));
}

} // namespace

JsonValue
Coordinator::clusterStatus() const
{
    JsonValue workers = JsonValue::makeArray();
    for (const std::string &address : ring_.workers()) {
        JsonValue entry = JsonValue::makeObject();
        entry.set("address", JsonValue(address));

        Expected<Session> session = dialWorker(address, 2000);
        if (!session) {
            entry.set("status", JsonValue("unreachable"));
            entry.set("error", JsonValue(session.error().reason));
            workers.push(std::move(entry));
            continue;
        }
        CallOptions probe;
        probe.deadlineMs = 2000;
        Expected<Response> health = session.value().call(
            Method::Health, JsonValue::makeObject(), probe);
        if (!health || !health.value().ok) {
            entry.set("status", JsonValue("unreachable"));
            workers.push(std::move(entry));
            continue;
        }
        const JsonValue &result = health.value().result;
        if (const JsonValue *status = result.find("status");
            status != nullptr && status->isString())
            entry.set("status", JsonValue(status->asString()));
        else
            entry.set("status", JsonValue("ok"));
        copyNumber(result, entry, "protocol");
        // Liveness extras for the status table (absent from old
        // workers' health results — the table renders "-" then).
        copyNumber(result, entry, "uptime_s");
        copyNumber(result, entry, "inflight");
        copyNumber(result, entry, "sessions");
        const JsonValue *revision = result.find("partial_encoding");
        const std::uint32_t theirs =
            revision != nullptr && revision->isNumber()
                ? static_cast<std::uint32_t>(revision->asNumber())
                : 0;
        entry.set("partial_encoding", JsonValue(theirs));
        entry.set("compatible",
                  JsonValue(theirs == partialEncodingRevision()));
        workers.push(std::move(entry));
    }

    JsonValue result = JsonValue::makeObject();
    result.set("role", JsonValue("coordinator"));
    result.set("partial_encoding",
               JsonValue(partialEncodingRevision()));
    result.set("virtual_nodes", JsonValue(config_.virtualNodes));
    result.set("shard_deadline_ms",
               JsonValue(config_.shardDeadlineMs));
    result.set("workers", std::move(workers));
    return result;
}

JsonValue
Coordinator::clusterMetrics(MetricsRegistry &aggregate) const
{
    Span span("coordinator.cluster-metrics", "server");
    JsonValue pulls = JsonValue::makeArray();
    for (const std::string &address : ring_.workers()) {
        JsonValue entry = JsonValue::makeObject();
        entry.set("node", JsonValue(address));
        Expected<Session> session = dialWorker(address, 2000);
        if (!session) {
            entry.set("ok", JsonValue(false));
            entry.set("error", JsonValue(session.error().reason));
            pulls.push(std::move(entry));
            continue;
        }
        CallOptions probe;
        probe.deadlineMs = 2000;
        Expected<Response> response = session.value().call(
            Method::Metrics, JsonValue::makeObject(), probe);
        if (!response || !response.value().ok) {
            entry.set("ok", JsonValue(false));
            entry.set("error",
                      JsonValue(response
                                    ? response.value().error.message
                                    : response.error().reason));
            pulls.push(std::move(entry));
            continue;
        }
        aggregate.merge(
            parseMetricsSnapshot(response.value().result));
        entry.set("ok", JsonValue(true));
        pulls.push(std::move(entry));
    }
    return pulls;
}

std::vector<NodeSpans>
Coordinator::pullWorkerSpans() const
{
    Span span("coordinator.pull-spans", "server");
    std::vector<NodeSpans> nodes;
    for (const std::string &address : ring_.workers()) {
        Expected<Session> session = dialWorker(address, 2000);
        if (!session) {
            TL_LOG(Warn, "coordinator: telemetry pull: worker ",
                   address, " unreachable (", session.error().reason,
                   ")");
            continue;
        }
        CallOptions probe;
        probe.deadlineMs = 2000;
        Expected<Response> response = session.value().call(
            Method::TelemetryPull, JsonValue::makeObject(), probe);
        if (!response || !response.value().ok) {
            TL_LOG(Warn, "coordinator: telemetry pull failed on ",
                   address);
            continue;
        }
        NodeSpans node = parseNodeSpans(response.value().result);
        if (node.node.empty())
            node.node = "worker @ " + address;
        nodes.push_back(std::move(node));
    }
    return nodes;
}

} // namespace server
} // namespace tracelens
