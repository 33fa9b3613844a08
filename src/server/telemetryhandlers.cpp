/**
 * @file
 * The control-plane and telemetry handlers of the daemon
 * (src/server/server.h): `health`, `stats`, `shutdown`, `metrics`,
 * `telemetry_pull` and `flight_recorder`, and the Prometheus scrape
 * of --metrics-listen.
 */

#include <sys/socket.h>

#include <string>
#include <utility>

#include "src/core/partial.h"
#include "src/fleet/fleet.h"
#include "src/server/handlers.h"
#include "src/server/server.h"
#include "src/util/telemetry.h"

namespace tracelens
{
namespace server
{

// --------------------------------------------- observability results

std::string
Server::nodeName() const
{
    return std::string(config_.coordinator ? "coordinator"
                                           : "worker") +
           " @ " + config_.host + ":" + std::to_string(port_);
}

std::string
Server::healthResult(const QueuedRequest &)
{
    JsonValue result = JsonValue::makeObject();
    result.set("status",
               JsonValue(draining_.load(std::memory_order_acquire)
                             ? "draining"
                             : "ok"));
    result.set("protocol", JsonValue(kProtocolVersion));
    JsonValue protocols = JsonValue::makeArray();
    protocols.push(JsonValue(kProtocolVersion));
    result.set("protocols", std::move(protocols));
    // Partial-result wire revision: the coordinator's mixed-version
    // handshake reads this (docs/SERVER.md).
    result.set("partial_encoding", JsonValue(partialEncodingRevision()));
    result.set("role",
               JsonValue(config_.coordinator ? "coordinator" : "worker"));
    // Fleet/watch contract revision: ingest_push rejects mismatched
    // pushers; clients can pre-check here (docs/FLEET.md).
    result.set("fleet_revision", JsonValue(fleetRevision()));
    result.set("fleet_watch", JsonValue(fleet_ != nullptr));
    // Cheap liveness extras the coordinator's cluster-status table
    // reads per worker (one probe, one row).
    result.set("uptime_s",
               JsonValue(static_cast<double>(
                   std::chrono::duration_cast<std::chrono::seconds>(
                       Clock::now() - startTime_)
                       .count())));
    result.set("inflight", JsonValue(stats().inflight));
    result.set("sessions", JsonValue(registry_.stats().openSessions));
    return result.render();
}

std::string
Server::shutdownResult(const QueuedRequest &)
{
    JsonValue result = JsonValue::makeObject();
    result.set("stopping", JsonValue(true));
    return result.render();
}

std::string
Server::telemetryPullResult(const QueuedRequest &)
{
    NodeSpans node;
    node.node = nodeName();
    node.epochUnixUs = Telemetry::epochUnixUs();
    node.spans = Telemetry::snapshotSpans();
    JsonValue result = nodeSpansJson(node);
    result.set("enabled", JsonValue(Telemetry::enabled()));
    return result.render();
}

std::string
Server::metricsResult(const QueuedRequest &)
{
    JsonValue result =
        metricsSnapshotJson(MetricsRegistry::global().snapshot());
    result.set("node", JsonValue(config_.host + ":" +
                                 std::to_string(port_)));
    result.set("role", JsonValue(config_.coordinator ? "coordinator"
                                                     : "worker"));
    return result.render();
}

std::string
Server::flightRecorderResult(const QueuedRequest &)
{
    JsonValue records = JsonValue::makeArray();
    for (const FlightRecord &record : flightRecorder_.snapshot()) {
        JsonValue entry = JsonValue::makeObject();
        entry.set("method", JsonValue(record.method));
        if (!record.session.empty())
            entry.set("session", JsonValue(record.session));
        entry.set("completed_unix_us",
                  JsonValue(record.completedUnixUs));
        entry.set("queue_wait_us", JsonValue(record.queueWaitUs));
        entry.set("total_us", JsonValue(record.totalUs));
        if (record.hasDeadline)
            entry.set("deadline_slack_ms",
                      JsonValue(record.deadlineSlackMs));
        entry.set("outcome", JsonValue(record.outcome));
        entry.set("response_bytes", JsonValue(record.responseBytes));
        if (record.fanout != 0)
            entry.set("fanout", JsonValue(record.fanout));
        if (record.traceId != 0)
            entry.set("trace_id", JsonValue(hexId(record.traceId)));
        entry.set("protocol", JsonValue(record.protocol));
        entry.set("priority", JsonValue(record.priority));
        records.push(std::move(entry));
    }
    JsonValue result = JsonValue::makeObject();
    result.set("total", JsonValue(flightRecorder_.total()));
    result.set("capacity", JsonValue(flightRecorder_.capacity()));
    result.set("records", std::move(records));
    return result.render();
}

// --------------------------------------------- Prometheus scrape

void
Server::serveScrape(const std::shared_ptr<Connection> &conn)
{
    // One exchange per scrape: read the request head, answer the full
    // registry, hang up. Prometheus scrapers and curl both speak
    // exactly this. A scraper that sends nothing waits on its own
    // reader slot until the drain hangs up on it.
    std::string head;
    char buffer[1024];
    while (head.find("\r\n\r\n") == std::string::npos &&
           head.size() < 16384) {
        const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
        if (n <= 0)
            break;
        head.append(buffer, static_cast<std::size_t>(n));
    }
    if (!conn->open.load(std::memory_order_acquire))
        return; // the drain hung up
    const std::string body = renderPrometheus(
        MetricsRegistry::global().snapshot(),
        {{"node",
          config_.host + ":" + std::to_string(port_)},
         {"role",
          config_.coordinator ? "coordinator" : "worker"}});
    std::string response =
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; "
        "charset=utf-8\r\n"
        "Content-Length: " +
        std::to_string(body.size()) +
        "\r\n"
        "Connection: close\r\n\r\n" +
        body;
    std::lock_guard<std::mutex> lock(conn->writeMutex);
    conn->sendAllLocked(response);
    conn->shutdownBoth();
}

ServerStats
Server::stats() const
{
    ServerStats stats;
    stats.accepted = accepted_.load(std::memory_order_relaxed);
    stats.requests = requests_.load(std::memory_order_relaxed);
    stats.ok = ok_.load(std::memory_order_relaxed);
    stats.errors = errors_.load(std::memory_order_relaxed);
    stats.rejected = rejected_.load(std::memory_order_relaxed);
    stats.dropped = dropped_.load(std::memory_order_relaxed);
    stats.connections = connections_.load(std::memory_order_relaxed);
    stats.v2Connections = v2Conns_.load(std::memory_order_relaxed);
    stats.protocolErrors =
        protocolErrors_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(
            const_cast<std::mutex &>(queueMutex_));
        stats.inflight = inflight_;
    }
    return stats;
}

std::string
Server::statsResult(const QueuedRequest &)
{
    const ServerStats stats = this->stats();
    const RegistryStats sessions = registry_.stats();

    JsonValue result = JsonValue::makeObject();
    result.set("draining",
               JsonValue(draining_.load(std::memory_order_acquire)));
    result.set("workers", JsonValue(workerCount_));
    result.set("max_inflight", JsonValue(config_.maxInflight));
    JsonValue requests = JsonValue::makeObject();
    requests.set("total", JsonValue(stats.requests));
    requests.set("ok", JsonValue(stats.ok));
    requests.set("errors", JsonValue(stats.errors));
    requests.set("rejected", JsonValue(stats.rejected));
    requests.set("dropped", JsonValue(stats.dropped));
    requests.set("inflight", JsonValue(stats.inflight));
    result.set("requests", std::move(requests));
    JsonValue connections = JsonValue::makeObject();
    connections.set("open", JsonValue(stats.connections));
    connections.set("accepted", JsonValue(stats.accepted));
    result.set("connections", std::move(connections));
    JsonValue protocol = JsonValue::makeObject();
    protocol.set("v2_connections", JsonValue(stats.v2Connections));
    protocol.set("protocol_errors", JsonValue(stats.protocolErrors));
    result.set("protocol", std::move(protocol));
    JsonValue sessionsJson = JsonValue::makeObject();
    sessionsJson.set("open", JsonValue(sessions.openSessions));
    sessionsJson.set("active_handles",
                     JsonValue(sessions.activeHandles));
    sessionsJson.set("opened", JsonValue(sessions.opened));
    sessionsJson.set("reused", JsonValue(sessions.reused));
    sessionsJson.set("evicted", JsonValue(sessions.evicted));
    sessionsJson.set("open_failures",
                     JsonValue(sessions.openFailures));
    result.set("sessions", std::move(sessionsJson));
    JsonValue latency = JsonValue::makeObject();
    latency.set("count", JsonValue(latencyHist_->count()));
    latency.set("p50_us", JsonValue(latencyHist_->percentile(0.50)));
    latency.set("p95_us", JsonValue(latencyHist_->percentile(0.95)));
    latency.set("p99_us", JsonValue(latencyHist_->percentile(0.99)));
    latency.set("max_us", JsonValue(latencyHist_->max()));
    result.set("latency", std::move(latency));
    return result.render();
}

} // namespace server
} // namespace tracelens
