/**
 * @file
 * The TraceLens analysis service: a long-running TCP daemon over the
 * warm pipeline state (docs/SERVER.md).
 *
 * `tracelens serve` keeps ingested corpora, wait graphs, AWGs, and
 * mined patterns resident between requests — the batch pipeline of
 * PRs 1–4 behind an always-on, low-latency query surface. Concurrent
 * clients open with the protocol preface and then speak multiplexed
 * binary frames with per-request priorities and a shared symbol
 * dictionary (src/server/protocol.h and src/server/wire.h); requests
 * flow
 *
 *   reader thread (one per connection, socket I/O only)
 *     -> decoded Method -> its entry in the method table (answered
 *        inline, or queued)
 *     -> bounded request queue (maxInflight; "overloaded" rejection
 *        when full — backpressure instead of latency collapse)
 *     -> the work-stealing ThreadPool (src/util/parallel.h), each
 *        worker draining the queue and running handlers
 *     -> SessionRegistry (src/server/registry.h) for warm corpora
 *     -> response frames written back on the requesting stream.
 *
 * Deadlines are cooperative: "deadline_ms" (or the server default) is
 * checked at dequeue, after session acquire, and at stage boundaries
 * inside handlers; an expired request answers "deadline_exceeded"
 * without burning further pipeline time.
 *
 * Shutdown: requestStop() is async-signal-safe (it only writes one
 * byte to the wake pipe), so a SIGTERM handler may call it directly.
 * The drain sequence stops accepting connections, rejects new
 * requests with "shutting_down", finishes everything already queued,
 * then closes connections and joins every thread.
 *
 * Telemetry: one "server.request" span per request (method, outcome,
 * cache state as args), queue-depth and latency histograms plus
 * request/rejection counters in MetricsRegistry::global().
 */

#ifndef TRACELENS_SERVER_SERVER_H
#define TRACELENS_SERVER_SERVER_H

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "src/fleet/service.h"
#include "src/server/flightrecorder.h"
#include "src/server/protocol.h"
#include "src/server/registry.h"
#include "src/server/wire.h"
#include "src/util/expected.h"
#include "src/util/parallel.h"

namespace tracelens
{
namespace server
{

/** Daemon configuration (CLI: `tracelens serve`). */
struct ServerConfig
{
    /** Bind address; IPv4 dotted quad (use 0.0.0.0 for all). */
    std::string host = "127.0.0.1";
    /** TCP port; 0 picks an ephemeral port (see Server::port()). */
    std::uint16_t port = 0;
    /** Request workers on the work-stealing pool; 0 = hardware. */
    unsigned workers = 0;
    /** Bound on queued + running requests; beyond it requests are
     *  rejected with "overloaded" (CLI: --max-inflight). */
    std::size_t maxInflight = 64;
    /** Deadline applied when a request carries none; 0 = unlimited. */
    std::uint64_t defaultDeadlineMs = 30000;
    /** Request frames longer than this are answered protocol_error
     *  and skipped; the connection stays open (CLI:
     *  --max-line-bytes). */
    std::size_t maxLineBytes = 1 << 20;
    /** Enable the test-only "sleep" method (tests and load bench). */
    bool enableTestMethods = false;
    /**
     * Coordinator mode (CLI: `tracelens serve --coordinator`): the
     * daemon answers analyze/impact/mine by scatter/gathering
     * `*_partial` requests over the worker daemons listed in
     * workerAddrs instead of analyzing locally (src/server/
     * coordinator.h). Requires a non-empty workerAddrs.
     */
    bool coordinator = false;
    /** Worker addresses ("host:port"), CLI --cluster-workers. */
    std::vector<std::string> workerAddrs;
    /** Coordinator per-shard request deadline (--shard-deadline-ms). */
    std::uint64_t shardDeadlineMs = 10000;
    /**
     * Prometheus exposition listener ("HOST:PORT", CLI
     * --metrics-listen); empty = no listener. Serves the process
     * metrics registry as text format 0.0.4 over plain HTTP.
     */
    std::string metricsListen;
    /** Write the metrics listener's bound port here (ephemeral-port
     *  discovery for scripts, CLI --metrics-port-file). */
    std::string metricsPortFile;
    /** Log completed requests slower than this at warn level
     *  (CLI --slow-request-ms); 0 = off. */
    std::uint64_t slowRequestMs = 0;
    /** Write this node's spans as a TLC1 corpus under this directory
     *  at drain (CLI --self-trace-corpus); empty = off. Implies span
     *  recording while the daemon runs. */
    std::string selfTraceCorpusDir;
    /** Flight-recorder ring size (completed-request records). */
    std::size_t flightRecorderCapacity = 256;
    /** Session layer: ingestion options, analysis threads, eviction. */
    RegistryConfig registry;
    /**
     * Continuous fleet mode (CLI: `tracelens serve --watch DIR`,
     * docs/FLEET.md): watch DIR for renamed-into-place shards, serve
     * ingest_push / window_summary / alerts, and run the regression
     * sentinel. Empty = fleet methods answer BadRequest.
     */
    std::string fleetWatchDir;
    /** Window width (--window-ms). */
    std::uint64_t fleetWindowMs = 60000;
    /** Bounded window ring (--max-windows). */
    std::size_t fleetMaxWindows = 8;
    /** Spool poll interval (--poll-ms). */
    std::uint64_t fleetPollMs = 200;
    /** Sentinel baseline width in windows (--baseline-windows). */
    std::size_t fleetBaselineWindows = 3;
    /** Watched scenarios (--watch-scenario, repeatable; empty = the
     *  full catalog). */
    std::vector<std::string> fleetScenarios;
    /** Alert JSONL sink (--alerts-out); empty = in-memory only. */
    std::string fleetAlertsPath;
};

/** Point-in-time server counters (the `stats` method's source). */
struct ServerStats
{
    std::uint64_t accepted = 0;   //!< Connections accepted.
    std::uint64_t requests = 0;   //!< Request frames decoded OK.
    std::uint64_t ok = 0;         //!< Responses with ok=true.
    std::uint64_t errors = 0;     //!< Error responses (all codes).
    std::uint64_t rejected = 0;   //!< Of which: overloaded rejections.
    std::uint64_t dropped = 0;    //!< Responses to vanished clients.
    std::size_t inflight = 0;     //!< Queued + running right now.
    std::size_t connections = 0;  //!< Open connections right now.
    std::uint64_t v2Connections = 0;   //!< Connections that sent the
                                       //!< preface.
    std::uint64_t protocolErrors = 0;  //!< Framing violations seen.
};

class Coordinator; // src/server/coordinator.h

class Server
{
  public:
    explicit Server(ServerConfig config = {});
    /** Stops and joins (requestStop + wait) if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, and start the accept loop and worker pool.
     * Returns the bound port (the chosen one when config.port == 0).
     */
    Expected<std::uint16_t> start();

    /** Bound port after a successful start(). */
    std::uint16_t port() const { return port_; }

    /**
     * Begin the graceful drain. Async-signal-safe: only writes to the
     * wake pipe, so SIGTERM/SIGINT handlers may call it directly.
     * Idempotent.
     */
    void requestStop();

    /** Block until the drain completes and all threads are joined. */
    void wait();

    /** Whether the daemon finished draining. */
    bool stopped() const
    {
        return stopped_.load(std::memory_order_acquire);
    }

    ServerStats stats() const;
    const SessionRegistry &registry() const { return registry_; }
    const ServerConfig &config() const { return config_; }
    /** Metrics listener's bound port (0 = no listener). */
    std::uint16_t metricsPort() const { return metricsPort_; }
    const FlightRecorder &flightRecorder() const
    {
        return flightRecorder_;
    }

  private:
    /** One client connection; shared between its reader thread and
     *  whichever worker is writing a response. */
    struct Connection
    {
        int fd = -1;
        std::string peer;
        std::mutex writeMutex;
        std::atomic<bool> open{true};

        /** Total bytes received (reader thread only) — the source of
         *  the byte offsets in protocol_error / GOAWAY reports. */
        std::uint64_t bytesIn = 0;

        /** Framing, flow-control and dictionary state. */
        struct WireState
        {
            // ---- reader thread only
            wire::SymbolDict recvDict;     //!< client->server params
            std::uint32_t lastStream = 0;  //!< highest request stream

            // ---- guarded by writeMutex
            wire::SymbolDict sendDict;     //!< server->client results
            wire::Settings peer;           //!< client's SETTINGS
            /** Remaining response credit per open stream (created
             *  lazily at peer.initialWindow). */
            std::map<std::uint32_t, std::int64_t> window;
            /** One queued response, already dictionary-encoded.
             *  Encode order == queue order == wire order, which is
             *  what keeps both ends' sendDict/recvDict in lockstep. */
            struct Outbound
            {
                std::uint32_t stream = 0;
                std::uint8_t finalFlags = 0;
                std::string bytes;
                std::size_t sent = 0;
            };
            std::deque<Outbound> outbound;
        };
        WireState wire;

        /** Write all of @p bytes (caller holds writeMutex); marks the
         *  connection closed on error. Returns false when the client
         *  vanished. */
        bool sendAllLocked(std::string_view bytes);
        void shutdownBoth();
    };

    /** A request admitted to the bounded queue. */
    struct QueuedRequest
    {
        Request request;
        std::shared_ptr<Connection> conn;
        std::chrono::steady_clock::time_point arrival;
        /** Absolute deadline; nullopt = unlimited. */
        std::optional<std::chrono::steady_clock::time_point> deadline;
        /** The response stream. */
        std::uint32_t stream = 0;
    };

    /** A method handler; returns the rendered result or throws. */
    using Handler = std::string (Server::*)(const QueuedRequest &);
    /** Which daemons serve a method (see kMethods). */
    enum class Role : std::uint8_t
    {
        Any,         //!< Every daemon.
        Worker,      //!< Not a coordinator.
        Coordinator, //!< Only with --coordinator.
        Fleet,       //!< Only with --watch DIR.
        Test,        //!< Only with enableTestMethods; else unknown.
    };
    /** One method's row of the method table. */
    struct MethodEntry
    {
        Method method = Method::Health;
        /** Answered on the reader thread (the control plane, which
         *  must stay responsive when the queue is full) instead of
         *  queued for a worker. */
        bool answeredInline = false;
        Role role = Role::Any;
        /** BadRequest message when this daemon's role refuses the
         *  method (Worker, Coordinator, Fleet). */
        std::string_view refusal = {};
        /** The handler on a non-coordinator daemon. */
        Handler local = nullptr;
        /** The handler on a coordinator; null = local. */
        Handler coordinator = nullptr;
        /** A coordinator answers it by calling every worker (the
         *  flight recorder's fanout). */
        bool fansOut = false;
    };
    /** The method table, indexed by Method (docs/SERVER.md, Methods). */
    static const std::array<MethodEntry, kMethodCount> kMethods;

    void acceptLoop();
    void readerLoop(std::shared_ptr<Connection> conn);
    void reapReaders(bool all);

    /** Preface check, then the frame loop. Returns true when the
     *  socket failed (vs orderly close or a GOAWAY). */
    bool readFrames(const std::shared_ptr<Connection> &conn);
    /** Dispatch one v2 frame; false = stop reading this connection. */
    bool handleFrame(const std::shared_ptr<Connection> &conn,
                     const wire::FrameHeader &header,
                     std::string_view payload,
                     std::uint64_t frameStart);
    /** Send GOAWAY (fatal framing violation) and hang up. */
    void sendGoaway(const std::shared_ptr<Connection> &conn,
                    std::uint64_t offset, const std::string &message);

    /** Look @p request's method up in kMethods: answer it inline, or
     *  admit it to the bounded priority queue. */
    void routeRequest(const std::shared_ptr<Connection> &conn,
                      Request request, std::uint32_t stream);
    /** Fail the request with BadRequest and entry.refusal when this
     *  daemon's role does not serve @p entry (Worker, Coordinator and
     *  Fleet rows). */
    void checkRole(const MethodEntry &entry) const;
    /** Run one queued request on a pool worker. */
    void process(QueuedRequest request);
    void workerLoop();
    /** Queued requests across all priority buckets (queueMutex_). */
    std::size_t queuedTotal() const;

    // ---- response emission
    void respondOk(const std::shared_ptr<Connection> &conn,
                   std::uint32_t stream, const std::string &resultJson);
    void respondError(const std::shared_ptr<Connection> &conn,
                      std::uint32_t stream, ErrorCode code,
                      const std::string &message,
                      std::uint64_t offset = 0);
    void sendResponse(const std::shared_ptr<Connection> &conn,
                      std::uint32_t stream, bool isError,
                      const std::string &payloadJson);
    /** Drain Connection::WireState::outbound as far as the peer's
     *  flow-control windows allow (writeMutex held). */
    void flushOutboundLocked(const std::shared_ptr<Connection> &conn);

    /**
     * Method handlers (Handler); each returns the rendered result or
     * throws HandlerError. The response-cached ones (analyze, impact,
     * mine and the partial methods) return, on a cache hit, the
     * stored bytes as they are.
     */
    std::string handleAnalyze(const QueuedRequest &request);
    std::string handleImpact(const QueuedRequest &request);
    std::string handleMine(const QueuedRequest &request);
    std::string handleIngest(const QueuedRequest &request);
    std::string handleSleep(const QueuedRequest &request);
    /** Worker-side partial handlers (analyze_partial/mine_partial and
     *  impact_partial): one shard in, a TLP1 payload out. */
    std::string handleAnalyzePartial(const QueuedRequest &request);
    std::string handleImpactPartial(const QueuedRequest &request);
    /** Coordinator-side handlers: scatter/gather via coordinator_. */
    std::string handleCoordAnalyze(const QueuedRequest &request);
    std::string handleCoordImpact(const QueuedRequest &request);
    std::string handleCoordMine(const QueuedRequest &request);
    std::string handleClusterStatus(const QueuedRequest &request);
    /** Coordinator-side span stitching (queued: fans out over TCP). */
    std::string handleClusterTrace(const QueuedRequest &request);
    /** Continuous-mode handlers (Role::Fleet). */
    std::string handleIngestPush(const QueuedRequest &request);
    std::string handleWindowSummary(const QueuedRequest &request);
    std::string handleAlerts(const QueuedRequest &request);
    // Control-plane results (answered inline on the reader thread).
    std::string healthResult(const QueuedRequest &request);
    std::string statsResult(const QueuedRequest &request);
    std::string shutdownResult(const QueuedRequest &request);
    std::string telemetryPullResult(const QueuedRequest &request);
    std::string metricsResult(const QueuedRequest &request);
    std::string flightRecorderResult(const QueuedRequest &request);
    /** "host:port (role)" — how this node names itself in telemetry
     *  pulls and metrics labels. */
    std::string nodeName() const;
    /** Accept loop of the --metrics-listen HTTP endpoint. */
    void metricsLoop();

    void drain();

    ServerConfig config_;
    SessionRegistry registry_;
    /** Present only in coordinator mode (config_.coordinator). */
    std::unique_ptr<Coordinator> coordinator_;
    /** Present only in fleet mode (config_.fleetWatchDir). */
    std::unique_ptr<FleetService> fleet_;

    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    int wakeRead_ = -1;
    int wakeWrite_ = -1;

    /** --metrics-listen endpoint (Prometheus text exposition). */
    int metricsFd_ = -1;
    std::uint16_t metricsPort_ = 0;
    std::thread metricsThread_;
    std::atomic<bool> metricsStop_{false};

    FlightRecorder flightRecorder_;
    std::chrono::steady_clock::time_point startTime_;

    std::thread acceptThread_;
    std::thread poolDriver_;
    std::unique_ptr<ThreadPool> pool_;
    unsigned workerCount_ = 0;

    /** Reader threads and their connections, reaped as they finish. */
    struct ReaderSlot
    {
        std::thread thread;
        std::shared_ptr<Connection> conn;
        std::atomic<bool> done{false};
    };
    std::mutex readersMutex_;
    std::list<std::unique_ptr<ReaderSlot>> readers_;

    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::condition_variable drainCv_;
    /** One bucket per priority class; workers drain the lowest
     *  non-empty index first, so interactive requests overtake queued
     *  bulk work without preempting anything already running. */
    std::array<std::deque<QueuedRequest>, kPriorityLevels> queues_;
    std::size_t inflight_ = 0; //!< Queued + running (queueMutex_).
    bool stopWorkers_ = false;

    std::atomic<bool> started_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> stopped_{false};
    std::mutex stoppedMutex_;
    std::condition_variable stoppedCv_;

    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> ok_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::size_t> connections_{0};
    std::atomic<std::uint64_t> v2Conns_{0};
    std::atomic<std::uint64_t> protocolErrors_{0};

    /** Lock-free metric handles, resolved once at start(). */
    Counter *requestsCounter_ = nullptr;
    Counter *rejectedCounter_ = nullptr;
    Counter *errorsCounter_ = nullptr;
    Histogram *queueDepthHist_ = nullptr;
    Histogram *latencyHist_ = nullptr;
    Histogram *queueWaitHist_ = nullptr;
    Gauge *inflightGauge_ = nullptr;
};

/** Parse "HOST:PORT"; fails on a malformed address or port. */
Expected<std::pair<std::string, std::uint16_t>>
parseHostPort(const std::string &text);

} // namespace server
} // namespace tracelens

#endif // TRACELENS_SERVER_SERVER_H
