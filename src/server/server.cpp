/**
 * @file
 * The analysis-service daemon (src/server/server.h): lifecycle and
 * dispatch. start() binds the sockets and starts the threads, the
 * accept loop hands each connection to a reader thread
 * (connection.cpp), routeRequest() looks each request up in the
 * method table and answers it inline or queues it, the request
 * workers run the queued ones through their handlers
 * (batchhandlers.cpp, clusterhandlers.cpp, fleethandlers.cpp,
 * telemetryhandlers.cpp), and drain() shuts it all down.
 */

#include "src/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <utility>
#include <vector>

#include "src/server/coordinator.h"
#include "src/server/handlers.h"
#include "src/trace/selftrace.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/telemetry.h"

namespace tracelens
{
namespace server
{

namespace
{

std::uint64_t
usSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - start)
            .count());
}

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/** A listening IPv4 TCP socket, or the step that failed to open it. */
struct Listener
{
    enum class Step : std::uint8_t
    {
        Socket,
        Address,
        Bind,
        Listen,
    };
    int fd = -1; //!< -1 when a step failed.
    std::uint16_t port = 0;
    Step failed = Step::Socket;
    int err = 0; //!< errno at the failed step.
};

/** Bind and listen on @p host:@p port (port 0 = an ephemeral one). */
Listener
openListener(const std::string &host, std::uint16_t port, int backlog)
{
    Listener out;
    const auto fail = [&out](Listener::Step step) {
        out.err = errno;
        out.failed = step;
        closeFd(out.fd);
        return out;
    };
    out.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (out.fd < 0)
        return fail(Listener::Step::Socket);
    const int one = 1;
    ::setsockopt(out.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        return fail(Listener::Step::Address);
    if (::bind(out.fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail(Listener::Step::Bind);
    if (::listen(out.fd, backlog) != 0)
        return fail(Listener::Step::Listen);
    sockaddr_in bound{};
    socklen_t boundLen = sizeof(bound);
    ::getsockname(out.fd, reinterpret_cast<sockaddr *>(&bound),
                  &boundLen);
    out.port = ntohs(bound.sin_port);
    return out;
}

} // namespace

// ----------------------------------------------------------- Server

Server::Server(ServerConfig config)
    : config_(std::move(config)), registry_(config_.registry),
      flightRecorder_(config_.flightRecorderCapacity)
{
}

Server::~Server()
{
    // Only a successful start() leaves threads to stop.
    if (acceptThread_.joinable()) {
        requestStop();
        wait();
    }
    closeFd(wakeRead_);
    closeFd(wakeWrite_);
}

Expected<std::uint16_t>
Server::start()
{
    if (started_.exchange(true))
        return SourceError{"<server>", 0, "server already started"};

    // Every step that can fail runs before any thread starts, and a
    // failure closes what the steps before it opened.
    const auto fail = [this](std::string reason) {
        closeFd(metricsFd_);
        closeFd(listenFd_);
        closeFd(wakeRead_);
        closeFd(wakeWrite_);
        return SourceError{"<server>", 0, std::move(reason)};
    };
    if (config_.coordinator) {
        if (config_.workerAddrs.empty()) {
            return fail("coordinator mode needs at least one worker "
                        "(--cluster-workers host:port,...)");
        }
        for (const std::string &address : config_.workerAddrs) {
            if (!parseHostPort(address)) {
                return fail("invalid worker address '" + address +
                            "' (expected host:port)");
            }
        }
    }

    int pipeFds[2];
    if (::pipe(pipeFds) != 0)
        return fail(std::string("pipe: ") + std::strerror(errno));
    wakeRead_ = pipeFds[0];
    wakeWrite_ = pipeFds[1];

    const Listener api = openListener(config_.host, config_.port, 128);
    if (api.fd < 0) {
        switch (api.failed) {
        case Listener::Step::Socket:
            return fail(std::string("socket: ") + std::strerror(api.err));
        case Listener::Step::Address:
            return fail("invalid listen host '" + config_.host +
                        "' (IPv4 dotted quad expected)");
        case Listener::Step::Bind:
            return fail("bind " + config_.host + ":" +
                        std::to_string(config_.port) + ": " +
                        std::strerror(api.err));
        case Listener::Step::Listen:
            return fail(std::string("listen: ") + std::strerror(api.err));
        }
    }
    listenFd_ = api.fd;
    port_ = api.port;

    if (!config_.metricsListen.empty()) {
        Expected<std::pair<std::string, std::uint16_t>> endpoint =
            parseHostPort(config_.metricsListen);
        if (!endpoint)
            return fail("--metrics-listen: " + endpoint.error().reason);
        const Listener metrics = openListener(
            endpoint.value().first, endpoint.value().second, 16);
        if (metrics.fd < 0) {
            return fail(metrics.failed == Listener::Step::Socket
                            ? std::string("metrics socket: ") +
                                  std::strerror(metrics.err)
                            : "metrics listen " + config_.metricsListen +
                                  ": " + std::strerror(metrics.err));
        }
        metricsFd_ = metrics.fd;
        metricsPort_ = metrics.port;
        TL_LOG(Info, "serve: metrics exposition on ",
               endpoint.value().first, ":", metricsPort_);
    }

    if (config_.coordinator) {
        CoordinatorConfig coordConfig;
        coordConfig.workers = config_.workerAddrs;
        coordConfig.shardDeadlineMs = config_.shardDeadlineMs;
        coordinator_ = std::make_unique<Coordinator>(coordConfig);
    }
    if (!config_.fleet.dir.empty()) {
        // Every shard that reaches the windows, polled or pushed,
        // changes the corpus under the spool's sessions.
        fleet_ = std::make_unique<FleetService>(config_.fleet, [this] {
            registry_.retire(config_.fleet.dir);
        });
        fleet_->start();
    }

    MetricsRegistry &metrics = MetricsRegistry::global();
    requestsCounter_ = &metrics.counter("server.requests");
    rejectedCounter_ = &metrics.counter("server.rejected");
    errorsCounter_ = &metrics.counter("server.errors");
    queueDepthHist_ = &metrics.histogram("server.queue_depth");
    latencyHist_ = &metrics.histogram("server.latency_us");
    queueWaitHist_ = &metrics.histogram("server.queue_wait_us");
    inflightGauge_ = &metrics.gauge("server.inflight");

    startTime_ = Clock::now();
    // Self-tracing needs spans recorded regardless of --trace-out.
    if (!config_.selfTraceCorpusDir.empty())
        Telemetry::setEnabled(true);

    workerCount_ = resolveThreads(config_.workers);
    workers_.reserve(workerCount_);
    for (unsigned i = 0; i < workerCount_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    acceptThread_ = std::thread([this] { acceptLoop(); });

    TL_LOG(Info, "serve: listening on ", config_.host, ":", port_,
           " (", workerCount_, " workers, max-inflight ",
           config_.maxInflight, ")");
    return port_;
}

void
Server::requestStop()
{
    // Only async-signal-safe calls here: SIGTERM handlers call this.
    if (wakeWrite_ >= 0) {
        const char byte = 's';
        [[maybe_unused]] const ssize_t n =
            ::write(wakeWrite_, &byte, 1);
    }
}

void
Server::wait()
{
    // The accept thread runs the drain before it returns.
    if (acceptThread_.joinable())
        acceptThread_.join();
}

// ------------------------------------------------------ accept path

void
Server::acceptLoop()
{
    auto nextTick = Clock::now() + std::chrono::seconds(1);
    while (true) {
        // A negative fd (no --metrics-listen) is skipped by poll().
        pollfd fds[3] = {{wakeRead_, POLLIN, 0},
                         {listenFd_, POLLIN, 0},
                         {metricsFd_, POLLIN, 0}};
        const int ready = ::poll(fds, 3, 1000);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            TL_LOG(Error, "serve: poll failed: ",
                   std::strerror(errno));
            break;
        }
        if (Clock::now() >= nextTick) {
            // Housekeeping once a second, however busy the ports are:
            // reap finished readers (closing their sockets), evict
            // idle sessions.
            reapReaders(false);
            registry_.evictIdle();
            nextTick = Clock::now() + std::chrono::seconds(1);
        }
        if (ready == 0)
            continue;
        if (fds[0].revents != 0)
            break; // stop requested
        if ((fds[1].revents & POLLIN) != 0 && !acceptOn(listenFd_, false))
            break;
        if ((fds[2].revents & POLLIN) != 0 && !acceptOn(metricsFd_, true))
            break;
    }
    drain();
}

bool
Server::acceptOn(int listenFd, bool scrape)
{
    sockaddr_in peer{};
    socklen_t peerLen = sizeof(peer);
    const int fd =
        ::accept(listenFd, reinterpret_cast<sockaddr *>(&peer), &peerLen);
    if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED)
            return true;
        TL_LOG(Error, "serve: accept failed: ", std::strerror(errno));
        return false;
    }
    // Interactive protocol, small frames: without TCP_NODELAY a
    // response written shortly after another stalls ~40ms behind
    // Nagle waiting for the peer's delayed ACK.
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                 sizeof(nodelay));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    char host[INET_ADDRSTRLEN] = "?";
    ::inet_ntop(AF_INET, &peer.sin_addr, host, sizeof(host));
    conn->peer = std::string(host) + ":" +
                 std::to_string(ntohs(peer.sin_port));
    if (!scrape) {
        // A scrape is not a client connection: stats counts clients.
        accepted_.fetch_add(1, std::memory_order_relaxed);
        connections_.fetch_add(1, std::memory_order_relaxed);
    }
    TL_LOG(Debug, "serve: accepted ", conn->peer);

    auto slot = std::make_unique<ReaderSlot>();
    ReaderSlot *raw = slot.get();
    slot->conn = conn;
    {
        std::lock_guard<std::mutex> lock(readersMutex_);
        readers_.push_back(std::move(slot));
    }
    raw->thread = std::thread([this, conn, raw, scrape] {
        if (scrape)
            serveScrape(conn);
        else
            readerLoop(conn);
        raw->done.store(true, std::memory_order_release);
    });
    return true;
}

void
Server::reapReaders(bool all)
{
    std::list<std::unique_ptr<ReaderSlot>> finished;
    {
        std::lock_guard<std::mutex> lock(readersMutex_);
        for (auto it = readers_.begin(); it != readers_.end();) {
            if (all || (*it)->done.load(std::memory_order_acquire)) {
                finished.push_back(std::move(*it));
                it = readers_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const auto &slot : finished) {
        if (slot->thread.joinable())
            slot->thread.join();
    }
}

// ----------------------------------------------------- method table

namespace
{

constexpr std::string_view kWorkersOnly =
    "partial methods are served by workers, not the coordinator";
constexpr std::string_view kCoordinatorOnly =
    "this daemon is not a coordinator (start with --coordinator)";
constexpr std::string_view kFleetOnly =
    "this daemon is not in continuous mode (start with --watch DIR)";

} // namespace

// Row i serves the method whose wire byte is i; routeRequest's
// static_assert keeps the rows in enum order.
constexpr std::array<Server::MethodEntry, kMethodCount> Server::kMethods = {{
    {.method = Method::Health,
     .answeredInline = true,
     .local = &Server::healthResult},
    {.method = Method::Stats,
     .answeredInline = true,
     .local = &Server::statsResult},
    {.method = Method::Shutdown,
     .answeredInline = true,
     .local = &Server::shutdownResult},
    {.method = Method::Analyze,
     .local = &Server::handleAnalyze,
     .coordinator = &Server::handleCoordAnalyze,
     .fansOut = true},
    {.method = Method::Impact,
     .local = &Server::handleImpact,
     .coordinator = &Server::handleCoordImpact,
     .fansOut = true},
    {.method = Method::Mine,
     .local = &Server::handleMine,
     .coordinator = &Server::handleCoordMine,
     .fansOut = true},
    {.method = Method::Ingest,
     .role = Role::Worker,
     .refusal = "ingest is not available in coordinator mode (ingest on "
                "the workers)",
     .local = &Server::handleIngest},
    {.method = Method::Sleep,
     .role = Role::Test,
     .local = &Server::handleSleep},
    {.method = Method::AnalyzePartial,
     .role = Role::Worker,
     .refusal = kWorkersOnly,
     .local = &Server::handleAnalyzePartial},
    {.method = Method::ImpactPartial,
     .role = Role::Worker,
     .refusal = kWorkersOnly,
     .local = &Server::handleImpactPartial},
    {.method = Method::MinePartial,
     .role = Role::Worker,
     .refusal = kWorkersOnly,
     .local = &Server::handleAnalyzePartial},
    {.method = Method::ClusterStatus,
     .role = Role::Coordinator,
     .refusal = kCoordinatorOnly,
     .coordinator = &Server::handleClusterStatus},
    {.method = Method::TelemetryPull,
     .answeredInline = true,
     .local = &Server::telemetryPullResult},
    {.method = Method::Metrics,
     .answeredInline = true,
     .local = &Server::metricsResult},
    {.method = Method::FlightRecorder,
     .answeredInline = true,
     .local = &Server::flightRecorderResult},
    {.method = Method::ClusterTrace,
     .role = Role::Coordinator,
     .refusal = kCoordinatorOnly,
     .coordinator = &Server::handleClusterTrace,
     .fansOut = true},
    {.method = Method::IngestPush,
     .role = Role::Fleet,
     .refusal = kFleetOnly,
     .local = &Server::handleIngestPush},
    {.method = Method::WindowSummary,
     .role = Role::Fleet,
     .refusal = kFleetOnly,
     .local = &Server::handleWindowSummary},
    {.method = Method::Alerts,
     .role = Role::Fleet,
     .refusal = kFleetOnly,
     .local = &Server::handleAlerts},
}};

// ----------------------------------------------------- request path

void
Server::routeRequest(const std::shared_ptr<Connection> &conn,
                     Request request, std::uint32_t stream)
{
    static_assert(
        [] {
            for (std::size_t i = 0; i < kMethodCount; ++i) {
                if (kMethods[i].method != static_cast<Method>(i))
                    return false;
            }
            return true;
        }(),
        "kMethods rows must follow the Method enum");
    requests_.fetch_add(1, std::memory_order_relaxed);
    requestsCounter_->add(1);

    const MethodEntry &entry =
        kMethods[static_cast<std::size_t>(request.method)];
    if (entry.role == Role::Test && !config_.enableTestMethods) {
        answerError(conn, stream, ErrorCode::NotFound,
                    "unknown method \"" +
                        std::string(methodName(request.method)) + "\"");
        return;
    }

    QueuedRequest queued;
    queued.arrival = Clock::now();
    const std::uint64_t deadlineMs = request.deadlineMs != 0
                                         ? request.deadlineMs
                                         : config_.defaultDeadlineMs;
    if (deadlineMs != 0) {
        queued.deadline =
            queued.arrival + std::chrono::milliseconds(deadlineMs);
    }
    const std::uint8_t priority =
        request.priority < kPriorityLevels ? request.priority
                                           : kPriorityBulk;
    queued.request = std::move(request);
    queued.conn = conn;
    queued.stream = stream;

    if (entry.answeredInline) {
        // The control plane answers on the reader thread: it must stay
        // responsive even when the queue is saturated.
        ok_.fetch_add(1, std::memory_order_relaxed);
        respondOk(conn, stream, (this->*entry.local)(queued));
        if (queued.request.method == Method::Shutdown) {
            TL_LOG(Info, "serve: shutdown requested by ", conn->peer);
            requestStop();
        }
        return;
    }
    if (draining_.load(std::memory_order_acquire)) {
        answerError(conn, stream, ErrorCode::ShuttingDown,
                    "server is draining");
        return;
    }

    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        if (inflight_ >= config_.maxInflight) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            rejectedCounter_->add(1);
            errors_.fetch_add(1, std::memory_order_relaxed);
            respondError(conn, stream, ErrorCode::Overloaded,
                         "request queue full (" +
                             std::to_string(config_.maxInflight) +
                             " inflight); retry later");
            return;
        }
        ++inflight_;
        queues_[priority].push_back(std::move(queued));
        queueDepthHist_->record(queuedTotal());
        inflightGauge_->set(static_cast<double>(inflight_));
    }
    queueCv_.notify_one();
}

void
Server::checkRole(const MethodEntry &entry) const
{
    bool served = true;
    switch (entry.role) {
    case Role::Worker:
        served = !config_.coordinator;
        break;
    case Role::Coordinator:
        served = config_.coordinator;
        break;
    case Role::Fleet:
        served = fleet_ != nullptr;
        break;
    case Role::Any:
    case Role::Test:
        break;
    }
    if (!served)
        failRequest(ErrorCode::BadRequest, std::string(entry.refusal));
}

std::size_t
Server::queuedTotal() const
{
    std::size_t total = 0;
    for (const auto &bucket : queues_)
        total += bucket.size();
    return total;
}

void
Server::workerLoop()
{
    while (true) {
        QueuedRequest request;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock, [this] {
                return queuedTotal() != 0 || stopWorkers_;
            });
            if (queuedTotal() == 0 && stopWorkers_)
                return;
            // Lowest priority index first: interactive requests
            // overtake queued bulk work.
            for (auto &bucket : queues_) {
                if (!bucket.empty()) {
                    request = std::move(bucket.front());
                    bucket.pop_front();
                    break;
                }
            }
        }
        try {
            process(std::move(request));
        } catch (const std::exception &e) {
            // process() answers handler errors itself; anything that
            // escapes is a server bug we log rather than let end the
            // worker thread (and with it the process).
            TL_LOG(Error, "serve: unhandled handler exception: ",
                   e.what());
        }
        {
            std::lock_guard<std::mutex> lock(queueMutex_);
            --inflight_;
            inflightGauge_->set(static_cast<double>(inflight_));
        }
        drainCv_.notify_all();
    }
}

void
Server::process(QueuedRequest request)
{
    // Install the propagated context first so the request span (and
    // everything under it) records the caller's trace id, with the
    // caller's span as parent — the receiving half of cross-process
    // propagation.
    std::optional<TraceContextScope> contextScope;
    if (request.request.context.valid())
        contextScope.emplace(request.request.context);
    const MethodEntry &entry =
        kMethods[static_cast<std::size_t>(request.request.method)];
    const std::string method(methodName(request.request.method));
    Span span("server.request", "server");
    if (span.active())
        span.arg("method", method);
    const std::uint64_t queueWaitUs = usSince(request.arrival);
    queueWaitHist_->record(queueWaitUs);

    std::string resultJson;
    std::optional<HandlerError> failure;
    const char *outcome = "ok";
    try {
        if (request.deadline && Clock::now() >= *request.deadline) {
            failRequest(ErrorCode::DeadlineExceeded,
                        "deadline elapsed while queued");
        }
        checkRole(entry);
        const Handler handler =
            config_.coordinator && entry.coordinator != nullptr
                ? entry.coordinator
                : entry.local;
        resultJson = (this->*handler)(request);
        ok_.fetch_add(1, std::memory_order_relaxed);
    } catch (const HandlerError &e) {
        failure = e;
        outcome = errorCodeName(e.code).data();
    } catch (const std::exception &e) {
        failure = HandlerError{ErrorCode::Internal, e.what()};
        outcome = "internal";
    }

    const std::uint64_t totalUs = usSince(request.arrival);
    latencyHist_->record(totalUs);
    if (span.active())
        span.arg("outcome", std::string(outcome));

    FlightRecord record;
    record.method = method;
    if (const JsonValue *corpus =
            request.request.params.find("corpus");
        corpus != nullptr && corpus->isString())
        record.session = corpus->asString();
    record.completedUnixUs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    record.queueWaitUs = queueWaitUs;
    record.totalUs = totalUs;
    if (request.deadline) {
        record.hasDeadline = true;
        record.deadlineSlackMs =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                *request.deadline - Clock::now())
                .count();
    }
    record.outcome = outcome;
    record.responseBytes =
        failure ? failure->message.size() : resultJson.size();
    if (config_.coordinator && entry.fansOut)
        record.fanout = config_.workerAddrs.size();
    record.traceId = request.request.context.traceId;
    record.protocol = kProtocolVersion;
    record.priority = request.request.priority;
    flightRecorder_.record(std::move(record));

    if (config_.slowRequestMs != 0 &&
        totalUs > config_.slowRequestMs * 1000) {
        TL_LOG(Warn, "serve: slow request: ", method,
               " took ", totalUs / 1000, " ms (queue wait ",
               queueWaitUs / 1000, " ms, outcome ", outcome,
               request.request.context.valid()
                   ? ", trace " + hexId(request.request.context.traceId)
                   : std::string(),
               ")");
    }

    if (failure) {
        answerError(request.conn, request.stream, failure->code,
                    failure->message);
    } else {
        respondOk(request.conn, request.stream, resultJson);
    }
}

// ------------------------------------------------------------ drain

void
Server::drain()
{
    TL_LOG(Info, "serve: draining (", stats().inflight,
           " requests inflight)");
    draining_.store(true, std::memory_order_release);
    if (fleet_)
        fleet_->stop();
    // Both ports stop accepting. Connections already open still get
    // health and stats answers until the hang-up below.
    closeFd(listenFd_);
    closeFd(metricsFd_);

    // Finish everything already admitted to the queue.
    {
        std::unique_lock<std::mutex> lock(queueMutex_);
        drainCv_.wait(lock, [this] { return inflight_ == 0; });
        stopWorkers_ = true;
    }
    queueCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();

    // Hang up on every connection and scrape, and join the readers.
    {
        std::lock_guard<std::mutex> lock(readersMutex_);
        for (const auto &slot : readers_)
            slot->conn->shutdownBoth();
    }
    reapReaders(true);
    registry_.evictAll();

    if (!config_.selfTraceCorpusDir.empty()) {
        const std::string written = writeSelfTraceCorpus(
            Telemetry::snapshotSpans(), config_.selfTraceCorpusDir,
            nodeName());
        if (!written.empty())
            TL_LOG(Info, "serve: self-trace corpus written to ",
                   written);
    }

    TL_LOG(Info, "serve: drained");
    stopped_.store(true, std::memory_order_release);
}

// ------------------------------------------------------------ misc

Expected<std::pair<std::string, std::uint16_t>>
parseHostPort(const std::string &text)
{
    const std::size_t colon = text.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= text.size()) {
        return SourceError{text, 0,
                           "expected HOST:PORT (e.g. 127.0.0.1:7070)"};
    }
    const std::string host = text.substr(0, colon);
    const std::string portText = text.substr(colon + 1);
    std::uint32_t port = 0;
    const auto [ptr, ec] = std::from_chars(
        portText.data(), portText.data() + portText.size(), port);
    if (ec != std::errc() ||
        ptr != portText.data() + portText.size() || port > 65535) {
        return SourceError{text, colon + 1,
                           "invalid port '" + portText + "'"};
    }
    return std::make_pair(host, static_cast<std::uint16_t>(port));
}

} // namespace server
} // namespace tracelens
