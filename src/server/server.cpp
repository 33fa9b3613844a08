/**
 * @file
 * The analysis-service daemon (src/server/server.h): POSIX TCP
 * plumbing, the bounded request queue, worker dispatch on the
 * work-stealing pool, cooperative deadlines, and the method handlers
 * that answer from the session registry's warm state.
 */

#include "src/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <shared_mutex>
#include <utility>
#include <vector>

#include <filesystem>
#include <fstream>

#include "src/core/partial.h"
#include "src/core/resultjson.h"
#include "src/fleet/fleet.h"
#include "src/server/coordinator.h"
#include "src/trace/selftrace.h"
#include "src/trace/serialize.h"
#include "src/trace/source.h"
#include "src/util/logging.h"
#include "src/util/telemetry.h"
#include "src/workload/scenarios.h"

namespace tracelens
{
namespace server
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Handler failure routed into one error response. */
struct HandlerError
{
    ErrorCode code;
    std::string message;
};

[[noreturn]] void
failRequest(ErrorCode code, std::string message)
{
    throw HandlerError{code, std::move(message)};
}

std::uint64_t
usSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - start)
            .count());
}

// ------------------------------------------------- param extraction

const JsonValue &
requireParam(const JsonValue &params, std::string_view key)
{
    const JsonValue *value = params.find(key);
    if (value == nullptr)
        failRequest(ErrorCode::BadRequest,
                    "missing required param \"" + std::string(key) +
                        "\"");
    return *value;
}

std::string
stringParam(const JsonValue &params, std::string_view key)
{
    const JsonValue &value = requireParam(params, key);
    if (!value.isString() || value.asString().empty())
        failRequest(ErrorCode::BadRequest,
                    "param \"" + std::string(key) +
                        "\" must be a non-empty string");
    return value.asString();
}

double
numberParamOr(const JsonValue &params, std::string_view key,
              double fallback)
{
    const JsonValue *value = params.find(key);
    if (value == nullptr)
        return fallback;
    if (!value->isNumber() || !std::isfinite(value->asNumber()))
        failRequest(ErrorCode::BadRequest,
                    "param \"" + std::string(key) +
                        "\" must be a finite number");
    return value->asNumber();
}

bool
boolParamOr(const JsonValue &params, std::string_view key,
            bool fallback)
{
    const JsonValue *value = params.find(key);
    if (value == nullptr)
        return fallback;
    if (!value->isBool())
        failRequest(ErrorCode::BadRequest,
                    "param \"" + std::string(key) +
                        "\" must be a boolean");
    return value->asBool();
}

std::vector<std::string>
stringListParam(const JsonValue &params, std::string_view key)
{
    std::vector<std::string> out;
    const JsonValue *value = params.find(key);
    if (value == nullptr)
        return out;
    if (!value->isArray())
        failRequest(ErrorCode::BadRequest,
                    "param \"" + std::string(key) +
                        "\" must be an array of strings");
    for (const JsonValue &item : value->asArray()) {
        if (!item.isString())
            failRequest(ErrorCode::BadRequest,
                        "param \"" + std::string(key) +
                            "\" must be an array of strings");
        out.push_back(item.asString());
    }
    return out;
}

/** Scenario thresholds: catalog defaults, params override. */
void
resolveThresholds(const JsonValue &params, const std::string &scenario,
                  DurationNs &tFast, DurationNs &tSlow)
{
    tFast = 0;
    tSlow = 0;
    for (const ScenarioSpec &spec : scenarioCatalog()) {
        if (spec.name == scenario) {
            tFast = spec.tFast;
            tSlow = spec.tSlow;
        }
    }
    const double fastMs =
        numberParamOr(params, "tfast_ms", toMs(tFast));
    const double slowMs =
        numberParamOr(params, "tslow_ms", toMs(tSlow));
    tFast = fromMs(fastMs);
    tSlow = fromMs(slowMs);
    if (tFast <= 0 || tSlow <= tFast) {
        failRequest(ErrorCode::BadRequest,
                    "need tfast_ms < tslow_ms (required for scenarios "
                    "outside the catalog)");
    }
}

} // namespace

// ------------------------------------------------------- Connection

bool
Server::Connection::sendAllLocked(std::string_view bytes)
{
    if (!open.load(std::memory_order_acquire))
        return false;
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n =
            ::send(fd, bytes.data() + sent, bytes.size() - sent,
                   MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            open.store(false, std::memory_order_release);
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

void
Server::Connection::shutdownBoth()
{
    open.store(false, std::memory_order_release);
    ::shutdown(fd, SHUT_RDWR);
}

// ----------------------------------------------------------- Server

Server::Server(ServerConfig config)
    : config_(std::move(config)), registry_(config_.registry),
      flightRecorder_(config_.flightRecorderCapacity)
{
}

Server::~Server()
{
    if (started_.load(std::memory_order_acquire) && !stopped()) {
        requestStop();
        wait();
    }
    if (wakeRead_ >= 0)
        ::close(wakeRead_);
    if (wakeWrite_ >= 0)
        ::close(wakeWrite_);
}

Expected<std::uint16_t>
Server::start()
{
    if (started_.exchange(true))
        return SourceError{"<server>", 0, "server already started"};

    if (config_.coordinator) {
        if (config_.workerAddrs.empty()) {
            return SourceError{
                "<server>", 0,
                "coordinator mode needs at least one worker "
                "(--cluster-workers host:port,...)"};
        }
        for (const std::string &address : config_.workerAddrs) {
            if (!parseHostPort(address)) {
                return SourceError{"<server>", 0,
                                   "invalid worker address '" +
                                       address +
                                       "' (expected host:port)"};
            }
        }
        CoordinatorConfig coordConfig;
        coordConfig.workers = config_.workerAddrs;
        coordConfig.shardDeadlineMs = config_.shardDeadlineMs;
        coordinator_ = std::make_unique<Coordinator>(coordConfig);
    }

    if (!config_.fleetWatchDir.empty()) {
        FleetConfig fleetConfig;
        fleetConfig.dir = config_.fleetWatchDir;
        fleetConfig.windowMs = config_.fleetWindowMs;
        fleetConfig.maxWindows = config_.fleetMaxWindows;
        fleetConfig.pollMs = config_.fleetPollMs;
        fleetConfig.alertsPath = config_.fleetAlertsPath;
        fleetConfig.sentinel.baselineWindows =
            config_.fleetBaselineWindows;
        for (const ScenarioSpec &spec : scenarioCatalog()) {
            if (!config_.fleetScenarios.empty() &&
                std::find(config_.fleetScenarios.begin(),
                          config_.fleetScenarios.end(),
                          spec.name) == config_.fleetScenarios.end())
                continue;
            fleetConfig.sentinel.scenarios.push_back(
                {spec.name, spec.tFast, spec.tSlow});
        }
        fleet_ = std::make_unique<FleetService>(fleetConfig);
        fleet_->start();
    }

    workerCount_ = resolveThreads(config_.workers);

    MetricsRegistry &metrics = MetricsRegistry::global();
    requestsCounter_ = &metrics.counter("server.requests");
    rejectedCounter_ = &metrics.counter("server.rejected");
    errorsCounter_ = &metrics.counter("server.errors");
    queueDepthHist_ = &metrics.histogram("server.queue_depth");
    latencyHist_ = &metrics.histogram("server.latency_us");
    queueWaitHist_ = &metrics.histogram("server.queue_wait_us");
    inflightGauge_ = &metrics.gauge("server.inflight");

    int pipeFds[2];
    if (::pipe(pipeFds) != 0) {
        return SourceError{"<server>", 0,
                           std::string("pipe: ") +
                               std::strerror(errno)};
    }
    wakeRead_ = pipeFds[0];
    wakeWrite_ = pipeFds[1];

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        return SourceError{"<server>", 0,
                           std::string("socket: ") +
                               std::strerror(errno)};
    }
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) !=
        1) {
        ::close(listenFd_);
        listenFd_ = -1;
        return SourceError{"<server>", 0,
                           "invalid listen host '" + config_.host +
                               "' (IPv4 dotted quad expected)"};
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        return SourceError{"<server>", 0,
                           "bind " + config_.host + ":" +
                               std::to_string(config_.port) + ": " +
                               std::strerror(err)};
    }
    if (::listen(listenFd_, 128) != 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        return SourceError{"<server>", 0,
                           std::string("listen: ") +
                               std::strerror(err)};
    }
    sockaddr_in bound{};
    socklen_t boundLen = sizeof(bound);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&bound),
                  &boundLen);
    port_ = ntohs(bound.sin_port);

    startTime_ = Clock::now();
    // Self-tracing needs spans recorded regardless of --trace-out.
    if (!config_.selfTraceCorpusDir.empty())
        Telemetry::setEnabled(true);

    if (!config_.metricsListen.empty()) {
        Expected<std::pair<std::string, std::uint16_t>> endpoint =
            parseHostPort(config_.metricsListen);
        if (!endpoint) {
            ::close(listenFd_);
            listenFd_ = -1;
            return SourceError{"<server>", 0,
                               "--metrics-listen: " +
                                   endpoint.error().reason};
        }
        metricsFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (metricsFd_ < 0) {
            ::close(listenFd_);
            listenFd_ = -1;
            return SourceError{"<server>", 0,
                               std::string("metrics socket: ") +
                                   std::strerror(errno)};
        }
        ::setsockopt(metricsFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in maddr{};
        maddr.sin_family = AF_INET;
        maddr.sin_port = htons(endpoint.value().second);
        if (::inet_pton(AF_INET, endpoint.value().first.c_str(),
                        &maddr.sin_addr) != 1 ||
            ::bind(metricsFd_, reinterpret_cast<sockaddr *>(&maddr),
                   sizeof(maddr)) != 0 ||
            ::listen(metricsFd_, 16) != 0) {
            const int err = errno;
            ::close(metricsFd_);
            metricsFd_ = -1;
            ::close(listenFd_);
            listenFd_ = -1;
            return SourceError{"<server>", 0,
                               "metrics listen " +
                                   config_.metricsListen + ": " +
                                   std::strerror(err)};
        }
        sockaddr_in mbound{};
        socklen_t mboundLen = sizeof(mbound);
        ::getsockname(metricsFd_,
                      reinterpret_cast<sockaddr *>(&mbound),
                      &mboundLen);
        metricsPort_ = ntohs(mbound.sin_port);
        metricsThread_ = std::thread([this] { metricsLoop(); });
        TL_LOG(Info, "serve: metrics exposition on ",
               endpoint.value().first, ":", metricsPort_);
    }

    pool_ = std::make_unique<ThreadPool>(workerCount_);
    poolDriver_ = std::thread([this] {
        // Every pool worker claims exactly one index and parks in the
        // drain loop, so the request queue is serviced by the
        // work-stealing pool itself.
        pool_->parallelFor(0, workerCount_,
                           [this](std::size_t) { workerLoop(); });
    });
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
    if (acceptThread_.joinable())
        acceptThread_.join();
    std::unique_lock<std::mutex> lock(stoppedMutex_);
    stoppedCv_.wait(lock, [this] {
        return stopped_.load(std::memory_order_acquire);
    });
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

// ------------------------------------------------------ accept path

void
Server::acceptLoop()
{
    while (true) {
        pollfd fds[2];
        fds[0].fd = listenFd_;
        fds[0].events = POLLIN;
        fds[1].fd = wakeRead_;
        fds[1].events = POLLIN;
        const int ready = ::poll(fds, 2, 1000);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            TL_LOG(Error, "serve: poll failed: ",
                   std::strerror(errno));
            break;
        }
        if (ready == 0) {
            // Housekeeping tick: reap finished readers, evict idle
            // sessions.
            reapReaders(false);
            registry_.evictIdle();
            continue;
        }
        if (fds[1].revents != 0)
            break; // stop requested
        if ((fds[0].revents & POLLIN) == 0)
            continue;

        sockaddr_in peer{};
        socklen_t peerLen = sizeof(peer);
        const int fd = ::accept(
            listenFd_, reinterpret_cast<sockaddr *>(&peer), &peerLen);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            TL_LOG(Error, "serve: accept failed: ",
                   std::strerror(errno));
            break;
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
        accepted_.fetch_add(1, std::memory_order_relaxed);
        connections_.fetch_add(1, std::memory_order_relaxed);
        TL_LOG(Debug, "serve: accepted ", conn->peer);

        auto slot = std::make_unique<ReaderSlot>();
        ReaderSlot *raw = slot.get();
        slot->conn = conn;
        {
            std::lock_guard<std::mutex> lock(readersMutex_);
            readers_.push_back(std::move(slot));
        }
        raw->thread = std::thread([this, conn, raw] {
            readerLoop(conn);
            raw->done.store(true, std::memory_order_release);
        });
    }
    drain();
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

void
Server::readerLoop(std::shared_ptr<Connection> conn)
{
    const bool readError = readFrames(conn);
    // EOF only means the client closed its *write* side; a half-closed
    // peer can still receive responses for requests already in flight,
    // so `open` stays set unless the socket actually failed.
    if (readError)
        conn->open.store(false, std::memory_order_release);
    connections_.fetch_sub(1, std::memory_order_relaxed);
    TL_LOG(Debug, "serve: closed ", conn->peer);
}

bool
Server::readFrames(const std::shared_ptr<Connection> &conn)
{
    // The preface line opens every connection. Compare as the bytes
    // arrive, so a peer speaking anything else (the retired JSON-line
    // protocol v1, say) is refused at its first wrong byte instead of
    // being waited on until it sends a newline.
    std::string expected(wire::kPreface);
    expected += "\n";
    std::string pending;
    char buffer[4096];
    while (true) {
        const std::size_t have = std::min(pending.size(), expected.size());
        if (pending.compare(0, have, expected, 0, have) != 0) {
            protocolErrors_.fetch_add(1, std::memory_order_relaxed);
            sendGoaway(conn, 0,
                       "expected the " + std::string(wire::kPreface) +
                           " preface line; protocol v1 (JSON lines) is "
                           "retired");
            return false;
        }
        if (pending.size() >= expected.size())
            break;
        const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return true;
        }
        if (n == 0)
            return false; // closed before the preface
        conn->bytesIn += static_cast<std::uint64_t>(n);
        pending.append(buffer, static_cast<std::size_t>(n));
    }
    pending.erase(0, expected.size());

    v2Conns_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(conn->writeMutex);
        wire::Settings mine;
        mine.protocolVersion = kProtocolVersion;
        mine.maxFramePayload = static_cast<std::uint32_t>(
            std::min<std::size_t>(config_.maxLineBytes,
                                  wire::kMaxSaneFramePayload));
        // Advertise the span-context request field; it appears on
        // the wire only if the client advertises it back.
        mine.tracing = true;
        std::string frame;
        wire::appendFrame(frame, wire::FrameType::Settings, 0, 0,
                          wire::encodeSettings(mine));
        if (!conn->sendAllLocked(frame))
            return false;
    }
    TL_LOG(Debug, "serve: ", conn->peer, " sent the preface");

    while (true) {
        // Consume every complete frame buffered so far.
        while (pending.size() >= wire::kFrameHeaderBytes) {
            wire::FrameHeader header;
            wire::decodeFrameHeader(pending, header);
            const std::uint64_t frameStart =
                conn->bytesIn - pending.size();
            if (header.length > wire::kMaxSaneFramePayload) {
                // Not a skippable frame: a length like this means the
                // byte stream itself is desynchronized.
                protocolErrors_.fetch_add(1,
                                          std::memory_order_relaxed);
                sendGoaway(conn, frameStart,
                           "frame length " +
                               std::to_string(header.length) +
                               " exceeds the sane limit");
                return false;
            }
            const std::size_t total =
                wire::kFrameHeaderBytes + header.length;
            if (pending.size() < total)
                break;
            const std::string_view payload(
                pending.data() + wire::kFrameHeaderBytes,
                header.length);
            if (!handleFrame(conn, header, payload, frameStart))
                return false;
            pending.erase(0, total);
        }
        const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return true;
        }
        if (n == 0) {
            if (!pending.empty()) {
                protocolErrors_.fetch_add(1,
                                          std::memory_order_relaxed);
                sendGoaway(conn, conn->bytesIn - pending.size(),
                           "connection closed mid-frame (" +
                               std::to_string(pending.size()) +
                               " trailing bytes)");
            }
            return false;
        }
        conn->bytesIn += static_cast<std::uint64_t>(n);
        pending.append(buffer, static_cast<std::size_t>(n));
    }
}

void
Server::sendGoaway(const std::shared_ptr<Connection> &conn,
                   std::uint64_t offset, const std::string &message)
{
    TL_LOG(Debug, "serve: goaway to ", conn->peer, " @ byte ", offset,
           ": ", message);
    {
        std::lock_guard<std::mutex> lock(conn->writeMutex);
        std::string frame;
        wire::appendFrame(frame, wire::FrameType::Goaway, 0, 0,
                          wire::encodeGoaway(offset, message));
        conn->sendAllLocked(frame);
    }
    conn->shutdownBoth();
}

bool
Server::handleFrame(const std::shared_ptr<Connection> &conn,
                    const wire::FrameHeader &header,
                    std::string_view payload, std::uint64_t frameStart)
{
    Connection::WireState &state = conn->wire;
    switch (static_cast<wire::FrameType>(header.type)) {
    case wire::FrameType::Settings: {
        Expected<wire::Settings> settings =
            wire::decodeSettings(payload);
        if (!settings) {
            protocolErrors_.fetch_add(1, std::memory_order_relaxed);
            sendGoaway(conn, frameStart,
                       "malformed settings: " +
                           settings.error().reason);
            return false;
        }
        std::lock_guard<std::mutex> lock(conn->writeMutex);
        state.peer = settings.value();
        flushOutboundLocked(conn);
        return true;
    }
    case wire::FrameType::Request: {
        if ((header.stream & 1u) == 0 ||
            header.stream <= state.lastStream) {
            // Client streams are odd and strictly increasing; an id
            // violating that means we lost framing sync.
            protocolErrors_.fetch_add(1, std::memory_order_relaxed);
            sendGoaway(conn, frameStart,
                       "bogus request stream id " +
                           std::to_string(header.stream));
            return false;
        }
        state.lastStream = header.stream;
        if (header.length > config_.maxLineBytes) {
            // Oversized but framed sanely: skip just this request.
            protocolErrors_.fetch_add(1, std::memory_order_relaxed);
            errors_.fetch_add(1, std::memory_order_relaxed);
            errorsCounter_->add(1);
            respondError(conn, header.stream, ErrorCode::ProtocolError,
                         "request frame exceeds " +
                             std::to_string(config_.maxLineBytes) +
                             " bytes",
                         frameStart);
            return true;
        }
        // The field appears iff BOTH sides advertised tracing; the
        // server always does, so the peer's flag decides. state.peer
        // is written by this same reader thread at SETTINGS receipt.
        Expected<wire::RequestFrame> frame =
            wire::decodeRequestPayload(payload, state.recvDict,
                                       state.peer.tracing);
        if (!frame) {
            // A dictionary/encoding failure leaves the session's
            // tables out of lockstep — report it on the stream, then
            // tear the connection down.
            protocolErrors_.fetch_add(1, std::memory_order_relaxed);
            errors_.fetch_add(1, std::memory_order_relaxed);
            errorsCounter_->add(1);
            respondError(conn, header.stream, ErrorCode::ProtocolError,
                         frame.error().reason,
                         frameStart + wire::kFrameHeaderBytes +
                             frame.error().offset);
            sendGoaway(conn, frameStart,
                       "request payload undecodable: " +
                           frame.error().reason);
            return false;
        }
        if (frame.value().contextRejected) {
            // The span-context length escaped the payload — hostile
            // or corrupt, but recoverable: the field precedes the
            // dictionary-encoded params, so the symbol tables never
            // advanced and the connection stays usable.
            protocolErrors_.fetch_add(1, std::memory_order_relaxed);
            errors_.fetch_add(1, std::memory_order_relaxed);
            errorsCounter_->add(1);
            respondError(conn, header.stream, ErrorCode::ProtocolError,
                         "malformed span-context field; request "
                         "dropped",
                         frameStart);
            return true;
        }
        const std::optional<Method> method =
            methodFromWireByte(frame.value().methodByte);
        if (!method) {
            errors_.fetch_add(1, std::memory_order_relaxed);
            errorsCounter_->add(1);
            respondError(conn, header.stream, ErrorCode::NotFound,
                         "unknown method byte " +
                             std::to_string(frame.value().methodByte));
            return true;
        }
        Expected<JsonValue> params =
            JsonValue::parse(frame.value().paramsJson);
        if (!params || !params.value().isObject()) {
            errors_.fetch_add(1, std::memory_order_relaxed);
            errorsCounter_->add(1);
            respondError(conn, header.stream, ErrorCode::BadRequest,
                         "request params must decode to a JSON "
                         "object");
            return true;
        }
        Request request;
        request.method = *method;
        request.params = std::move(params.value());
        request.deadlineMs = frame.value().deadlineMs;
        request.priority = frame.value().priority;
        request.context = frame.value().context;
        routeRequest(conn, std::move(request), header.stream);
        return true;
    }
    case wire::FrameType::WindowUpdate: {
        Expected<std::uint64_t> credit =
            wire::decodeWindowUpdate(payload);
        if (!credit || header.stream == 0) {
            protocolErrors_.fetch_add(1, std::memory_order_relaxed);
            sendGoaway(conn, frameStart, "malformed window update");
            return false;
        }
        std::lock_guard<std::mutex> lock(conn->writeMutex);
        auto window = state.window.find(header.stream);
        if (window == state.window.end()) {
            window = state.window
                         .emplace(header.stream,
                                  static_cast<std::int64_t>(
                                      state.peer.initialWindow))
                         .first;
        }
        window->second +=
            static_cast<std::int64_t>(credit.value());
        flushOutboundLocked(conn);
        return true;
    }
    case wire::FrameType::Ping: {
        if ((header.flags & wire::kFlagAck) == 0) {
            std::lock_guard<std::mutex> lock(conn->writeMutex);
            std::string pong;
            wire::appendFrame(pong, wire::FrameType::Ping,
                              wire::kFlagAck, 0, payload);
            conn->sendAllLocked(pong);
        }
        return true;
    }
    case wire::FrameType::Goaway:
        TL_LOG(Debug, "serve: ", conn->peer, " sent goaway");
        return false;
    case wire::FrameType::Response:
    default:
        // Clients never send Response; unknown types are ignored for
        // forward compatibility.
        return true;
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
        errors_.fetch_add(1, std::memory_order_relaxed);
        errorsCounter_->add(1);
        respondError(conn, stream, ErrorCode::NotFound,
                     "unknown method \"" +
                         std::string(methodName(request.method)) +
                         "\"");
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
        errors_.fetch_add(1, std::memory_order_relaxed);
        errorsCounter_->add(1);
        respondError(conn, stream, ErrorCode::ShuttingDown,
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
            // escapes is a server bug we log rather than propagate
            // into the pool (which would rethrow on the driver).
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
        errors_.fetch_add(1, std::memory_order_relaxed);
        errorsCounter_->add(1);
    } catch (const std::exception &e) {
        failure = HandlerError{ErrorCode::Internal, e.what()};
        outcome = "internal";
        errors_.fetch_add(1, std::memory_order_relaxed);
        errorsCounter_->add(1);
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
        respondError(request.conn, request.stream, failure->code,
                     failure->message);
    } else {
        respondOk(request.conn, request.stream, resultJson);
    }
}

// ------------------------------------------------- response emission

void
Server::respondOk(const std::shared_ptr<Connection> &conn,
                  std::uint32_t stream, const std::string &resultJson)
{
    sendResponse(conn, stream, false, resultJson);
}

void
Server::respondError(const std::shared_ptr<Connection> &conn,
                     std::uint32_t stream, ErrorCode code,
                     const std::string &message, std::uint64_t offset)
{
    ErrorInfo info;
    info.code = code;
    info.message = message;
    info.offset = offset;
    sendResponse(conn, stream, true, renderErrorObject(info));
}

void
Server::sendResponse(const std::shared_ptr<Connection> &conn,
                     std::uint32_t stream, bool isError,
                     const std::string &payloadJson)
{
    std::lock_guard<std::mutex> lock(conn->writeMutex);
    if (!conn->open.load(std::memory_order_acquire)) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Connection::WireState &state = conn->wire;
    Connection::WireState::Outbound out;
    out.stream = stream;
    out.finalFlags = wire::kFlagEndStream |
                     (isError ? wire::kFlagError : std::uint8_t{0});
    // Encoding happens here, under writeMutex, in queue order — so
    // dictionary insertions hit the wire in exactly the order the
    // client's mirror table will apply them.
    state.sendDict.encode(payloadJson, out.bytes);
    state.outbound.push_back(std::move(out));
    flushOutboundLocked(conn);
}

void
Server::flushOutboundLocked(const std::shared_ptr<Connection> &conn)
{
    Connection::WireState &state = conn->wire;
    while (!state.outbound.empty()) {
        Connection::WireState::Outbound &head =
            state.outbound.front();
        if (head.bytes.empty()) {
            std::string frame;
            wire::appendFrame(frame, wire::FrameType::Response,
                              head.finalFlags, head.stream, {});
            if (!conn->sendAllLocked(frame)) {
                dropped_.fetch_add(state.outbound.size(),
                                   std::memory_order_relaxed);
                state.outbound.clear();
                return;
            }
            state.window.erase(head.stream);
            state.outbound.pop_front();
            continue;
        }
        auto window = state.window.find(head.stream);
        if (window == state.window.end()) {
            window = state.window
                         .emplace(head.stream,
                                  static_cast<std::int64_t>(
                                      state.peer.initialWindow))
                         .first;
        }
        while (head.sent < head.bytes.size()) {
            if (window->second <= 0)
                return; // parked until the client sends credit
            const std::size_t chunk = std::min<std::size_t>(
                {head.bytes.size() - head.sent,
                 static_cast<std::size_t>(state.peer.maxFramePayload),
                 static_cast<std::size_t>(window->second)});
            const bool last =
                head.sent + chunk == head.bytes.size();
            const std::uint8_t flags =
                last ? head.finalFlags
                     : static_cast<std::uint8_t>(head.finalFlags &
                                                 wire::kFlagError);
            std::string frame;
            wire::appendFrame(
                frame, wire::FrameType::Response, flags, head.stream,
                std::string_view(head.bytes).substr(head.sent, chunk));
            if (!conn->sendAllLocked(frame)) {
                dropped_.fetch_add(state.outbound.size(),
                                   std::memory_order_relaxed);
                state.outbound.clear();
                return;
            }
            head.sent += chunk;
            window->second -= static_cast<std::int64_t>(chunk);
        }
        state.window.erase(window);
        state.outbound.pop_front();
    }
}

// --------------------------------------------------------- handlers

namespace
{

void
checkDeadline(const std::optional<Clock::time_point> &deadline)
{
    if (deadline && Clock::now() >= *deadline)
        failRequest(ErrorCode::DeadlineExceeded,
                    "deadline elapsed during processing");
}

/**
 * A cached method's answer for @p session. Under the session's shared
 * analysis lock, which excludes ingest_push's absorbShard, serve the
 * answer stored under a digest of @p method, the corpus digest and
 * @p params; else run @p render and store what it returns.
 */
template <typename Render>
std::string
cachedAnswer(CorpusSession &session, Method method, const Digest &params,
             Render &&render)
{
    const std::shared_lock<std::shared_mutex> analysisLock =
        session.analysisLock();
    Digest key;
    key.mix(methodName(method)).mix(session.corpusDigest()).mix(params);
    if (auto cached = session.cachedResponse(key)) {
        TL_SPAN("server.response-cache-hit", "server");
        return *cached;
    }
    std::string rendered = render();
    session.cacheResponse(key,
                          std::make_shared<const std::string>(rendered));
    return rendered;
}

} // namespace

std::string
Server::handleAnalyze(const QueuedRequest &request)
{
    const JsonValue &params = request.request.params;
    const std::string corpusPath = stringParam(params, "corpus");
    const std::string scenario = stringParam(params, "scenario");
    DurationNs tFast = 0, tSlow = 0;
    resolveThresholds(params, scenario, tFast, tSlow);
    const double topRaw = numberParamOr(params, "top", 5.0);
    if (topRaw < 0 || topRaw > 10000)
        failRequest(ErrorCode::BadRequest,
                    "param \"top\" must be in [0, 10000]");
    const std::size_t top = static_cast<std::size_t>(topRaw);
    const bool applyFilter =
        boolParamOr(params, "knowledge_filter", true);
    const std::vector<std::string> components =
        stringListParam(params, "components");

    Expected<SessionRegistry::Handle> session =
        registry_.acquire(corpusPath, components);
    if (!session)
        failRequest(ErrorCode::NotFound, session.error().render());
    checkDeadline(request.deadline);

    Digest keyParams;
    keyParams.mix(scenario)
        .mix(static_cast<std::uint64_t>(tFast))
        .mix(static_cast<std::uint64_t>(tSlow))
        .mix(static_cast<std::uint64_t>(top))
        .mix(static_cast<std::uint64_t>(applyFilter));
    CorpusSession &warm = *session.value();
    return cachedAnswer(warm, Method::Analyze, keyParams, [&] {
        Analyzer &analyzer = warm.analyzer();
        const TraceCorpus &corpus = analyzer.corpus();
        if (corpus.findScenario(scenario) == UINT32_MAX)
            failRequest(ErrorCode::NotFound,
                        "scenario \"" + scenario +
                            "\" not present in corpus");
        const ScenarioAnalysis analysis =
            analyzer.analyzeScenario(scenario, tFast, tSlow);
        checkDeadline(request.deadline);

        PartialClasses classes;
        classes.fast = analysis.classes.fast.size();
        classes.middle = analysis.classes.middle.size();
        classes.slow = analysis.classes.slow.size();
        classes.slowDuration = analysis.slowDuration;
        return scenarioJson(scenario, tFast, tSlow, classes,
                            analysis.slowImpact, analysis.mining,
                            analysis.coverage, corpus.symbols(), top,
                            applyFilter)
            .render();
    });
}

std::string
Server::handleImpact(const QueuedRequest &request)
{
    const JsonValue &params = request.request.params;
    const std::string corpusPath = stringParam(params, "corpus");
    const std::vector<std::string> components =
        stringListParam(params, "components");

    Expected<SessionRegistry::Handle> session =
        registry_.acquire(corpusPath, components);
    if (!session)
        failRequest(ErrorCode::NotFound, session.error().render());
    checkDeadline(request.deadline);

    CorpusSession &warm = *session.value();
    return cachedAnswer(warm, Method::Impact, Digest{}, [&] {
        Analyzer &analyzer = warm.analyzer();
        const TraceCorpus &corpus = analyzer.corpus();

        JsonValue result = JsonValue::makeObject();
        JsonValue componentsJson = JsonValue::makeArray();
        for (const std::string &glob :
             analyzer.components().patterns())
            componentsJson.push(JsonValue(glob));
        result.set("components", std::move(componentsJson));
        result.set("all", impactJson(analyzer.impactAll()));
        checkDeadline(request.deadline);
        JsonValue perScenario = JsonValue::makeObject();
        for (const auto &[scenarioId, impact] :
             analyzer.impactPerScenario()) {
            perScenario.set(corpus.scenarioName(scenarioId),
                            impactJson(impact));
        }
        result.set("per_scenario", std::move(perScenario));
        return result.render();
    });
}

std::string
Server::handleMine(const QueuedRequest &request)
{
    const JsonValue &params = request.request.params;
    const std::string corpusPath = stringParam(params, "corpus");
    const std::string scenario = stringParam(params, "scenario");
    DurationNs tFast = 0, tSlow = 0;
    resolveThresholds(params, scenario, tFast, tSlow);
    const double maxRaw =
        numberParamOr(params, "max_patterns", 100.0);
    if (maxRaw < 1 || maxRaw > 10000)
        failRequest(ErrorCode::BadRequest,
                    "param \"max_patterns\" must be in [1, 10000]");
    const std::size_t maxPatterns =
        static_cast<std::size_t>(maxRaw);

    Expected<SessionRegistry::Handle> session =
        registry_.acquire(corpusPath);
    if (!session)
        failRequest(ErrorCode::NotFound, session.error().render());
    checkDeadline(request.deadline);

    Digest keyParams;
    keyParams.mix(scenario)
        .mix(static_cast<std::uint64_t>(tFast))
        .mix(static_cast<std::uint64_t>(tSlow))
        .mix(static_cast<std::uint64_t>(maxPatterns));
    CorpusSession &warm = *session.value();
    return cachedAnswer(warm, Method::Mine, keyParams, [&] {
        Analyzer &analyzer = warm.analyzer();
        const TraceCorpus &corpus = analyzer.corpus();
        if (corpus.findScenario(scenario) == UINT32_MAX)
            failRequest(ErrorCode::NotFound,
                        "scenario \"" + scenario +
                            "\" not present in corpus");
        const ScenarioAnalysis analysis =
            analyzer.analyzeScenario(scenario, tFast, tSlow);
        checkDeadline(request.deadline);

        return mineJson(scenario, tSlow, analysis.mining,
                        analysis.coverage, corpus.symbols(), maxPatterns)
            .render();
    });
}

std::string
Server::handleIngest(const QueuedRequest &request)
{
    const JsonValue &params = request.request.params;
    const std::string corpusPath = stringParam(params, "corpus");

    Expected<SessionRegistry::Handle> session =
        registry_.acquire(corpusPath);
    if (!session)
        failRequest(ErrorCode::NotFound, session.error().render());
    checkDeadline(request.deadline);

    const SessionIngestInfo &info = session.value()->ingestInfo();
    JsonValue result = JsonValue::makeObject();
    result.set("source", JsonValue(info.describe));
    result.set("shards", JsonValue(info.shards));
    result.set("loaded_shards", JsonValue(info.loadedShards));
    result.set("skipped_shards", JsonValue(info.skippedShards));
    result.set("ingest_bytes", JsonValue(info.ingestBytes));
    result.set("events", JsonValue(info.events));
    result.set("instances", JsonValue(info.instances));
    JsonValue scenarios = JsonValue::makeObject();
    for (const ScenarioTally &tally : info.scenarios) {
        JsonValue entry = JsonValue::makeObject();
        entry.set("instances", JsonValue(tally.instances));
        entry.set("mean_ms", JsonValue(tally.meanMs));
        scenarios.set(tally.name, std::move(entry));
    }
    result.set("scenarios", std::move(scenarios));
    return result.render();
}

std::string
Server::handleSleep(const QueuedRequest &request)
{
    // Test-only: occupy a worker for a bounded time, checking the
    // deadline cooperatively — the determinism hook for the
    // backpressure and deadline tests and the load bench.
    const double ms =
        numberParamOr(request.request.params, "ms", 10.0);
    if (ms < 0 || ms > 60000)
        failRequest(ErrorCode::BadRequest,
                    "param \"ms\" must be in [0, 60000]");
    const auto until =
        Clock::now() +
        std::chrono::microseconds(static_cast<std::int64_t>(ms * 1e3));
    while (Clock::now() < until) {
        checkDeadline(request.deadline);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    JsonValue result = JsonValue::makeObject();
    result.set("slept_ms", JsonValue(ms));
    return result.render();
}

// ------------------------------------ worker-side partial handlers

std::string
Server::handleAnalyzePartial(const QueuedRequest &request)
{
    const JsonValue &params = request.request.params;
    const std::string corpusPath = stringParam(params, "corpus");
    const std::string scenario = stringParam(params, "scenario");
    // Unlike `analyze`, the thresholds are mandatory: the coordinator
    // resolves catalog defaults once and ships explicit values so
    // every worker classifies identically.
    const double fastMs = numberParamOr(params, "tfast_ms", 0.0);
    const double slowMs = numberParamOr(params, "tslow_ms", 0.0);
    const DurationNs tFast = fromMs(fastMs);
    const DurationNs tSlow = fromMs(slowMs);
    if (tFast <= 0 || tSlow <= tFast) {
        failRequest(ErrorCode::BadRequest,
                    "need 0 < tfast_ms < tslow_ms (partial requests "
                    "carry explicit thresholds)");
    }
    const std::vector<std::string> components =
        stringListParam(params, "components");

    Expected<SessionRegistry::Handle> session =
        registry_.acquire(corpusPath, components);
    if (!session)
        failRequest(ErrorCode::NotFound, session.error().render());
    checkDeadline(request.deadline);

    Digest keyParams;
    keyParams.mix(scenario)
        .mix(static_cast<std::uint64_t>(tFast))
        .mix(static_cast<std::uint64_t>(tSlow));
    CorpusSession &warm = *session.value();
    return cachedAnswer(warm, Method::AnalyzePartial, keyParams, [&] {
        Analyzer &analyzer = warm.analyzer();
        const bool found =
            analyzer.corpus().findScenario(scenario) != UINT32_MAX;
        const ScenarioPartial partial =
            analyzer.scenarioPartial(scenario, tFast, tSlow);
        checkDeadline(request.deadline);

        JsonValue result = JsonValue::makeObject();
        result.set("encoding_revision",
                   JsonValue(partialEncodingRevision()));
        result.set("scenario_found", JsonValue(found));
        result.set("partial", JsonValue(base64Encode(
                                  encodeScenarioPartial(partial))));
        return result.render();
    });
}

std::string
Server::handleImpactPartial(const QueuedRequest &request)
{
    const JsonValue &params = request.request.params;
    const std::string corpusPath = stringParam(params, "corpus");
    const std::vector<std::string> components =
        stringListParam(params, "components");

    Expected<SessionRegistry::Handle> session =
        registry_.acquire(corpusPath, components);
    if (!session)
        failRequest(ErrorCode::NotFound, session.error().render());
    checkDeadline(request.deadline);

    CorpusSession &warm = *session.value();
    return cachedAnswer(warm, Method::ImpactPartial, Digest{}, [&] {
        const ImpactPartial partial = warm.analyzer().impactPartial();
        checkDeadline(request.deadline);

        JsonValue result = JsonValue::makeObject();
        result.set("encoding_revision",
                   JsonValue(partialEncodingRevision()));
        result.set("partial", JsonValue(base64Encode(
                                  encodeImpactPartial(partial))));
        return result.render();
    });
}

// ------------------------------------------- coordinator handlers

namespace
{

/** Degradation markers — ABSENT on a full result, so a non-degraded
 *  coordinator response stays byte-identical to single-node. */
void
attachGatherReport(JsonValue &result, const GatherReport &report)
{
    if (!report.degraded())
        return;
    result.set("partial_results", JsonValue(true));
    JsonValue missing = JsonValue::makeArray();
    for (const ShardFailure &failure : report.missing) {
        JsonValue entry = JsonValue::makeObject();
        entry.set("shard", JsonValue(failure.shard));
        entry.set("worker", JsonValue(failure.worker));
        entry.set("reason", JsonValue(failure.reason));
        missing.push(std::move(entry));
    }
    result.set("missing_shards", std::move(missing));
}

} // namespace

std::string
Server::handleCoordAnalyze(const QueuedRequest &request)
{
    const JsonValue &params = request.request.params;
    const std::string corpusPath = stringParam(params, "corpus");
    const std::string scenario = stringParam(params, "scenario");
    DurationNs tFast = 0, tSlow = 0;
    resolveThresholds(params, scenario, tFast, tSlow);
    const double topRaw = numberParamOr(params, "top", 5.0);
    if (topRaw < 0 || topRaw > 10000)
        failRequest(ErrorCode::BadRequest,
                    "param \"top\" must be in [0, 10000]");
    const std::size_t top = static_cast<std::size_t>(topRaw);
    const bool applyFilter =
        boolParamOr(params, "knowledge_filter", true);
    const std::vector<std::string> components =
        stringListParam(params, "components");

    ScenarioGather gather;
    if (auto error = coordinator_->gatherScenario(
            Method::AnalyzePartial, corpusPath, scenario, toMs(tFast),
            toMs(tSlow), components, request.deadline, gather))
        failRequest(error->code, error->message);
    checkDeadline(request.deadline);

    const ImpactResult slowImpact = gather.slowImpact.finalize();
    const AggregatedWaitGraph awgFast =
        std::move(gather.awgFast).finalize(true);
    const AggregatedWaitGraph awgSlow =
        std::move(gather.awgSlow).finalize(true);
    checkDeadline(request.deadline);
    ScenarioSummary summary = summarizeScenario(
        scenario, tFast, tSlow, gather.classes, slowImpact, awgFast,
        awgSlow, gather.symbols, top, applyFilter);
    checkDeadline(request.deadline);

    JsonValue result = std::move(summary.json);
    attachGatherReport(result, gather.report);
    return result.render();
}

std::string
Server::handleCoordImpact(const QueuedRequest &request)
{
    const JsonValue &params = request.request.params;
    const std::string corpusPath = stringParam(params, "corpus");
    const std::vector<std::string> components =
        stringListParam(params, "components");

    ImpactGather gather;
    if (auto error = coordinator_->gatherImpact(
            corpusPath, components, request.deadline, gather))
        failRequest(error->code, error->message);
    checkDeadline(request.deadline);

    // The resolved component filter, exactly as a worker session
    // resolves it (SessionRegistry: empty = analyzer default).
    const std::vector<std::string> &resolved =
        components.empty() ? AnalyzerConfig{}.components : components;

    JsonValue result = JsonValue::makeObject();
    JsonValue componentsJson = JsonValue::makeArray();
    for (const std::string &glob : resolved)
        componentsJson.push(JsonValue(glob));
    result.set("components", std::move(componentsJson));
    result.set("all", impactJson(gather.all.finalize()));
    JsonValue perScenario = JsonValue::makeObject();
    for (const auto &[name, accumulator] : gather.perScenario)
        perScenario.set(name, impactJson(accumulator.finalize()));
    result.set("per_scenario", std::move(perScenario));
    attachGatherReport(result, gather.report);
    return result.render();
}

std::string
Server::handleCoordMine(const QueuedRequest &request)
{
    const JsonValue &params = request.request.params;
    const std::string corpusPath = stringParam(params, "corpus");
    const std::string scenario = stringParam(params, "scenario");
    DurationNs tFast = 0, tSlow = 0;
    resolveThresholds(params, scenario, tFast, tSlow);
    const double maxRaw =
        numberParamOr(params, "max_patterns", 100.0);
    if (maxRaw < 1 || maxRaw > 10000)
        failRequest(ErrorCode::BadRequest,
                    "param \"max_patterns\" must be in [1, 10000]");
    const std::size_t maxPatterns = static_cast<std::size_t>(maxRaw);

    ScenarioGather gather;
    if (auto error = coordinator_->gatherScenario(
            Method::MinePartial, corpusPath, scenario, toMs(tFast),
            toMs(tSlow), {}, request.deadline, gather))
        failRequest(error->code, error->message);
    checkDeadline(request.deadline);

    const AggregatedWaitGraph awgFast =
        std::move(gather.awgFast).finalize(true);
    const AggregatedWaitGraph awgSlow =
        std::move(gather.awgSlow).finalize(true);
    const ScenarioMining mined =
        mineScenario(awgFast, awgSlow, tFast, tSlow);
    checkDeadline(request.deadline);

    JsonValue result = mineJson(scenario, tSlow, mined.mining,
                                mined.coverage, gather.symbols,
                                maxPatterns);
    attachGatherReport(result, gather.report);
    return result.render();
}

std::string
Server::handleClusterStatus(const QueuedRequest &request)
{
    checkDeadline(request.deadline);
    JsonValue result = coordinator_->clusterStatus();
    if (boolParamOr(request.request.params, "metrics", false)) {
        // Aggregate the coordinator's own registry plus every
        // worker's, bucket-exact (Histogram::State merges).
        MetricsRegistry aggregate;
        aggregate.merge(MetricsRegistry::global().snapshot());
        JsonValue pulls = coordinator_->clusterMetrics(aggregate);
        checkDeadline(request.deadline);
        result.set("metrics",
                   metricsSnapshotJson(aggregate.snapshot()));
        result.set("metrics_pulls", std::move(pulls));
    }
    return result.render();
}

std::string
Server::handleClusterTrace(const QueuedRequest &request)
{
    checkDeadline(request.deadline);
    // The coordinator's own buffer renders as pid 1; workers get
    // pids 2+ in topology order. Distinct pids per node are what
    // keep two nodes' tid 0 from aliasing in the merged trace.
    std::vector<NodeSpans> nodes;
    NodeSpans own;
    own.node = nodeName();
    own.pid = 1;
    own.epochUnixUs = Telemetry::epochUnixUs();
    own.spans = Telemetry::snapshotSpans();
    nodes.push_back(std::move(own));
    for (NodeSpans &node : coordinator_->pullWorkerSpans()) {
        node.pid = static_cast<std::uint32_t>(nodes.size() + 1);
        nodes.push_back(std::move(node));
    }
    checkDeadline(request.deadline);

    std::size_t spanCount = 0;
    for (const NodeSpans &node : nodes)
        spanCount += node.spans.size();

    JsonValue result = JsonValue::makeObject();
    result.set("nodes", JsonValue(nodes.size()));
    result.set("spans", JsonValue(spanCount));
    result.set("trace",
               JsonValue(Telemetry::renderChromeTraceMerged(nodes)));
    return result.render();
}

// ------------------------------------------ continuous-mode methods

std::string
Server::handleIngestPush(const QueuedRequest &request)
{
    checkDeadline(request.deadline);
    const JsonValue &params = request.request.params;

    const std::string name = stringParam(params, "name");
    if (!isShardFilename(name) ||
        name.find('/') != std::string::npos ||
        name.find('\\') != std::string::npos) {
        failRequest(ErrorCode::BadRequest,
                    "param \"name\" must be a plain *.tlc filename "
                    "(no directories, no dotfiles)");
    }

    // Refuse loudly on a revision mismatch rather than misrendering
    // alerts for a newer pusher — same handshake contract as the
    // cluster's partial_revision.
    const auto pushed = static_cast<std::uint32_t>(
        numberParamOr(params, "fleet_revision", 0));
    if (pushed != fleetRevision()) {
        failRequest(ErrorCode::BadRequest,
                    "fleet revision mismatch: pusher has " +
                        std::to_string(pushed) + ", daemon has " +
                        std::to_string(fleetRevision()) +
                        " (upgrade the older side)");
    }

    const std::string payload = stringParam(params, "payload");
    const std::optional<std::string> bytes = base64Decode(payload);
    if (!bytes)
        failRequest(ErrorCode::BadRequest,
                    "param \"payload\" is not valid base64");
    Expected<TraceCorpus> corpus = parseCorpus(
        std::as_bytes(std::span(bytes->data(), bytes->size())), name);
    if (!corpus)
        failRequest(ErrorCode::BadRequest,
                    "payload is not a corpus shard: " +
                        corpus.error().render());

    std::optional<std::uint64_t> timestampMs;
    if (const JsonValue *stamp = params.find("timestamp_ms");
        stamp != nullptr) {
        if (!stamp->isNumber() || stamp->asNumber() < 0)
            failRequest(ErrorCode::BadRequest,
                        "param \"timestamp_ms\" must be a "
                        "non-negative number");
        timestampMs =
            static_cast<std::uint64_t>(stamp->asNumber());
    }
    checkDeadline(request.deadline);

    // Warm the spool session *before* the shard lands: a session
    // opened now scans the spool without the new shard, so
    // addStreams() below is the only path that adds it — never a
    // directory rescan racing the rename. An acquire failure (e.g.
    // an empty spool on the very first push) just means there is no
    // warm session to extend yet.
    Expected<SessionRegistry::Handle> session =
        registry_.acquire(config_.fleetWatchDir);

    // Land the shard in the spool by the same rename-into-place
    // convention on-host writers use (docs/TRACE_FORMAT.md), so a
    // daemon restart replays it from disk.
    namespace fs = std::filesystem;
    const fs::path dir(config_.fleetWatchDir);
    std::error_code ec;
    fs::create_directories(dir, ec);
    const fs::path staged = dir / ("." + name + ".tmp");
    const fs::path finished = dir / name;
    {
        std::ofstream out(staged,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes->data(),
                  static_cast<std::streamsize>(bytes->size()));
        out.flush();
        if (!out) {
            fs::remove(staged, ec);
            failRequest(ErrorCode::Internal,
                        "cannot stage shard in spool " +
                            dir.string());
        }
    }
    fs::rename(staged, finished, ec);
    if (ec) {
        fs::remove(staged, ec);
        failRequest(ErrorCode::Internal,
                    "cannot finish shard rename: " + ec.message());
    }

    // Extend the warm batch session in place. The corpus digest
    // changes, so cached responses self-invalidate.
    if (session)
        session.value()->absorbShard(corpus.value());

    const IngestOutcome outcome = fleet_->ingest(
        name, std::move(corpus.value()), timestampMs);

    JsonValue result = JsonValue::makeObject();
    result.set("fleet_revision", JsonValue(fleetRevision()));
    result.set("shard", JsonValue(name));
    result.set("window", JsonValue(outcome.window));
    result.set("alerts", JsonValue(outcome.alerts));
    result.set("evicted", JsonValue(outcome.evicted));
    result.set("ingested_total",
               JsonValue(fleet_->ingestedShards()));
    return result.render();
}

std::string
Server::handleWindowSummary(const QueuedRequest &request)
{
    checkDeadline(request.deadline);
    const JsonValue &params = request.request.params;

    const std::string scenario = stringParam(params, "scenario");
    DurationNs tFast = 0;
    DurationNs tSlow = 0;
    resolveThresholds(params, scenario, tFast, tSlow);

    std::string windowsSel;
    if (const JsonValue *sel = params.find("windows");
        sel != nullptr) {
        if (!sel->isString())
            failRequest(ErrorCode::BadRequest,
                        "param \"windows\" must be \"current\", "
                        "\"all\", or a window id");
        windowsSel = sel->asString();
    }
    if (!windowsSel.empty() && windowsSel != "current" &&
        windowsSel != "all" &&
        windowsSel.find_first_not_of("0123456789") !=
            std::string::npos) {
        failRequest(ErrorCode::BadRequest,
                    "param \"windows\" must be \"current\", "
                    "\"all\", or a window id");
    }
    const auto trailing = static_cast<std::size_t>(
        numberParamOr(params, "trailing", 0));
    const auto top = static_cast<std::size_t>(
        numberParamOr(params, "top", 5));
    const bool applyFilter =
        boolParamOr(params, "knowledge_filter", true);

    checkDeadline(request.deadline);
    return fleet_
        ->windowSummary(scenario, tFast, tSlow, windowsSel, trailing, top,
                        applyFilter)
        .render();
}

std::string
Server::handleAlerts(const QueuedRequest &request)
{
    checkDeadline(request.deadline);
    const JsonValue &params = request.request.params;

    const auto afterSeq = static_cast<std::uint64_t>(
        numberParamOr(params, "after_seq", 0));
    auto waitMs = static_cast<std::uint64_t>(
        numberParamOr(params, "wait_ms", 0));
    if (waitMs != 0 && request.deadline) {
        // The long-poll must resolve inside the request deadline or
        // the client times out with nothing.
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                *request.deadline - Clock::now())
                .count();
        if (remaining <= 0)
            waitMs = 0;
        else
            waitMs = std::min(
                waitMs, static_cast<std::uint64_t>(remaining));
    }

    AlertSink &sink = fleet_->alerts();
    const std::vector<Alert> alerts =
        waitMs != 0 ? sink.waitFor(afterSeq, waitMs)
                    : sink.since(afterSeq);

    JsonValue result = JsonValue::makeObject();
    result.set("fleet_revision", JsonValue(fleetRevision()));
    JsonValue list = JsonValue::makeArray();
    for (const Alert &alert : alerts)
        list.push(alertJson(alert));
    result.set("alerts", std::move(list));
    result.set("last_seq", JsonValue(sink.lastSeq()));
    return result.render();
}

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

// ------------------------------------------- metrics HTTP listener

void
Server::metricsLoop()
{
    while (!metricsStop_.load(std::memory_order_acquire)) {
        pollfd fds[1];
        fds[0].fd = metricsFd_;
        fds[0].events = POLLIN;
        const int ready = ::poll(fds, 1, 250);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready == 0 || (fds[0].revents & POLLIN) == 0)
            continue;
        const int fd = ::accept(metricsFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        // One tiny blocking exchange per scrape: read the request
        // head, answer the full registry, close. Prometheus scrapers
        // and curl both speak exactly this.
        timeval timeout{};
        timeout.tv_sec = 2;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
        std::string head;
        char buffer[1024];
        while (head.find("\r\n\r\n") == std::string::npos &&
               head.size() < 16384) {
            const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
            if (n <= 0)
                break;
            head.append(buffer, static_cast<std::size_t>(n));
        }
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
        std::size_t sent = 0;
        while (sent < response.size()) {
            const ssize_t n =
                ::send(fd, response.data() + sent,
                       response.size() - sent, MSG_NOSIGNAL);
            if (n <= 0)
                break;
            sent += static_cast<std::size_t>(n);
        }
        ::close(fd);
    }
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

// ------------------------------------------------------------ drain

void
Server::drain()
{
    TL_LOG(Info, "serve: draining (", stats().inflight,
           " requests inflight)");
    draining_.store(true, std::memory_order_release);
    if (fleet_)
        fleet_->stop();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }

    // Finish everything already admitted to the queue.
    {
        std::unique_lock<std::mutex> lock(queueMutex_);
        drainCv_.wait(lock, [this] { return inflight_ == 0; });
        stopWorkers_ = true;
    }
    queueCv_.notify_all();
    if (poolDriver_.joinable())
        poolDriver_.join();
    pool_.reset();

    // Hang up on every connection and join the readers.
    {
        std::lock_guard<std::mutex> lock(readersMutex_);
        for (const auto &slot : readers_)
            slot->conn->shutdownBoth();
    }
    reapReaders(true);
    registry_.evictAll();

    if (metricsThread_.joinable()) {
        metricsStop_.store(true, std::memory_order_release);
        metricsThread_.join();
    }
    if (metricsFd_ >= 0) {
        ::close(metricsFd_);
        metricsFd_ = -1;
    }

    if (!config_.selfTraceCorpusDir.empty()) {
        const std::string written = writeSelfTraceCorpus(
            Telemetry::snapshotSpans(), config_.selfTraceCorpusDir,
            nodeName());
        if (!written.empty())
            TL_LOG(Info, "serve: self-trace corpus written to ",
                   written);
    }

    TL_LOG(Info, "serve: drained");
    {
        std::lock_guard<std::mutex> lock(stoppedMutex_);
        stopped_.store(true, std::memory_order_release);
    }
    stoppedCv_.notify_all();
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
