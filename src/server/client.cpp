/**
 * @file
 * Typed protocol client (src/server/client.h): RawConn socket
 * plumbing, the preface/SETTINGS handshake, the stream/dictionary
 * state machine, and the pipelined send/wait core every blocking call
 * is built on.
 */

#include "src/server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace tracelens
{
namespace server
{

// ------------------------------------------------------------ RawConn

Expected<RawConn>
RawConn::connect(const std::string &host, std::uint16_t port,
                 std::chrono::milliseconds timeout)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return SourceError{host, 0,
                           std::string("socket: ") +
                               std::strerror(errno)};
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return SourceError{host, 0,
                           "invalid host '" + host +
                               "' (IPv4 dotted quad expected)"};
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        return SourceError{host + ":" + std::to_string(port), 0,
                           std::string("connect: ") +
                               std::strerror(err)};
    }
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
    tv.tv_usec =
        static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    // Pipelined small frames must not coalesce behind Nagle: a
    // request written shortly after another would otherwise wait
    // ~40ms for the server's delayed ACK.
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                 sizeof(nodelay));

    RawConn conn;
    conn.fd_ = fd;
    conn.peer_ = host + ":" + std::to_string(port);
    return conn;
}

bool
RawConn::sendRaw(std::string_view bytes)
{
    if (fd_ < 0)
        return false;
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd_, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    bytesSent_ += bytes.size();
    return true;
}

Expected<bool>
RawConn::fill()
{
    char buffer[8192];
    while (true) {
        const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return SourceError{peer_, 0, "read timeout"};
            return SourceError{peer_, 0,
                               std::string("recv: ") +
                                   std::strerror(errno)};
        }
        if (n == 0)
            return false; // orderly EOF
        pending_.append(buffer, static_cast<std::size_t>(n));
        bytesReceived_ += static_cast<std::uint64_t>(n);
        return true;
    }
}

Expected<std::string>
RawConn::readExact(std::size_t n)
{
    if (fd_ < 0)
        return SourceError{peer_, 0, "not connected"};
    while (pending_.size() < n) {
        Expected<bool> more = fill();
        if (!more)
            return more.error();
        if (!more.value()) {
            return SourceError{peer_, pending_.size(),
                               "connection closed by server"};
        }
    }
    std::string out = pending_.substr(0, n);
    pending_.erase(0, n);
    return out;
}

void
RawConn::shutdownWrite()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_WR);
}

void
RawConn::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    pending_.clear();
}

// ------------------------------------------------------------ Session

Expected<Session>
Session::connect(const std::string &host, std::uint16_t port,
                 SessionOptions options)
{
    Expected<RawConn> conn =
        RawConn::connect(host, port, options.ioTimeout);
    if (!conn)
        return conn.error();

    Session session;
    session.conn_ = std::move(conn.value());
    session.options_ = options;

    // The preface opens the connection; a v2 server answers with a
    // binary SETTINGS frame and anything else means it cannot serve
    // this client.
    std::string preface(wire::kPreface);
    preface += "\n";
    if (!session.conn_.sendRaw(preface)) {
        return SourceError{session.conn_.peer(), 0,
                           "send failed during handshake"};
    }
    Expected<std::string> headerBytes =
        session.conn_.readExact(wire::kFrameHeaderBytes);
    if (!headerBytes)
        return headerBytes.error();
    wire::FrameHeader header;
    wire::decodeFrameHeader(headerBytes.value(), header);
    if (header.type !=
            static_cast<std::uint8_t>(wire::FrameType::Settings) ||
        header.stream != 0 ||
        header.length > wire::kMaxSaneFramePayload) {
        return SourceError{session.conn_.peer(), 0,
                           "server did not answer the preface with "
                           "SETTINGS (it does not speak protocol v2)"};
    }
    Expected<std::string> payload =
        session.conn_.readExact(header.length);
    if (!payload)
        return payload.error();
    Expected<wire::Settings> settings =
        wire::decodeSettings(payload.value());
    if (!settings)
        return settings.error();
    if (settings.value().protocolVersion != kProtocolVersionV2) {
        return SourceError{session.conn_.peer(), 0,
                           "server speaks unknown protocol revision " +
                               std::to_string(
                                   settings.value().protocolVersion)};
    }
    session.serverSettings_ = settings.value();
    ++session.framesReceived_;

    wire::Settings mine;
    mine.protocolVersion = kProtocolVersionV2;
    mine.maxFramePayload = options.maxFramePayload;
    mine.initialWindow = options.initialWindow;
    mine.tracing = options.tracing;
    session.tracingNegotiated_ =
        options.tracing && session.serverSettings_.tracing;
    std::string out;
    wire::appendFrame(out, wire::FrameType::Settings, 0, 0,
                      wire::encodeSettings(mine));
    if (!session.conn_.sendRaw(out)) {
        return SourceError{session.conn_.peer(), 0,
                           "send failed during handshake"};
    }
    ++session.framesSent_;
    return session;
}

WireStats
Session::wireStats() const
{
    WireStats stats;
    stats.bytesSent = conn_.bytesSent();
    stats.bytesReceived = conn_.bytesReceived();
    stats.framesSent = framesSent_;
    stats.framesReceived = framesReceived_;
    return stats;
}

void
Session::close()
{
    conn_.close();
    openStreams_.clear();
    ready_.clear();
}

// ------------------------------------------------------- typed calls

Expected<Response>
Session::analyze(const AnalyzeRequest &request, CallOptions options)
{
    return call(Method::Analyze, request.toParams(), options);
}

Expected<Response>
Session::impact(const ImpactRequest &request, CallOptions options)
{
    return call(Method::Impact, request.toParams(), options);
}

Expected<Response>
Session::mine(const MineRequest &request, CallOptions options)
{
    return call(Method::Mine, request.toParams(), options);
}

Expected<Response>
Session::ingest(const IngestRequest &request, CallOptions options)
{
    return call(Method::Ingest, request.toParams(), options);
}

Expected<Response>
Session::sleep(const SleepRequest &request, CallOptions options)
{
    return call(Method::Sleep, request.toParams(), options);
}

Expected<Response>
Session::health()
{
    return call(Method::Health, JsonValue::makeObject());
}

Expected<Response>
Session::stats()
{
    return call(Method::Stats, JsonValue::makeObject());
}

Expected<Response>
Session::shutdown()
{
    return call(Method::Shutdown, JsonValue::makeObject());
}

Expected<Response>
Session::call(Method method, const JsonValue &params,
              CallOptions options)
{
    Expected<std::uint64_t> handle = send(method, params, options);
    if (!handle)
        return handle.error();
    return wait(handle.value());
}

// -------------------------------------------------------- send / wait

Expected<std::uint64_t>
Session::send(Method method, const JsonValue &params,
              CallOptions options)
{
    if (!conn_.connected())
        return SourceError{conn_.peer(), 0, "not connected"};
    const std::string paramsJson = params.render();
    // Bound-check before encoding: a failed send must not advance the
    // shared dictionary, or every later request would desync.
    if (paramsJson.size() + 64 > serverSettings_.maxFramePayload) {
        return SourceError{conn_.peer(), 0,
                           "request params exceed the server's frame "
                           "limit"};
    }
    const std::uint32_t stream = nextStream_;
    nextStream_ += 2;
    const std::uint64_t id = nextId_++;
    // Propagate the caller's explicit context, else whatever span the
    // calling thread is inside (empty when telemetry is off). The
    // field is only encoded when both ends advertised tracing.
    SpanContext context = options.traceContext;
    if (!context.valid())
        context = Telemetry::currentContext();
    const std::string payload = wire::encodeRequestPayload(
        method, options.priority, options.deadlineMs, paramsJson,
        sendDict_, context.valid() ? &context : nullptr,
        tracingNegotiated_);
    std::string out;
    wire::appendFrame(out, wire::FrameType::Request,
                      wire::kFlagEndStream, stream, payload);
    if (!conn_.sendRaw(out)) {
        return SourceError{conn_.peer(), 0,
                           "send failed (connection lost?)"};
    }
    ++framesSent_;
    StreamRx rx;
    rx.id = id;
    openStreams_.emplace(stream, std::move(rx));
    return id;
}

Expected<Response>
Session::wait(std::uint64_t handle)
{
    while (true) {
        if (const auto ready = ready_.find(handle);
            ready != ready_.end()) {
            Response response = std::move(ready->second);
            ready_.erase(ready);
            return response;
        }
        Expected<bool> pumped = pumpFrame();
        if (!pumped)
            return pumped.error();
    }
}

Expected<bool>
Session::pumpFrame()
{
    Expected<std::string> headerBytes =
        conn_.readExact(wire::kFrameHeaderBytes);
    if (!headerBytes)
        return headerBytes.error();
    wire::FrameHeader header;
    wire::decodeFrameHeader(headerBytes.value(), header);
    if (header.length > wire::kMaxSaneFramePayload) {
        return SourceError{conn_.peer(), 0,
                           "insane frame length from server (stream "
                           "desync?)"};
    }
    Expected<std::string> payload = conn_.readExact(header.length);
    if (!payload)
        return payload.error();
    ++framesReceived_;

    switch (static_cast<wire::FrameType>(header.type)) {
    case wire::FrameType::Response: {
        const auto it = openStreams_.find(header.stream);
        if (it == openStreams_.end()) {
            return SourceError{conn_.peer(), 0,
                               "response on unknown stream " +
                                   std::to_string(header.stream)};
        }
        it->second.payload += payload.value();
        ++it->second.frames;
        if ((header.flags & wire::kFlagEndStream) == 0) {
            // Chunked response: return the consumed credit so the
            // server can keep sending.
            std::string update;
            wire::appendFrame(
                update, wire::FrameType::WindowUpdate, 0,
                header.stream,
                wire::encodeWindowUpdate(payload.value().size()));
            if (conn_.sendRaw(update))
                ++framesSent_;
            return true;
        }
        Expected<std::string> json =
            recvDict_.decode(it->second.payload);
        if (!json) {
            return SourceError{conn_.peer(), json.error().offset,
                               "dictionary desync: " +
                                   json.error().reason};
        }
        Expected<JsonValue> doc = JsonValue::parse(json.value());
        if (!doc) {
            return SourceError{conn_.peer(), doc.error().offset,
                               "unparseable response payload: " +
                                   doc.error().reason};
        }
        Response response;
        if ((header.flags & wire::kFlagError) != 0) {
            response.ok = false;
            response.error = parseErrorObject(doc.value());
        } else {
            response.ok = true;
            response.result = std::move(doc.value());
        }
        ready_[it->second.id] = std::move(response);
        openStreams_.erase(it);
        return true;
    }
    case wire::FrameType::Settings: {
        Expected<wire::Settings> settings =
            wire::decodeSettings(payload.value());
        if (settings)
            serverSettings_ = settings.value();
        return true;
    }
    case wire::FrameType::Ping: {
        if ((header.flags & wire::kFlagAck) == 0) {
            std::string pong;
            wire::appendFrame(pong, wire::FrameType::Ping,
                              wire::kFlagAck, 0, payload.value());
            if (conn_.sendRaw(pong))
                ++framesSent_;
        }
        return true;
    }
    case wire::FrameType::Goaway: {
        Expected<wire::GoawayInfo> info =
            wire::decodeGoaway(payload.value());
        const std::string detail =
            info ? info.value().message : "unreadable goaway";
        const std::uint64_t offset = info ? info.value().offset : 0;
        return SourceError{conn_.peer(), offset,
                           "server sent GOAWAY: " + detail};
    }
    case wire::FrameType::Request:
    case wire::FrameType::WindowUpdate:
    default:
        // Servers never send Request; WindowUpdate is meaningless for
        // the client (requests are not flow-controlled). Ignore, like
        // unknown frame types (forward compatibility).
        return true;
    }
}

} // namespace server
} // namespace tracelens
