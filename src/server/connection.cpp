/**
 * @file
 * Connection I/O of the daemon (src/server/server.h): one reader
 * thread per connection checks the preface, decodes frames and hands
 * each request to Server::routeRequest; responses are dictionary-
 * encoded and written under the connection's write lock, as far as
 * the peer's flow-control windows allow.
 */

#include "src/server/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <string>
#include <utility>

#include "src/util/logging.h"

namespace tracelens
{
namespace server
{

// ------------------------------------------------------- Connection

Server::Connection::~Connection()
{
    if (fd >= 0)
        ::close(fd);
}

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
    protocolErrors_.fetch_add(1, std::memory_order_relaxed);
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
            sendGoaway(conn, frameStart,
                       "bogus request stream id " +
                           std::to_string(header.stream));
            return false;
        }
        state.lastStream = header.stream;
        if (header.length > config_.maxLineBytes) {
            // Oversized but framed sanely: skip just this request.
            protocolErrors_.fetch_add(1, std::memory_order_relaxed);
            answerError(conn, header.stream, ErrorCode::ProtocolError,
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
            answerError(conn, header.stream, ErrorCode::ProtocolError,
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
            answerError(conn, header.stream, ErrorCode::ProtocolError,
                        "malformed span-context field; request dropped",
                        frameStart);
            return true;
        }
        const std::optional<Method> method =
            methodFromWireByte(frame.value().methodByte);
        if (!method) {
            answerError(conn, header.stream, ErrorCode::NotFound,
                        "unknown method byte " +
                            std::to_string(frame.value().methodByte));
            return true;
        }
        Expected<JsonValue> params =
            JsonValue::parse(frame.value().paramsJson);
        if (!params || !params.value().isObject()) {
            answerError(conn, header.stream, ErrorCode::BadRequest,
                        "request params must decode to a JSON object");
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
            sendGoaway(conn, frameStart, "malformed window update");
            return false;
        }
        std::lock_guard<std::mutex> lock(conn->writeMutex);
        const auto window =
            state.window
                .try_emplace(header.stream, static_cast<std::int64_t>(
                                                state.peer.initialWindow))
                .first;
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

// ------------------------------------------------- response emission

void
Server::answerError(const std::shared_ptr<Connection> &conn,
                    std::uint32_t stream, ErrorCode code,
                    const std::string &message, std::uint64_t offset)
{
    errors_.fetch_add(1, std::memory_order_relaxed);
    errorsCounter_->add(1);
    respondError(conn, stream, code, message, offset);
}

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
        const auto window =
            state.window
                .try_emplace(head.stream, static_cast<std::int64_t>(
                                              state.peer.initialWindow))
                .first;
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

} // namespace server
} // namespace tracelens
