/**
 * @file
 * Typed client API for the analysis service — the counterpart of
 * src/server/server.h used by `tracelens query`, the protocol tests,
 * and the bench_scale load generator.
 *
 * One Session wraps one TCP connection and hides the transport: it
 * sends the protocol preface, exchanges SETTINGS, and then speaks
 * binary frames with multiplexed streams and a shared symbol
 * dictionary (src/server/wire.h), so callers see only the typed
 * Request/Response structs (src/server/protocol.h).
 *
 * Blocking calls:
 *
 *   auto session = Session::connect("127.0.0.1", port);
 *   AnalyzeRequest req;
 *   req.corpus = "corpus.tlc";
 *   req.scenario = "BrowserTabCreate";
 *   Expected<Response> r = session.value().analyze(req);
 *
 * Pipelining: send() issues a request without waiting and returns a
 * handle; wait() blocks for that specific response while buffering
 * any others that arrive first. The requests genuinely multiplex
 * server-side (a cheap `stats` overtakes a cold `analyze` because
 * responses complete out of order on separate streams).
 *
 * A Session is single-threaded by design — one connection, one
 * caller. Concurrent load generators open one Session per thread.
 *
 * RawConn is the low-level escape hatch for the robustness tests:
 * verbatim bytes in, exact byte counts out, so tests can speak
 * *malformed* protocol (oversized or truncated frames, bogus stream
 * ids, a missing preface, half-closed sockets) — cases a
 * well-behaved Session would never produce.
 */

#ifndef TRACELENS_SERVER_CLIENT_H
#define TRACELENS_SERVER_CLIENT_H

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "src/server/protocol.h"
#include "src/server/wire.h"
#include "src/util/expected.h"
#include "src/util/json.h"

namespace tracelens
{
namespace server
{

// ------------------------------------------------------------ RawConn

/** Low-level test/diagnostic connection: raw bytes in and out. */
class RawConn
{
  public:
    RawConn() = default;
    ~RawConn() { close(); }
    RawConn(RawConn &&other) noexcept { swap(other); }
    RawConn &
    operator=(RawConn &&other) noexcept
    {
        close();
        swap(other);
        return *this;
    }
    RawConn(const RawConn &) = delete;
    RawConn &operator=(const RawConn &) = delete;

    /**
     * Connect to @p host:@p port. @p timeout bounds every subsequent
     * blocking read (SO_RCVTIMEO), not the connect itself.
     */
    static Expected<RawConn>
    connect(const std::string &host, std::uint16_t port,
            std::chrono::milliseconds timeout =
                std::chrono::milliseconds(10000));

    bool connected() const { return fd_ >= 0; }
    const std::string &peer() const { return peer_; }

    /** Send raw bytes verbatim. */
    bool sendRaw(std::string_view bytes);

    /** Read exactly @p n bytes; respects timeout. */
    Expected<std::string> readExact(std::size_t n);

    /** Half-close: no more writes, reads still possible. */
    void shutdownWrite();

    void close();

    /** Total bytes written / read through this connection. */
    std::uint64_t bytesSent() const { return bytesSent_; }
    std::uint64_t bytesReceived() const { return bytesReceived_; }

  private:
    void
    swap(RawConn &other) noexcept
    {
        std::swap(fd_, other.fd_);
        std::swap(pending_, other.pending_);
        std::swap(peer_, other.peer_);
        std::swap(bytesSent_, other.bytesSent_);
        std::swap(bytesReceived_, other.bytesReceived_);
    }

    /** Pull more bytes from the socket into pending_. */
    Expected<bool> fill();

    int fd_ = -1;
    std::string pending_; //!< Bytes read past the last consume.
    std::string peer_;
    std::uint64_t bytesSent_ = 0;
    std::uint64_t bytesReceived_ = 0;
};

// ------------------------------------------------------------ Session

/**
 * The protocol revision connect() speaks. v2 is the only one, so this
 * and SessionOptions::prefer choose nothing; they remain because
 * existing callers (the repository benchmark's client) still set the
 * field.
 */
enum class ProtocolPreference
{
    V2, //!< Multiplexed binary frames (the one protocol).
};

struct SessionOptions
{
    /** Always V2; see ProtocolPreference. */
    ProtocolPreference prefer = ProtocolPreference::V2;
    /** Bounds every blocking read (SO_RCVTIMEO). */
    std::chrono::milliseconds ioTimeout{10000};
    /** Per-stream response window granted to the server. */
    std::uint32_t initialWindow = wire::kDefaultInitialWindow;
    /** Largest frame payload this client accepts. */
    std::uint32_t maxFramePayload = wire::kDefaultMaxFramePayload;
    /**
     * Advertise trace-context propagation in the SETTINGS
     * exchange. Requests carry a span-context field only when *both*
     * sides advertised it (see wire::Settings::tracing), so turning
     * this off speaks byte-identical frames to a pre-tracing client.
     */
    bool tracing = true;
};

/** Per-request knobs. */
struct CallOptions
{
    /** 0 = server default. */
    std::uint64_t deadlineMs = 0;
    /** kPriority* (the request's scheduling class). */
    std::uint8_t priority = kPriorityNormal;
    /**
     * Span context to propagate with the request (only when tracing
     * was negotiated — silently dropped otherwise).
     * When invalid (traceId == 0), send() falls back to the calling
     * thread's Telemetry::currentContext(), so code running inside a
     * traced span propagates automatically.
     */
    SpanContext traceContext;
};

/** Transport-level counters (the wire-bytes bench reads these). */
struct WireStats
{
    std::uint64_t bytesSent = 0;
    std::uint64_t bytesReceived = 0;
    std::uint64_t framesSent = 0;
    std::uint64_t framesReceived = 0;
};

class Session
{
  public:
    Session() = default;

    /**
     * Connect, send the preface and exchange SETTINGS. Fails when the
     * peer answers with anything but a SETTINGS frame (a server that
     * does not speak v2) or not within options.ioTimeout.
     */
    static Expected<Session> connect(const std::string &host,
                                     std::uint16_t port,
                                     SessionOptions options = {});

    bool connected() const { return conn_.connected(); }
    /** True when both ends advertised trace-context propagation. */
    bool tracingNegotiated() const { return tracingNegotiated_; }
    WireStats wireStats() const;

    // ---- typed blocking calls

    Expected<Response> analyze(const AnalyzeRequest &request,
                               CallOptions options = {});
    Expected<Response> impact(const ImpactRequest &request,
                              CallOptions options = {});
    Expected<Response> mine(const MineRequest &request,
                            CallOptions options = {});
    Expected<Response> ingest(const IngestRequest &request,
                              CallOptions options = {});
    Expected<Response> sleep(const SleepRequest &request,
                             CallOptions options = {});
    Expected<Response> health();
    Expected<Response> stats();
    Expected<Response> shutdown();

    /**
     * Generic blocking round trip. Protocol-level errors
     * ("overloaded", ...) come back as Response with ok=false; the
     * Expected fails only on transport problems (connection lost,
     * read timeout, unparseable response).
     */
    Expected<Response> call(Method method, const JsonValue &params,
                            CallOptions options = {});

    // ---- pipelining

    /** Issue a request without waiting; returns a wait() handle. */
    Expected<std::uint64_t> send(Method method, const JsonValue &params,
                                 CallOptions options = {});

    /** Block for the response to @p handle, buffering any other
     *  responses that complete first. */
    Expected<Response> wait(std::uint64_t handle);

    void close();

  private:
    /** Read + dispatch one frame (responses, settings, ping...). */
    Expected<bool> pumpFrame();

    RawConn conn_;
    SessionOptions options_;
    bool tracingNegotiated_ = false;
    std::uint64_t framesSent_ = 0;
    std::uint64_t framesReceived_ = 0;

    std::uint64_t nextId_ = 1;

    wire::SymbolDict sendDict_; //!< client->server params
    wire::SymbolDict recvDict_; //!< server->client results
    wire::Settings serverSettings_;
    std::uint32_t nextStream_ = 1; //!< odd, strictly increasing
    struct StreamRx
    {
        std::uint64_t id = 0;
        std::string payload; //!< accumulated dict-encoded chunks
        std::uint64_t frames = 0;
    };
    std::map<std::uint32_t, StreamRx> openStreams_;
    /** Responses that arrived for handles nobody is waiting on yet. */
    std::map<std::uint64_t, Response> ready_;
};

} // namespace server
} // namespace tracelens

#endif // TRACELENS_SERVER_CLIENT_H
