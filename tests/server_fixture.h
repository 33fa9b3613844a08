/**
 * @file
 * Shared helpers for the daemon test suites (server_test.cpp,
 * protocol2_test.cpp, cluster_test.cpp): a self-cleaning scratch
 * directory, an in-process daemon over a small generated corpus
 * (DaemonTest), raw protocol helpers — a hand-driven preface/SETTINGS
 * handshake with mirror dictionaries (RawV2), frame writers and
 * readers, GOAWAY expectations — so tests can speak (and corrupt) the
 * protocol byte by byte, and a scripted loopback peer that stands in
 * for a daemon in handshake tests.
 */

#ifndef TRACELENS_TESTS_SERVER_FIXTURE_H
#define TRACELENS_TESTS_SERVER_FIXTURE_H

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/server/wire.h"
#include "src/trace/serialize.h"
#include "src/util/json.h"
#include "src/util/varint.h"
#include "src/workload/generator.h"

namespace tracelens
{
namespace server
{

/** Self-cleaning scratch dir (pid-suffixed: binaries run under -j). */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : path_(std::filesystem::temp_directory_path() /
                ("tracelens_" + name + "_" + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir() { std::filesystem::remove_all(path_); }

    std::string str() const { return path_.string(); }
    const std::filesystem::path &path() const { return path_; }

  private:
    std::filesystem::path path_;
};

// ------------------------------------------------------- raw frames

/** One decoded raw frame. */
struct RawFrame
{
    wire::FrameHeader header;
    std::string payload;
};

/** A RawConn that completed the preface + SETTINGS exchange, with
 *  mirror dictionaries so tests can speak (and corrupt) v2 by hand. */
struct RawV2
{
    RawConn conn;
    wire::Settings server;
    wire::SymbolDict sendDict; //!< mirrors the server's receive table
    wire::SymbolDict recvDict; //!< mirrors the server's send table
};

/** A fully reassembled response from raw frames. */
struct RawResponse
{
    bool isError = false;
    std::uint64_t frames = 0;
    JsonValue body; //!< result object, or the error object.
};

inline std::optional<RawFrame>
readFrame(RawConn &conn)
{
    Expected<std::string> header = conn.readExact(wire::kFrameHeaderBytes);
    if (!header.ok()) {
        ADD_FAILURE() << "frame header: " << header.error().render();
        return std::nullopt;
    }
    RawFrame frame;
    if (!wire::decodeFrameHeader(header.value(), frame.header)) {
        ADD_FAILURE() << "undecodable frame header";
        return std::nullopt;
    }
    Expected<std::string> payload = conn.readExact(frame.header.length);
    if (!payload.ok()) {
        ADD_FAILURE() << "frame payload: " << payload.error().render();
        return std::nullopt;
    }
    frame.payload = std::move(payload.value());
    return frame;
}

/** Preface + SETTINGS exchange by hand on @p conn. @p tracing
 *  advertises trace-context propagation — both sides must for the
 *  request payloads to carry the span-context field. */
inline std::optional<RawV2>
handshake(RawConn conn, bool tracing = false)
{
    RawV2 v2;
    v2.conn = std::move(conn);
    if (!v2.conn.sendRaw(std::string(wire::kPreface) + "\n")) {
        ADD_FAILURE() << "preface send failed";
        return std::nullopt;
    }
    std::optional<RawFrame> settings = readFrame(v2.conn);
    if (!settings)
        return std::nullopt;
    EXPECT_EQ(settings->header.type,
              static_cast<std::uint8_t>(wire::FrameType::Settings));
    EXPECT_EQ(settings->header.stream, 0u);
    Expected<wire::Settings> decoded =
        wire::decodeSettings(settings->payload);
    if (!decoded.ok()) {
        ADD_FAILURE() << decoded.error().render();
        return std::nullopt;
    }
    v2.server = decoded.value();
    EXPECT_EQ(v2.server.protocolVersion, kProtocolVersionV2);
    EXPECT_TRUE(v2.server.tracing); // current servers advertise
    wire::Settings mine;
    mine.tracing = tracing;
    std::string out;
    wire::appendFrame(out, wire::FrameType::Settings, 0, 0,
                      wire::encodeSettings(mine));
    EXPECT_TRUE(v2.conn.sendRaw(out));
    return v2;
}

/**
 * A request frame built byte by byte: @p methodByte (need not name a
 * method), normal priority, no deadline, the span-context field
 * @p context verbatim (length byte included; empty = no field), and
 * @p paramsText dictionary-encoded as is (need not be JSON).
 */
inline bool
sendRawRequest(RawV2 &v2, std::uint32_t stream, std::uint8_t methodByte,
               std::string_view context, std::string_view paramsText,
               std::uint8_t priority = kPriorityNormal)
{
    std::string payload;
    payload.push_back(static_cast<char>(methodByte));
    payload.push_back(static_cast<char>(priority));
    putVarint(payload, 0); // deadline
    payload += context;
    v2.sendDict.encode(paramsText, payload);
    std::string out;
    wire::appendFrame(out, wire::FrameType::Request, wire::kFlagEndStream,
                      stream, payload);
    return v2.conn.sendRaw(out);
}

/** A well-formed request frame (no span-context field). */
inline bool
sendRequestFrame(RawV2 &v2, std::uint32_t stream, Method method,
                 const JsonValue &params,
                 std::uint8_t priority = kPriorityNormal)
{
    return sendRawRequest(v2, stream, methodWireByte(method), {},
                          params.render(), priority);
}

/** A request frame whose span-context field is @p ctx verbatim
 *  (length byte included) — the corruption tests' raw entry. */
inline bool
sendRequestFrameWithRawContext(RawV2 &v2, std::uint32_t stream,
                               Method method, const JsonValue &params,
                               const std::string &ctx)
{
    return sendRawRequest(v2, stream, methodWireByte(method), ctx,
                          params.render());
}

/** Reassemble the response on @p stream (other frame types are
 *  skipped; a stray Response on another stream is a failure — these
 *  tests keep one stream in flight at a time so the mirror dictionary
 *  stays in lockstep). */
inline std::optional<RawResponse>
readResponse(RawV2 &v2, std::uint32_t stream)
{
    std::string accum;
    RawResponse response;
    for (;;) {
        std::optional<RawFrame> frame = readFrame(v2.conn);
        if (!frame)
            return std::nullopt;
        if (frame->header.type !=
            static_cast<std::uint8_t>(wire::FrameType::Response))
            continue;
        if (frame->header.stream != stream) {
            ADD_FAILURE() << "response on unexpected stream "
                          << frame->header.stream;
            return std::nullopt;
        }
        ++response.frames;
        accum += frame->payload;
        response.isError =
            (frame->header.flags & wire::kFlagError) != 0;
        if ((frame->header.flags & wire::kFlagEndStream) != 0)
            break;
        std::string credit;
        wire::appendFrame(credit, wire::FrameType::WindowUpdate, 0, stream,
                          wire::encodeWindowUpdate(frame->payload.size()));
        EXPECT_TRUE(v2.conn.sendRaw(credit));
    }
    Expected<std::string> json = v2.recvDict.decode(accum);
    if (!json.ok()) {
        ADD_FAILURE() << "response dict: " << json.error().render();
        return std::nullopt;
    }
    Expected<JsonValue> parsed = JsonValue::parse(json.value());
    if (!parsed.ok()) {
        ADD_FAILURE() << "response json: " << parsed.error().render();
        return std::nullopt;
    }
    response.body = std::move(parsed.value());
    return response;
}

/** Read frames until GOAWAY; the connection must then be closed by
 *  the server (reads hit EOF). */
inline void
expectGoaway(RawConn &conn, const std::string &needle)
{
    for (int hops = 0; hops < 8; ++hops) {
        std::optional<RawFrame> frame = readFrame(conn);
        if (!frame)
            return;
        if (frame->header.type !=
            static_cast<std::uint8_t>(wire::FrameType::Goaway))
            continue;
        EXPECT_EQ(frame->header.stream, 0u);
        Expected<wire::GoawayInfo> info =
            wire::decodeGoaway(frame->payload);
        ASSERT_TRUE(info.ok()) << info.error().render();
        EXPECT_NE(info.value().message.find(needle), std::string::npos)
            << "goaway message: " << info.value().message;
        // Fatal means fatal: nothing more arrives.
        EXPECT_FALSE(conn.readExact(1).ok());
        return;
    }
    ADD_FAILURE() << "no goaway frame arrived";
}

// --------------------------------------------------- scripted peers

/** A TCP socket bound to an ephemeral loopback port; sets @p port. */
inline int
bindLoopback(std::uint16_t &port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(
        ::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len), 0);
    port = ntohs(addr.sin_port);
    return fd;
}

/** Read exactly @p n bytes from @p fd; nullopt on EOF or error. */
inline std::optional<std::string>
recvExact(int fd, std::size_t n)
{
    std::string out(n, '\0');
    std::size_t got = 0;
    while (got < n) {
        const ssize_t r = ::recv(fd, out.data() + got, n - got, 0);
        if (r <= 0)
            return std::nullopt;
        got += static_cast<std::size_t>(r);
    }
    return out;
}

/** Read one frame from @p fd; nullopt on EOF or a bad header. */
inline std::optional<RawFrame>
recvFrame(int fd)
{
    const std::optional<std::string> header =
        recvExact(fd, wire::kFrameHeaderBytes);
    RawFrame frame;
    if (!header || !wire::decodeFrameHeader(*header, frame.header))
        return std::nullopt;
    std::optional<std::string> payload = recvExact(fd, frame.header.length);
    if (!payload)
        return std::nullopt;
    frame.payload = std::move(*payload);
    return frame;
}

/** Write all of @p bytes to @p fd. */
inline bool
sendAll(int fd, std::string_view bytes)
{
    while (!bytes.empty()) {
        const ssize_t n =
            ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

/**
 * A loopback peer that accepts one connection and runs a script on it
 * on its own thread: a stand-in daemon for handshake tests. After the
 * script returns, the peer holds the socket open until the client
 * hangs up or the peer is destroyed, so a client's error is the
 * handshake's, not a reset.
 */
class ScriptedPeer
{
  public:
    explicit ScriptedPeer(std::function<void(int fd)> script)
    {
        fd_ = bindLoopback(port_);
        EXPECT_EQ(::listen(fd_, 4), 0);
        thread_ = std::thread([this, script = std::move(script)] {
            const int client = ::accept(fd_, nullptr, nullptr);
            if (client < 0)
                return;
            client_.store(client);
            script(client);
            char sink[512];
            while (::recv(client, sink, sizeof(sink), 0) > 0) {
            }
        });
    }

    ~ScriptedPeer()
    {
        ::shutdown(fd_, SHUT_RDWR);
        if (const int client = client_.load(); client >= 0)
            ::shutdown(client, SHUT_RDWR);
        thread_.join();
        if (const int client = client_.load(); client >= 0)
            ::close(client);
        ::close(fd_);
    }

    ScriptedPeer(const ScriptedPeer &) = delete;
    ScriptedPeer &operator=(const ScriptedPeer &) = delete;

    std::uint16_t port() const { return port_; }
    std::string
    address() const
    {
        return "127.0.0.1:" + std::to_string(port_);
    }

  private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<int> client_{-1};
    std::thread thread_;
};

// ----------------------------------------------------------- fixture

/** One small corpus file and one in-process daemon per test. */
class DaemonTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        scratch_ = std::make_unique<ScratchDir>(
            std::string(info->test_suite_name()) + "_" + info->name());
        CorpusSpec spec;
        spec.machines = 8;
        spec.seed = 1337;
        corpusPath_ = (scratch_->path() / "corpus.tlc").string();
        writeCorpusFile(generateCorpus(spec), corpusPath_);
    }

    /** Start a daemon on an ephemeral port with @p config (test
     *  methods on). */
    void
    startServer(ServerConfig config = {})
    {
        config.host = "127.0.0.1";
        config.port = 0;
        config.enableTestMethods = true;
        server_ = std::make_unique<Server>(config);
        Expected<std::uint16_t> port = server_->start();
        ASSERT_TRUE(port.ok()) << port.error().render();
        port_ = port.value();
    }

    Session
    connect(SessionOptions options = {})
    {
        Expected<Session> session =
            Session::connect("127.0.0.1", port_, options);
        EXPECT_TRUE(session.ok())
            << (session.ok() ? "" : session.error().render());
        return session.ok() ? std::move(session.value()) : Session();
    }

    RawConn
    connectRaw()
    {
        Expected<RawConn> conn = RawConn::connect(
            "127.0.0.1", port_, std::chrono::milliseconds(30000));
        EXPECT_TRUE(conn.ok());
        return conn.ok() ? std::move(conn.value()) : RawConn();
    }

    /** A raw connection that completed the handshake. */
    std::optional<RawV2>
    handshake(bool tracing = false)
    {
        return server::handshake(connectRaw(), tracing);
    }

    AnalyzeRequest
    analyzeRequest(std::size_t top = 5) const
    {
        AnalyzeRequest request;
        request.corpus = corpusPath_;
        request.scenario = "BrowserTabCreate";
        request.top = top;
        return request;
    }

    void
    TearDown() override
    {
        if (server_ != nullptr && !server_->stopped()) {
            server_->requestStop();
            server_->wait();
        }
        // Leak check on every path out of every test: a request that
        // crashed, timed out, or vanished must still unpin its
        // session.
        if (server_ != nullptr) {
            EXPECT_EQ(server_->registry().stats().activeHandles, 0u);
        }
        server_.reset();
        scratch_.reset();
    }

    std::unique_ptr<ScratchDir> scratch_;
    std::string corpusPath_;
    std::unique_ptr<Server> server_;
    std::uint16_t port_ = 0;
};

} // namespace server
} // namespace tracelens

#endif // TRACELENS_TESTS_SERVER_FIXTURE_H
