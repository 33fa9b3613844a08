/**
 * @file
 * Protocol-v2 tests (src/server/wire.h, the Session negotiation in
 * src/server/client.cpp, and the frame path in src/server/server.cpp):
 * the transport-free codecs against hostile bytes, the cross-version
 * interop matrix, frame-level corruption (truncated headers, insane
 * lengths, bogus stream ids, dictionary desync), symbol-dictionary
 * round-trips on seeded-corpus results, flow-control chunking,
 * priority scheduling, and pipelining. Built into the "server" ctest
 * label next to server_test.cpp so all of it runs under both
 * sanitizers (ctest --preset asan-server / tsan-server).
 */

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/server/wire.h"
#include "src/trace/serialize.h"
#include "src/util/json.h"
#include "src/util/telemetry.h"
#include "src/util/varint.h"
#include "src/workload/generator.h"

namespace tracelens
{
namespace server
{
namespace
{

namespace fs = std::filesystem;

using std::chrono::steady_clock;

std::uint64_t
msSince(steady_clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            steady_clock::now() - start)
            .count());
}

// --------------------------------------------- codec tests (no server)

TEST(WireCodec, FrameHeaderRoundTripsAndRejectsShortBuffers)
{
    std::string out;
    wire::appendFrame(out, wire::FrameType::Response,
                      wire::kFlagEndStream | wire::kFlagError,
                      0x01234567u, "abc");
    ASSERT_EQ(out.size(), wire::kFrameHeaderBytes + 3);

    wire::FrameHeader header;
    ASSERT_TRUE(wire::decodeFrameHeader(out, header));
    EXPECT_EQ(header.length, 3u);
    EXPECT_EQ(header.type,
              static_cast<std::uint8_t>(wire::FrameType::Response));
    EXPECT_EQ(header.flags, wire::kFlagEndStream | wire::kFlagError);
    EXPECT_EQ(header.stream, 0x01234567u);
    EXPECT_EQ(out.substr(wire::kFrameHeaderBytes), "abc");

    for (std::size_t n = 0; n < wire::kFrameHeaderBytes; ++n) {
        wire::FrameHeader ignored;
        EXPECT_FALSE(wire::decodeFrameHeader(
            std::string_view(out).substr(0, n), ignored));
    }
}

TEST(WireCodec, ControlPayloadsRoundTrip)
{
    wire::Settings settings;
    settings.maxFramePayload = 512;
    settings.initialWindow = 1024;
    Expected<wire::Settings> back =
        wire::decodeSettings(wire::encodeSettings(settings));
    ASSERT_TRUE(back.ok()) << back.error().render();
    EXPECT_EQ(back.value().protocolVersion, kProtocolVersionV2);
    EXPECT_EQ(back.value().maxFramePayload, 512u);
    EXPECT_EQ(back.value().initialWindow, 1024u);
    EXPECT_FALSE(wire::decodeSettings("\x01").ok()); // truncated pair

    Expected<wire::GoawayInfo> goaway = wire::decodeGoaway(
        wire::encodeGoaway(4096, "dictionary desync"));
    ASSERT_TRUE(goaway.ok());
    EXPECT_EQ(goaway.value().offset, 4096u);
    EXPECT_EQ(goaway.value().message, "dictionary desync");

    Expected<std::uint64_t> credit =
        wire::decodeWindowUpdate(wire::encodeWindowUpdate(65536));
    ASSERT_TRUE(credit.ok());
    EXPECT_EQ(credit.value(), 65536u);
    EXPECT_FALSE(wire::decodeWindowUpdate("").ok());
    std::string zero;
    putVarint(zero, 0);
    EXPECT_FALSE(wire::decodeWindowUpdate(zero).ok());
}

TEST(WireCodec, SymbolDictShrinksRepeatedSymbolsAndRoundTrips)
{
    // A result-shaped document heavy on module!Function strings — the
    // shape the dictionary exists for.
    JsonValue doc = JsonValue::makeObject();
    JsonValue frames = JsonValue::makeArray();
    const char *symbols[] = {
        "ntoskrnl.exe!KeWaitForSingleObject",
        "storqosflt.sys!QosFilterCompletion",
        "ndis.sys!NdisMIndicateReceiveNetBufferLists",
        "app.exe!BrowserTab::Create",
    };
    for (int rep = 0; rep < 6; ++rep)
        for (const char *symbol : symbols)
            frames.push(JsonValue(symbol));
    doc.set("frames", frames);
    doc.set("scenario", JsonValue("BrowserTabCreate"));
    const std::string json = doc.render();

    wire::SymbolDict encoder, decoder;
    std::string first, second;
    encoder.encode(json, first);
    Expected<std::string> back1 = decoder.decode(first);
    ASSERT_TRUE(back1.ok()) << back1.error().render();
    EXPECT_EQ(back1.value(), json);

    // Second transit of the same document: every symbol is a table
    // reference now, so the encoding collapses.
    encoder.encode(json, second);
    Expected<std::string> back2 = decoder.decode(second);
    ASSERT_TRUE(back2.ok()) << back2.error().render();
    EXPECT_EQ(back2.value(), json);
    EXPECT_LT(second.size(), first.size());
    EXPECT_LT(second.size(), json.size() / 3);
}

TEST(WireCodec, SymbolDictRejectsHostileBytes)
{
    // Reference past the table.
    std::string bogusRef;
    bogusRef.push_back('\x01');
    putVarint(bogusRef, 1u << 20);
    wire::SymbolDict dict1;
    EXPECT_FALSE(dict1.decode(bogusRef).ok());

    // Insert whose length prefix outruns the payload.
    std::string truncated;
    truncated.push_back('\x02');
    putVarint(truncated, 100);
    truncated += "abc";
    wire::SymbolDict dict2;
    EXPECT_FALSE(dict2.decode(truncated).ok());

    // Instruction byte with nothing after it.
    wire::SymbolDict dict3;
    EXPECT_FALSE(dict3.decode("\x01").ok());
}

// ----------------------------------------------------- server fixture

/** Self-cleaning scratch dir (pid-suffixed: binaries run under -j). */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : path_(fs::temp_directory_path() /
                ("tracelens_proto2_test_" +
                 std::to_string(::getpid()) + "_" + name))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() { fs::remove_all(path_); }

    const fs::path &path() const { return path_; }

  private:
    fs::path path_;
};

/** One decoded raw frame. */
struct RawFrame
{
    wire::FrameHeader header;
    std::string payload;
};

/** A RawConn that completed the v2 preface + SETTINGS exchange, with
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

class Protocol2Test : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        scratch_ = std::make_unique<ScratchDir>(
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
        CorpusSpec spec;
        spec.machines = 8;
        spec.seed = 1337;
        corpusPath_ = (scratch_->path() / "corpus.tlc").string();
        writeCorpusFile(generateCorpus(spec), corpusPath_);
    }

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
        return std::move(conn.value());
    }

    std::optional<RawFrame>
    readFrame(RawConn &conn)
    {
        Expected<std::string> header =
            conn.readExact(wire::kFrameHeaderBytes);
        if (!header.ok()) {
            ADD_FAILURE() << "frame header: "
                          << header.error().render();
            return std::nullopt;
        }
        RawFrame frame;
        if (!wire::decodeFrameHeader(header.value(), frame.header)) {
            ADD_FAILURE() << "undecodable frame header";
            return std::nullopt;
        }
        Expected<std::string> payload =
            conn.readExact(frame.header.length);
        if (!payload.ok()) {
            ADD_FAILURE() << "frame payload: "
                          << payload.error().render();
            return std::nullopt;
        }
        frame.payload = std::move(payload.value());
        return frame;
    }

    /** Preface + SETTINGS exchange by hand. @p tracing advertises
     *  trace-context propagation — both sides must for the request
     *  payloads to carry the span-context field. */
    std::optional<RawV2>
    handshake(bool tracing = false)
    {
        RawV2 v2;
        v2.conn = connectRaw();
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

    /** A request frame whose span-context field is @p ctx verbatim
     *  (length byte included) — the corruption tests' raw entry. */
    bool
    sendRequestFrameWithRawContext(RawV2 &v2, std::uint32_t stream,
                                   Method method,
                                   const JsonValue &params,
                                   const std::string &ctx)
    {
        std::string payload;
        payload.push_back(
            static_cast<char>(methodWireByte(method)));
        payload.push_back(static_cast<char>(kPriorityNormal));
        putVarint(payload, 0); // deadline
        payload += ctx;
        v2.sendDict.encode(params.render(), payload);
        std::string out;
        wire::appendFrame(out, wire::FrameType::Request,
                          wire::kFlagEndStream, stream, payload);
        return v2.conn.sendRaw(out);
    }

    bool
    sendRequestFrame(RawV2 &v2, std::uint32_t stream, Method method,
                     const JsonValue &params,
                     std::uint8_t priority = kPriorityNormal)
    {
        const std::string payload = wire::encodeRequestPayload(
            method, priority, 0, params.render(), v2.sendDict);
        std::string out;
        wire::appendFrame(out, wire::FrameType::Request,
                          wire::kFlagEndStream, stream, payload);
        return v2.conn.sendRaw(out);
    }

    /** Reassemble the response on @p stream (other frame types are
     *  skipped; a stray Response on another stream is a failure —
     *  these tests keep one stream in flight at a time so the mirror
     *  dictionary stays in lockstep). */
    std::optional<RawResponse>
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
            response.isError = (frame->header.flags &
                                wire::kFlagError) != 0;
            if ((frame->header.flags & wire::kFlagEndStream) != 0)
                break;
            std::string credit;
            wire::appendFrame(
                credit, wire::FrameType::WindowUpdate, 0, stream,
                wire::encodeWindowUpdate(frame->payload.size()));
            EXPECT_TRUE(v2.conn.sendRaw(credit));
        }
        Expected<std::string> json = v2.recvDict.decode(accum);
        if (!json.ok()) {
            ADD_FAILURE() << "response dict: "
                          << json.error().render();
            return std::nullopt;
        }
        Expected<JsonValue> parsed = JsonValue::parse(json.value());
        if (!parsed.ok()) {
            ADD_FAILURE() << "response json: "
                          << parsed.error().render();
            return std::nullopt;
        }
        response.body = std::move(parsed.value());
        return response;
    }

    /** Read frames until GOAWAY; the connection must then be closed
     *  by the server (reads hit EOF). */
    void
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
            EXPECT_NE(info.value().message.find(needle),
                      std::string::npos)
                << "goaway message: " << info.value().message;
            // Fatal means fatal: nothing more arrives.
            EXPECT_FALSE(conn.readExact(1).ok());
            return;
        }
        ADD_FAILURE() << "no goaway frame arrived";
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

// ------------------------------------------------------ interop matrix

TEST_F(Protocol2Test, InteropMatrixNegotiatesEveryCell)
{
    startServer();

    // Auto against a current server lands on v2.
    Session autoSession = connect();
    EXPECT_EQ(autoSession.protocolVersion(), kProtocolVersionV2);
    Expected<Response> health = autoSession.health();
    ASSERT_TRUE(health.ok()) << health.error().render();
    EXPECT_TRUE(health.value().ok);

    // Explicit v1 never attempts the upgrade and still works.
    SessionOptions v1Options;
    v1Options.prefer = ProtocolPreference::V1;
    Session v1Session = connect(v1Options);
    EXPECT_EQ(v1Session.protocolVersion(), kProtocolVersionV1);
    Expected<Response> v1Health = v1Session.health();
    ASSERT_TRUE(v1Health.ok()) << v1Health.error().render();
    EXPECT_TRUE(v1Health.value().ok);

    // Strict v2 succeeds against a v2 server.
    SessionOptions v2Options;
    v2Options.prefer = ProtocolPreference::V2;
    Session v2Session = connect(v2Options);
    EXPECT_EQ(v2Session.protocolVersion(), kProtocolVersionV2);

    EXPECT_GE(server_->stats().v2Connections, 2u);
}

TEST_F(Protocol2Test, AutoFallsBackToV1AgainstAnOldServer)
{
    ServerConfig config;
    config.enableProtocolV2 = false; // the interop matrix's old server
    startServer(config);

    Session session = connect();
    EXPECT_EQ(session.protocolVersion(), kProtocolVersionV1);
    Expected<Response> response = session.analyze(analyzeRequest());
    ASSERT_TRUE(response.ok()) << response.error().render();
    EXPECT_TRUE(response.value().ok);

    // Strict v2 against the same server must fail loudly, not
    // silently downgrade.
    SessionOptions strict;
    strict.prefer = ProtocolPreference::V2;
    Expected<Session> refused =
        Session::connect("127.0.0.1", port_, strict);
    EXPECT_FALSE(refused.ok());
    EXPECT_EQ(server_->stats().v2Connections, 0u);
}

TEST_F(Protocol2Test, ReportsAreByteIdenticalAcrossProtocols)
{
    startServer();
    SessionOptions v1Options;
    v1Options.prefer = ProtocolPreference::V1;
    Session v1 = connect(v1Options);
    Session v2 = connect();
    ASSERT_EQ(v2.protocolVersion(), kProtocolVersionV2);

    ImpactRequest impact;
    impact.corpus = corpusPath_;

    // Repeat the sequence: rep 2+ exercises the dictionary's warm
    // path (references instead of inserts) on real seeded-corpus
    // symbol strings, and every rep must still decode to the exact
    // v1 bytes.
    for (int rep = 0; rep < 3; ++rep) {
        Expected<Response> a1 = v1.analyze(analyzeRequest(20));
        Expected<Response> a2 = v2.analyze(analyzeRequest(20));
        ASSERT_TRUE(a1.ok() && a2.ok());
        ASSERT_TRUE(a1.value().ok && a2.value().ok);
        EXPECT_EQ(a1.value().result.render(),
                  a2.value().result.render());

        Expected<Response> i1 = v1.impact(impact);
        Expected<Response> i2 = v2.impact(impact);
        ASSERT_TRUE(i1.ok() && i2.ok());
        ASSERT_TRUE(i1.value().ok && i2.value().ok);
        EXPECT_EQ(i1.value().result.render(),
                  i2.value().result.render());
    }

    // Same answers, fewer bytes: the dictionary has to pay for its
    // complexity on exactly this symbol-heavy warm sequence.
    EXPECT_LT(v2.wireStats().bytesReceived,
              v1.wireStats().bytesReceived);
    EXPECT_GT(v2.wireStats().framesReceived, 0u);
}

// -------------------------------------------------- frame corruption

TEST_F(Protocol2Test, TruncatedFrameHeaderAtEofDrawsGoaway)
{
    startServer();
    std::optional<RawV2> v2 = handshake();
    ASSERT_TRUE(v2.has_value());

    // Three bytes of a header, then half-close: the server can never
    // complete the frame.
    ASSERT_TRUE(v2->conn.sendRaw(std::string("\x03\x00\x00", 3)));
    v2->conn.shutdownWrite();
    expectGoaway(v2->conn, "mid-frame");
    EXPECT_GE(server_->stats().protocolErrors, 1u);
}

TEST_F(Protocol2Test, InsaneFrameLengthDrawsGoaway)
{
    startServer();
    std::optional<RawV2> v2 = handshake();
    ASSERT_TRUE(v2.has_value());

    // A hand-built header claiming a 2 GiB payload: not skippable,
    // the stream itself is desynchronized.
    const std::uint32_t length = 1u << 31;
    std::string header;
    for (int i = 0; i < 4; ++i)
        header.push_back(
            static_cast<char>((length >> (8 * i)) & 0xff));
    header.push_back(
        static_cast<char>(wire::FrameType::Request)); // type
    header.push_back(static_cast<char>(wire::kFlagEndStream));
    header += std::string("\x01\x00\x00\x00", 4); // stream 1
    ASSERT_TRUE(v2->conn.sendRaw(header));
    expectGoaway(v2->conn, "sane limit");
}

TEST_F(Protocol2Test, BogusStreamIdsDrawGoaway)
{
    startServer();

    // Even stream id: reserved for the server, a client using it has
    // lost the plot.
    std::optional<RawV2> even = handshake();
    ASSERT_TRUE(even.has_value());
    ASSERT_TRUE(sendRequestFrame(*even, 2, Method::Health,
                                 JsonValue::makeObject()));
    expectGoaway(even->conn, "bogus request stream id");

    // Non-increasing id after a legitimate exchange.
    std::optional<RawV2> stale = handshake();
    ASSERT_TRUE(stale.has_value());
    ASSERT_TRUE(sendRequestFrame(*stale, 5, Method::Health,
                                 JsonValue::makeObject()));
    std::optional<RawResponse> ok = readResponse(*stale, 5);
    ASSERT_TRUE(ok.has_value());
    EXPECT_FALSE(ok->isError);
    ASSERT_TRUE(sendRequestFrame(*stale, 3, Method::Health,
                                 JsonValue::makeObject()));
    expectGoaway(stale->conn, "bogus request stream id");
}

TEST_F(Protocol2Test, DictionaryDesyncAnswersOnStreamThenGoaway)
{
    startServer();
    std::optional<RawV2> v2 = handshake();
    ASSERT_TRUE(v2.has_value());

    // A request whose params reference dictionary entry 200000 — far
    // past anything inserted. The server reports the offset on the
    // stream, then tears the connection down because its receive
    // table can no longer be trusted to match ours.
    std::string payload;
    payload.push_back(
        static_cast<char>(methodWireByte(Method::Analyze)));
    payload.push_back(static_cast<char>(kPriorityNormal));
    putVarint(payload, 0); // deadline
    payload.push_back('\x01');
    putVarint(payload, 200000);
    std::string frame;
    wire::appendFrame(frame, wire::FrameType::Request,
                      wire::kFlagEndStream, 1, payload);
    ASSERT_TRUE(v2->conn.sendRaw(frame));

    std::optional<RawResponse> response = readResponse(*v2, 1);
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(response->isError);
    const ErrorInfo error = parseErrorObject(response->body);
    EXPECT_EQ(error.code, ErrorCode::ProtocolError);
    EXPECT_GT(error.offset, 0u);
    expectGoaway(v2->conn, "undecodable");
    EXPECT_GE(server_->stats().protocolErrors, 1u);
}

TEST_F(Protocol2Test, OversizedRequestFrameIsSkippedRecoverably)
{
    ServerConfig config;
    config.maxLineBytes = 512;
    startServer(config);
    std::optional<RawV2> v2 = handshake();
    ASSERT_TRUE(v2.has_value());

    // Sanely framed but over the request limit. All digits — no
    // dictionary instructions — so neither side's table moves and the
    // connection stays usable after the skip.
    std::string payload;
    payload.push_back(
        static_cast<char>(methodWireByte(Method::Analyze)));
    payload.push_back(static_cast<char>(kPriorityNormal));
    putVarint(payload, 0);
    payload += "{\"n\":" + std::string(2000, '1') + "}";
    std::string frame;
    wire::appendFrame(frame, wire::FrameType::Request,
                      wire::kFlagEndStream, 1, payload);
    ASSERT_TRUE(v2->conn.sendRaw(frame));

    std::optional<RawResponse> rejected = readResponse(*v2, 1);
    ASSERT_TRUE(rejected.has_value());
    EXPECT_TRUE(rejected->isError);
    const ErrorInfo error = parseErrorObject(rejected->body);
    EXPECT_EQ(error.code, ErrorCode::ProtocolError);
    EXPECT_NE(error.message.find("exceeds"), std::string::npos);

    // Same connection, next stream: a well-formed request succeeds.
    JsonValue params = JsonValue::makeObject();
    params.set("corpus", JsonValue(corpusPath_));
    ASSERT_TRUE(sendRequestFrame(*v2, 3, Method::Ingest, params));
    std::optional<RawResponse> accepted = readResponse(*v2, 3);
    ASSERT_TRUE(accepted.has_value());
    EXPECT_FALSE(accepted->isError);
    EXPECT_TRUE(accepted->body.isObject());
    EXPECT_GE(server_->stats().protocolErrors, 1u);
}

// --------------------------------------------- span-context corruption

TEST_F(Protocol2Test, EscapingSpanContextLengthIsRejectedRecoverably)
{
    startServer();
    std::optional<RawV2> v2 = handshake(/*tracing=*/true);
    ASSERT_TRUE(v2.has_value());

    // Length byte claiming 200 bytes of context — over the 64-byte
    // cap. The length cannot locate the params, so this request (and
    // only this request) is rejected; nothing touched either
    // dictionary, so the connection stays usable.
    std::string oversized;
    oversized.push_back(static_cast<char>(200));
    oversized += std::string(200, '\x00');
    {
        // Params appended raw (no dict instructions) so the mirror
        // table does not advance on a request the server never
        // dict-decodes.
        std::string payload;
        payload.push_back(
            static_cast<char>(methodWireByte(Method::Health)));
        payload.push_back(static_cast<char>(kPriorityNormal));
        putVarint(payload, 0);
        payload += oversized;
        std::string frame;
        wire::appendFrame(frame, wire::FrameType::Request,
                          wire::kFlagEndStream, 1, payload);
        ASSERT_TRUE(v2->conn.sendRaw(frame));
    }
    std::optional<RawResponse> rejected = readResponse(*v2, 1);
    ASSERT_TRUE(rejected.has_value());
    EXPECT_TRUE(rejected->isError);
    const ErrorInfo error = parseErrorObject(rejected->body);
    EXPECT_EQ(error.code, ErrorCode::ProtocolError);
    EXPECT_NE(error.message.find("span-context"), std::string::npos);

    // A length byte that outruns the frame itself takes the same
    // per-request path.
    {
        std::string payload;
        payload.push_back(
            static_cast<char>(methodWireByte(Method::Health)));
        payload.push_back(static_cast<char>(kPriorityNormal));
        putVarint(payload, 0);
        payload.push_back(static_cast<char>(50));
        payload += "ab"; // only 2 of the claimed 50 bytes exist
        std::string frame;
        wire::appendFrame(frame, wire::FrameType::Request,
                          wire::kFlagEndStream, 3, payload);
        ASSERT_TRUE(v2->conn.sendRaw(frame));
    }
    std::optional<RawResponse> truncated = readResponse(*v2, 3);
    ASSERT_TRUE(truncated.has_value());
    EXPECT_TRUE(truncated->isError);
    EXPECT_EQ(parseErrorObject(truncated->body).code,
              ErrorCode::ProtocolError);

    // Same connection, next stream: a request with an empty context
    // field succeeds — no GOAWAY was drawn.
    ASSERT_TRUE(sendRequestFrameWithRawContext(
        *v2, 5, Method::Health, JsonValue::makeObject(),
        std::string(1, '\x00')));
    std::optional<RawResponse> healthy = readResponse(*v2, 5);
    ASSERT_TRUE(healthy.has_value());
    EXPECT_FALSE(healthy->isError);
    EXPECT_GE(server_->stats().protocolErrors, 2u);
}

TEST_F(Protocol2Test, MalformedSpanContextContentIsDroppedSilently)
{
    startServer();
    std::optional<RawV2> v2 = handshake(/*tracing=*/true);
    ASSERT_TRUE(v2.has_value());

    // Content that cannot parse (an unterminated varint): the length
    // still locates the params, so the request proceeds without a
    // context instead of failing.
    std::string garbage;
    garbage.push_back(static_cast<char>(3));
    garbage += "\xff\xff\xff";
    ASSERT_TRUE(sendRequestFrameWithRawContext(
        *v2, 1, Method::Health, JsonValue::makeObject(), garbage));
    std::optional<RawResponse> first = readResponse(*v2, 1);
    ASSERT_TRUE(first.has_value());
    EXPECT_FALSE(first->isError);

    // A zero trace id means "no context" — also dropped, also fine.
    std::string zeroId;
    {
        std::string ctx;
        putVarint(ctx, 0); // trace id 0
        putVarint(ctx, 77);
        ctx.push_back('\x01');
        zeroId.push_back(static_cast<char>(ctx.size()));
        zeroId += ctx;
    }
    ASSERT_TRUE(sendRequestFrameWithRawContext(
        *v2, 3, Method::Health, JsonValue::makeObject(), zeroId));
    std::optional<RawResponse> second = readResponse(*v2, 3);
    ASSERT_TRUE(second.has_value());
    EXPECT_FALSE(second->isError);
    EXPECT_EQ(server_->stats().protocolErrors, 0u);
}

TEST_F(Protocol2Test, SamplingFlagFuzzAndTrailingBytesAreTolerated)
{
    // Recording starts before the daemon, so the handler runs inside a
    // lifetime pool.worker span (two workers: the pool path even on a
    // 1-thread host) and the propagated parent must still win.
    Telemetry::setEnabled(true);
    Telemetry::reset();
    ServerConfig config;
    config.workers = 2;
    startServer(config);
    std::optional<RawV2> v2 = handshake(/*tracing=*/true);
    ASSERT_TRUE(v2.has_value());

    // Flag byte 0x7f (any nonzero means sampled) and trailing bytes
    // past the flag (a future revision's extension) must both be
    // tolerated, and the trace id must still reach the server's
    // request span.
    const std::uint64_t traceId = 0x5a5a5a5a5a5a5a5aull;
    std::string ctx;
    putVarint(ctx, traceId);
    putVarint(ctx, 0x1234);
    ctx.push_back('\x7f');
    ctx += "future-extension";
    std::string field;
    field.push_back(static_cast<char>(ctx.size()));
    field += ctx;

    JsonValue params = JsonValue::makeObject();
    params.set("ms", JsonValue(1));
    ASSERT_TRUE(sendRequestFrameWithRawContext(*v2, 1, Method::Sleep,
                                               params, field));
    std::optional<RawResponse> response = readResponse(*v2, 1);
    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(response->isError);

    // The server runs in-process, so its spans are directly visible.
    // The request span commits only after the response is sent, so
    // poll briefly instead of racing the worker thread.
    bool found = false;
    const auto pollStart = steady_clock::now();
    while (!found && msSince(pollStart) < 2000) {
        for (const SpanSnapshot &span : Telemetry::snapshotSpans()) {
            if (span.name == "server.request" &&
                span.traceId == traceId) {
                EXPECT_EQ(span.parentSpanId, 0x1234u);
                found = true;
            }
        }
        if (!found)
            ::usleep(10'000);
    }
    EXPECT_TRUE(found) << "no server.request span carried the "
                          "propagated trace id";
    Telemetry::setEnabled(false);
    Telemetry::reset();
}

TEST_F(Protocol2Test, NoTracingPeerInteropsWithoutContextField)
{
    startServer();

    // Typed session that opted out: negotiation must land on "no
    // tracing" against a server that advertises it, and requests —
    // which then carry no span-context field — must work.
    SessionOptions quiet;
    quiet.tracing = false;
    Session session = connect(quiet);
    ASSERT_EQ(session.protocolVersion(), kProtocolVersionV2);
    EXPECT_FALSE(session.tracingNegotiated());
    Expected<Response> health = session.health();
    ASSERT_TRUE(health.ok()) << health.error().render();
    EXPECT_TRUE(health.value().ok);

    // The default session negotiates tracing against the same server.
    Session tracing = connect();
    EXPECT_TRUE(tracing.tracingNegotiated());
    Expected<Response> traced = tracing.health();
    ASSERT_TRUE(traced.ok()) << traced.error().render();
    EXPECT_TRUE(traced.value().ok);
    EXPECT_EQ(server_->stats().protocolErrors, 0u);
}

TEST_F(Protocol2Test, SessionCallOptionsPropagateTraceContext)
{
    // As above: recording on before start, two pool workers.
    Telemetry::setEnabled(true);
    Telemetry::reset();
    ServerConfig config;
    config.workers = 2;
    startServer(config);

    Session session = connect();
    ASSERT_TRUE(session.tracingNegotiated());
    CallOptions options;
    options.traceContext.traceId = 0xfeedfacecafef00dull;
    options.traceContext.parentSpanId = 0xbeef;
    options.traceContext.sampled = true;
    SleepRequest nap;
    nap.ms = 1;
    Expected<Response> response =
        session.call(Method::Sleep, nap.toParams(), options);
    ASSERT_TRUE(response.ok()) << response.error().render();
    EXPECT_TRUE(response.value().ok);

    // The propagated context must round-trip through the server's
    // span buffer — checked over the wire via `telemetry_pull`, the
    // same pull the coordinator's stitcher uses. The request span
    // commits only after the response is sent, so poll briefly.
    bool found = false;
    const auto pollStart = steady_clock::now();
    while (!found && msSince(pollStart) < 2000) {
        Expected<Response> pulled = session.call(
            Method::TelemetryPull, JsonValue::makeObject(), {});
        ASSERT_TRUE(pulled.ok()) << pulled.error().render();
        ASSERT_TRUE(pulled.value().ok);
        const NodeSpans node = parseNodeSpans(pulled.value().result);
        EXPECT_NE(node.node.find("worker"), std::string::npos);
        for (const SpanSnapshot &span : node.spans) {
            if (span.traceId == 0xfeedfacecafef00dull &&
                span.name == "server.request") {
                EXPECT_EQ(span.parentSpanId, 0xbeefu);
                EXPECT_NE(span.spanId, 0u);
                found = true;
            }
        }
        if (!found)
            ::usleep(10'000);
    }
    EXPECT_TRUE(found)
        << "telemetry_pull returned no span with the sent trace id";
    Telemetry::setEnabled(false);
    Telemetry::reset();
}

// ------------------------------------- flow control and multiplexing

TEST_F(Protocol2Test, TinyWindowsChunkResponsesWithoutChangingThem)
{
    startServer();
    Session roomy = connect();
    Expected<Response> expected = roomy.analyze(analyzeRequest(50));
    ASSERT_TRUE(expected.ok()) << expected.error().render();
    ASSERT_TRUE(expected.value().ok);

    // Small enough that even this corpus's modest analyze result must
    // span several frames and outrun the initial window.
    SessionOptions tiny;
    tiny.initialWindow = 128;
    tiny.maxFramePayload = 64;
    Session narrow = connect(tiny);
    ASSERT_EQ(narrow.protocolVersion(), kProtocolVersionV2);
    Expected<Response> got = narrow.analyze(analyzeRequest(50));
    ASSERT_TRUE(got.ok()) << got.error().render();
    ASSERT_TRUE(got.value().ok);

    // Byte-identical result, many more frames: the response was
    // chunked to the advertised payload limit and re-credited window
    // by window.
    EXPECT_EQ(got.value().result.render(),
              expected.value().result.render());
    EXPECT_GT(narrow.wireStats().framesReceived,
              roomy.wireStats().framesReceived);
    EXPECT_GT(narrow.wireStats().framesSent,
              roomy.wireStats().framesSent); // window updates
}

TEST_F(Protocol2Test, InteractiveRequestsOvertakeQueuedBulk)
{
    ServerConfig config;
    config.workers = 1; // force a queue so scheduling order shows
    startServer(config);
    Session session = connect();
    ASSERT_EQ(session.protocolVersion(), kProtocolVersionV2);

    SleepRequest blocker;
    blocker.ms = 100;
    Expected<std::uint64_t> blockerHandle =
        session.send(Method::Sleep, blocker.toParams(), {});
    ASSERT_TRUE(blockerHandle.ok());

    CallOptions bulk;
    bulk.priority = kPriorityBulk;
    SleepRequest slow;
    slow.ms = 400;
    std::vector<std::uint64_t> bulkHandles;
    for (int i = 0; i < 3; ++i) {
        Expected<std::uint64_t> handle =
            session.send(Method::Sleep, slow.toParams(), bulk);
        ASSERT_TRUE(handle.ok());
        bulkHandles.push_back(handle.value());
    }

    CallOptions interactive;
    interactive.priority = kPriorityInteractive;
    SleepRequest fast;
    fast.ms = 1;
    Expected<std::uint64_t> fastHandle =
        session.send(Method::Sleep, fast.toParams(), interactive);
    ASSERT_TRUE(fastHandle.ok());

    // The interactive request was queued *behind* three 400 ms bulk
    // requests; the priority scheduler must run it right after the
    // 100 ms blocker. FIFO would take >= 1.3 s.
    const auto start = steady_clock::now();
    Expected<Response> response = session.wait(fastHandle.value());
    const std::uint64_t elapsed = msSince(start);
    ASSERT_TRUE(response.ok()) << response.error().render();
    EXPECT_TRUE(response.value().ok);
    EXPECT_LT(elapsed, 900u);

    for (std::uint64_t handle : bulkHandles) {
        Expected<Response> drained = session.wait(handle);
        ASSERT_TRUE(drained.ok());
        EXPECT_TRUE(drained.value().ok);
    }
    Expected<Response> first = session.wait(blockerHandle.value());
    ASSERT_TRUE(first.ok());
    EXPECT_TRUE(first.value().ok);
}

TEST_F(Protocol2Test, PipelinedStatsIsNotBlockedBehindSlowWork)
{
    startServer();
    Session session = connect();
    ASSERT_EQ(session.protocolVersion(), kProtocolVersionV2);

    SleepRequest nap;
    nap.ms = 500;
    Expected<std::uint64_t> napHandle =
        session.send(Method::Sleep, nap.toParams(), {});
    ASSERT_TRUE(napHandle.ok());

    // stats answers on its own stream while the sleep is still
    // occupying a worker — no head-of-line blocking.
    const auto start = steady_clock::now();
    Expected<Response> stats = session.stats();
    const std::uint64_t elapsed = msSince(start);
    ASSERT_TRUE(stats.ok()) << stats.error().render();
    EXPECT_TRUE(stats.value().ok);
    EXPECT_LT(elapsed, 250u);

    Expected<Response> napped = session.wait(napHandle.value());
    ASSERT_TRUE(napped.ok()) << napped.error().render();
    EXPECT_TRUE(napped.value().ok);
    EXPECT_NE(napped.value().result.render().find("slept_ms"),
              std::string::npos);
}

} // namespace
} // namespace server
} // namespace tracelens
