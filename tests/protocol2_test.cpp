/**
 * @file
 * Protocol-v2 tests (src/server/wire.h, the Session handshake in
 * src/server/client.cpp, and the frame path in src/server/server.cpp):
 * the transport-free codecs against hostile bytes, frame-level
 * corruption (truncated headers, insane lengths, bogus stream ids,
 * dictionary desync), symbol-dictionary round-trips on seeded-corpus
 * results, flow-control chunking, priority scheduling, and
 * pipelining. Built into the "server" ctest label next to
 * server_test.cpp so all of it runs under both sanitizers (ctest
 * --preset asan-server / tsan-server).
 */

#include <unistd.h>

#include <chrono>
#include <cstdint>
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
#include "tests/server_fixture.h"

namespace tracelens
{
namespace server
{
namespace
{

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

using Protocol2Test = DaemonTest;

TEST_F(Protocol2Test, ReportsAreByteIdenticalAcrossProtocols)
{
    startServer();
    Session session = connect();

    ImpactRequest impact;
    impact.corpus = corpusPath_;

    // Rep 1 on one session transits every symbol literally; reps 2-3
    // on the same session exercise the dictionary's warm path
    // (references instead of inserts) on real seeded-corpus symbol
    // strings, and must still decode to rep 1's exact bytes.
    Expected<Response> firstAnalyze = session.analyze(analyzeRequest(20));
    Expected<Response> firstImpact = session.impact(impact);
    ASSERT_TRUE(firstAnalyze.ok() && firstImpact.ok());
    ASSERT_TRUE(firstAnalyze.value().ok && firstImpact.value().ok);
    const std::string analyzeBytes = firstAnalyze.value().result.render();
    const std::string impactBytes = firstImpact.value().result.render();
    for (int rep = 1; rep < 3; ++rep) {
        Expected<Response> a = session.analyze(analyzeRequest(20));
        Expected<Response> i = session.impact(impact);
        ASSERT_TRUE(a.ok() && i.ok());
        ASSERT_TRUE(a.value().ok && i.value().ok);
        EXPECT_EQ(a.value().result.render(), analyzeBytes);
        EXPECT_EQ(i.value().result.render(), impactBytes);
    }

    // A fresh session starts from an empty dictionary: its first
    // answer must decode to the same bytes too.
    Session fresh = connect();
    Expected<Response> again = fresh.analyze(analyzeRequest(20));
    ASSERT_TRUE(again.ok() && again.value().ok);
    EXPECT_EQ(again.value().result.render(), analyzeBytes);

    // Same answers, fewer bytes: the dictionary has to pay for its
    // complexity on exactly this symbol-heavy warm sequence, so the
    // wire carries less than the rendered results it delivered.
    const std::uint64_t rendered =
        3 * (analyzeBytes.size() + impactBytes.size());
    EXPECT_LT(session.wireStats().bytesReceived, rendered);
    EXPECT_GT(session.wireStats().framesReceived, 0u);
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
    auto sendOversized = [&](std::uint32_t stream) {
        std::string payload;
        payload.push_back(
            static_cast<char>(methodWireByte(Method::Analyze)));
        payload.push_back(static_cast<char>(kPriorityNormal));
        putVarint(payload, 0);
        payload += "{\"n\":" + std::string(2000, '1') + "}";
        std::string frame;
        wire::appendFrame(frame, wire::FrameType::Request,
                          wire::kFlagEndStream, stream, payload);
        return v2->conn.sendRaw(frame);
    };
    // The error's offset is where the offending frame starts on the
    // connection: everything this client sent before it.
    const std::uint64_t firstStart = v2->conn.bytesSent();
    ASSERT_TRUE(sendOversized(1));

    std::optional<RawResponse> rejected = readResponse(*v2, 1);
    ASSERT_TRUE(rejected.has_value());
    EXPECT_TRUE(rejected->isError);
    const ErrorInfo error = parseErrorObject(rejected->body);
    EXPECT_EQ(error.code, ErrorCode::ProtocolError);
    EXPECT_NE(error.message.find("exceeds"), std::string::npos);
    EXPECT_EQ(error.offset, firstStart);
    EXPECT_GT(error.offset, 0u);

    // Same connection, next stream: a well-formed request succeeds.
    JsonValue params = JsonValue::makeObject();
    params.set("corpus", JsonValue(corpusPath_));
    ASSERT_TRUE(sendRequestFrame(*v2, 3, Method::Ingest, params));
    std::optional<RawResponse> accepted = readResponse(*v2, 3);
    ASSERT_TRUE(accepted.has_value());
    EXPECT_FALSE(accepted->isError);
    EXPECT_TRUE(accepted->body.isObject());

    // A second violation further into the connection reports its own,
    // larger offset, and the connection still recovers.
    const std::uint64_t secondStart = v2->conn.bytesSent();
    ASSERT_TRUE(sendOversized(5));
    std::optional<RawResponse> again = readResponse(*v2, 5);
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(again->isError);
    const ErrorInfo secondError = parseErrorObject(again->body);
    EXPECT_EQ(secondError.code, ErrorCode::ProtocolError);
    EXPECT_EQ(secondError.offset, secondStart);
    EXPECT_GT(secondError.offset, error.offset);
    ASSERT_TRUE(sendRequestFrame(*v2, 7, Method::Health,
                                 JsonValue::makeObject()));
    std::optional<RawResponse> healthy = readResponse(*v2, 7);
    ASSERT_TRUE(healthy.has_value());
    EXPECT_FALSE(healthy->isError);
    EXPECT_EQ(server_->stats().protocolErrors, 2u);
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
    // Recording starts before the daemon, which runs two request
    // workers, and the propagated parent must win on whichever worker
    // takes the request.
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
