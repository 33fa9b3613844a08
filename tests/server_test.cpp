/**
 * @file
 * Tests for the analysis service (src/server/): request handling
 * against hostile input (malformed params, unknown methods, oversized
 * and half-closed connections, clients vanishing mid-response), the
 * refusal of the retired JSON-line protocol v1, backpressure and
 * deadline behaviour, the session registry's leak-freedom and its
 * bounded response cache, warm-query serving from the results the
 * Analyzer keeps (asserted via stage-span outcomes), and graceful
 * drain. Frame-level corruption and multiplexing live in
 * tests/protocol2_test.cpp; this file drives the daemon through the
 * typed Session API and through raw frames (tests/server_fixture.h).
 * Built into the "server" ctest label so the whole file runs under
 * both sanitizers (ctest --preset asan-server / tsan-server).
 */

#include <chrono>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/trace/serialize.h"
#include "src/util/json.h"
#include "src/util/telemetry.h"
#include "src/workload/generator.h"
#include "tests/server_fixture.h"

namespace tracelens
{
namespace server
{
namespace
{

using ServerTest = DaemonTest;

/** {"ms": @p ms} — the test-only sleep method's params. */
JsonValue
sleepParams(double ms)
{
    SleepRequest request;
    request.ms = ms;
    return request.toParams();
}

TEST_F(ServerTest, HealthReportsProtocolVersions)
{
    startServer();
    Session session = connect();
    Expected<Response> response = session.health();
    ASSERT_TRUE(response.ok()) << response.error().render();
    ASSERT_TRUE(response.value().ok);
    const JsonValue *protocol =
        response.value().result.find("protocol");
    ASSERT_NE(protocol, nullptr);
    EXPECT_EQ(protocol->asNumber(), kProtocolVersion);
    const JsonValue *protocols =
        response.value().result.find("protocols");
    ASSERT_NE(protocols, nullptr);
    ASSERT_TRUE(protocols->isArray());
    ASSERT_EQ(protocols->asArray().size(), 1u);
    EXPECT_EQ(protocols->asArray()[0].asNumber(), kProtocolVersionV2);
}

TEST_F(ServerTest, MalformedJsonAnswersBadRequestAndKeepsConnection)
{
    startServer();
    std::optional<RawV2> v2 = handshake();
    ASSERT_TRUE(v2.has_value());

    // Request params that are not a JSON object, carried in otherwise
    // well-formed request frames: each answers bad_request on its own
    // stream, and the connection stays open.
    std::vector<std::string> garbage = {
        "not json at all", "{\"method\":}",   "[1,2,3]",
        "7",               "\"a string\"",    "{\"unterminated\":\"",
    };
    // Deeply nested input must be depth-limited, not stack-overflowed.
    garbage.push_back(std::string(20000, '['));
    std::uint32_t stream = 1;
    for (const std::string &params : garbage) {
        ASSERT_TRUE(sendRawRequest(*v2, stream,
                                   methodWireByte(Method::Analyze), {},
                                   params));
        std::optional<RawResponse> reply = readResponse(*v2, stream);
        ASSERT_TRUE(reply.has_value()) << "for params: " << params;
        EXPECT_TRUE(reply->isError);
        EXPECT_EQ(parseErrorObject(reply->body).code,
                  ErrorCode::BadRequest)
            << "for params: " << params.substr(0, 40);
        stream += 2;
    }

    // The connection survived all of it.
    ASSERT_TRUE(sendRequestFrame(*v2, stream, Method::Health,
                                 JsonValue::makeObject()));
    std::optional<RawResponse> health = readResponse(*v2, stream);
    ASSERT_TRUE(health.has_value());
    EXPECT_FALSE(health->isError);
    EXPECT_EQ(server_->stats().protocolErrors, 0u);
}

TEST_F(ServerTest, ProtocolV1IsRefusedInBothDirections)
{
    startServer();

    // A v1 client opens with a JSON request line instead of the
    // preface: the server answers one GOAWAY naming the retired
    // protocol and hangs up.
    RawConn v1 = connectRaw();
    JsonValue request = JsonValue::makeObject();
    request.set("id", JsonValue(1));
    request.set("method", JsonValue("health"));
    ASSERT_TRUE(v1.sendRaw(request.render() + "\n"));
    expectGoaway(v1, "protocol v1");
    EXPECT_EQ(server_->stats().protocolErrors, 1u);

    // The daemon itself is unaffected: a v2 session on it answers.
    Session session = connect();
    Expected<Response> health = session.health();
    ASSERT_TRUE(health.ok()) << health.error().render();
    EXPECT_TRUE(health.value().ok);

    // The other direction: a peer that answers the preface with a
    // JSON line (what a v1-only daemon sent) fails connect() with an
    // error, well within the session's read timeout.
    ScriptedPeer oldServer([](int fd) {
        if (recvExact(fd, wire::kPreface.size() + 1))
            sendAll(fd, "{\"ok\":false,\"error\":{\"code\":"
                        "\"bad_request\",\"message\":\"parse "
                        "error\"}}\n");
    });
    SessionOptions options;
    options.ioTimeout = std::chrono::milliseconds(3000);
    const auto start = std::chrono::steady_clock::now();
    Expected<Session> refused =
        Session::connect("127.0.0.1", oldServer.port(), options);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_FALSE(refused.ok());
    EXPECT_NE(refused.error().render().find("SETTINGS"),
              std::string::npos)
        << refused.error().render();
    EXPECT_LT(elapsed, options.ioTimeout);
}

TEST_F(ServerTest, UnknownMethodAndUnknownCorpusAnswerNotFound)
{
    startServer();
    Session session = connect();

    // A method byte past the vocabulary answers not_found on its
    // stream and keeps the connection.
    std::optional<RawV2> raw = handshake();
    ASSERT_TRUE(raw.has_value());
    ASSERT_TRUE(sendRawRequest(*raw, 1, 200, {}, "{}"));
    std::optional<RawResponse> unknown = readResponse(*raw, 1);
    ASSERT_TRUE(unknown.has_value());
    EXPECT_TRUE(unknown->isError);
    const ErrorInfo error = parseErrorObject(unknown->body);
    EXPECT_EQ(error.code, ErrorCode::NotFound);
    EXPECT_NE(error.message.find("unknown method byte 200"),
              std::string::npos)
        << error.message;
    ASSERT_TRUE(
        sendRequestFrame(*raw, 3, Method::Health, JsonValue::makeObject()));
    std::optional<RawResponse> health = readResponse(*raw, 3);
    ASSERT_TRUE(health.has_value());
    EXPECT_FALSE(health->isError);

    IngestRequest missing;
    missing.corpus = (scratch_->path() / "nope.tlc").string();
    Expected<Response> corpus = session.ingest(missing);
    ASSERT_TRUE(corpus.ok());
    EXPECT_FALSE(corpus.value().ok);
    EXPECT_EQ(corpus.value().error.code, ErrorCode::NotFound);

    AnalyzeRequest bad = analyzeRequest();
    bad.scenario = "NoSuchScenario";
    bad.tfastMs = 100;
    bad.tslowMs = 200;
    Expected<Response> scenario = session.analyze(bad);
    ASSERT_TRUE(scenario.ok());
    EXPECT_FALSE(scenario.value().ok);
    EXPECT_EQ(scenario.value().error.code, ErrorCode::NotFound);
}

TEST_F(ServerTest, WarmQueriesAreServedFromTheAnalyzer)
{
    startServer();
    Session session = connect();

    Telemetry::setEnabled(true);
    Telemetry::reset();

    // Cold: every pipeline stage builds (outcome "miss").
    Expected<Response> cold = session.analyze(analyzeRequest(3));
    ASSERT_TRUE(cold.ok()) << cold.error().render();
    ASSERT_TRUE(cold.value().ok) << cold.value().error.message;
    const std::string coldTrace = Telemetry::renderChromeTrace();
    EXPECT_NE(coldTrace.find("stage."), std::string::npos);
    EXPECT_NE(coldTrace.find("\"outcome\": \"miss\""),
              std::string::npos)
        << coldTrace;

    // Warm, different params (top=5): a different response-cache key
    // but the same thresholds — every stage the pipeline re-enters
    // must be served from the scenario's slot, nothing recomputed.
    Telemetry::reset();
    Expected<Response> warm = session.analyze(analyzeRequest(5));
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(warm.value().ok);
    const std::string warmTrace = Telemetry::renderChromeTrace();
    EXPECT_NE(warmTrace.find("stage."), std::string::npos);
    EXPECT_EQ(warmTrace.find("\"outcome\": \"miss\""),
              std::string::npos)
        << warmTrace;

    // Warm, identical params: the rendered response itself is cached;
    // the pipeline is not re-entered at all.
    Telemetry::reset();
    Expected<Response> repeat = session.analyze(analyzeRequest(5));
    ASSERT_TRUE(repeat.ok());
    ASSERT_TRUE(repeat.value().ok);
    const std::string repeatTrace = Telemetry::renderChromeTrace();
    EXPECT_EQ(repeatTrace.find("stage."), std::string::npos);
    EXPECT_NE(repeatTrace.find("server.response-cache-hit"),
              std::string::npos);
    EXPECT_EQ(repeat.value().result.render(),
              warm.value().result.render());
    Telemetry::setEnabled(false);
    Telemetry::reset();
}

TEST_F(ServerTest, BackpressureRejectsBeyondMaxInflight)
{
    ServerConfig config;
    config.workers = 1;
    config.maxInflight = 1;
    startServer(config);

    // First request occupies the single worker and the single
    // inflight slot...
    Session busy = connect();
    Expected<std::uint64_t> sleeper =
        busy.send(Method::Sleep, sleepParams(500));
    ASSERT_TRUE(sleeper.ok()) << sleeper.error().render();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // ...so a second is rejected with "overloaded" immediately, from
    // the reader thread, without queueing behind the sleeper.
    Session rejected = connect();
    SleepRequest sleepShort;
    sleepShort.ms = 1;
    const auto start = std::chrono::steady_clock::now();
    Expected<Response> response = rejected.sleep(sleepShort);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(response.ok()) << response.error().render();
    EXPECT_FALSE(response.value().ok);
    EXPECT_EQ(response.value().error.code, ErrorCode::Overloaded);
    EXPECT_LT(elapsed, std::chrono::milliseconds(400));

    // Control-plane methods still answer while the queue is full.
    Expected<Response> health = rejected.health();
    ASSERT_TRUE(health.ok());
    EXPECT_TRUE(health.value().ok);

    // The sleeper finishes normally.
    Expected<Response> done = busy.wait(sleeper.value());
    ASSERT_TRUE(done.ok()) << done.error().render();
    ASSERT_TRUE(done.value().ok);
    EXPECT_NE(done.value().result.find("slept_ms"), nullptr);
    EXPECT_GE(server_->stats().rejected, 1u);
}

TEST_F(ServerTest, DeadlinesCancelCooperatively)
{
    ServerConfig config;
    config.workers = 1;
    startServer(config);
    Session session = connect();

    // In-handler expiry: the sleep loop checks the deadline and stops
    // early instead of burning the full second.
    SleepRequest longSleep;
    longSleep.ms = 1000;
    CallOptions tight;
    tight.deadlineMs = 50;
    const auto start = std::chrono::steady_clock::now();
    Expected<Response> response = session.sleep(longSleep, tight);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(response.ok()) << response.error().render();
    EXPECT_FALSE(response.value().ok);
    EXPECT_EQ(response.value().error.code,
              ErrorCode::DeadlineExceeded);
    EXPECT_LT(elapsed, std::chrono::milliseconds(800));

    // Queue-wait expiry: a request whose deadline elapses while a
    // long request holds the only worker is answered at dequeue, not
    // run.
    Session blocker = connect();
    Expected<std::uint64_t> blocking =
        blocker.send(Method::Sleep, sleepParams(400));
    ASSERT_TRUE(blocking.ok()) << blocking.error().render();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    SleepRequest quick;
    quick.ms = 1;
    CallOptions queuedDeadline;
    queuedDeadline.deadlineMs = 100;
    Expected<Response> queued = session.sleep(quick, queuedDeadline);
    ASSERT_TRUE(queued.ok());
    EXPECT_FALSE(queued.value().ok);
    EXPECT_EQ(queued.value().error.code, ErrorCode::DeadlineExceeded);
    Expected<Response> done = blocker.wait(blocking.value());
    ASSERT_TRUE(done.ok()) << done.error().render();
    EXPECT_TRUE(done.value().ok);
}

TEST_F(ServerTest, HalfClosedSocketStillReceivesItsResponse)
{
    startServer();
    std::optional<RawV2> client = handshake();
    ASSERT_TRUE(client.has_value());
    IngestRequest ingest;
    ingest.corpus = corpusPath_;
    ASSERT_TRUE(
        sendRequestFrame(*client, 9, Method::Ingest, ingest.toParams()));
    client->conn.shutdownWrite(); // half-close: FIN sent, read side open

    std::optional<RawResponse> reply = readResponse(*client, 9);
    ASSERT_TRUE(reply.has_value());
    EXPECT_FALSE(reply->isError);
    EXPECT_NE(reply->body.find("shards"), nullptr);
}

TEST_F(ServerTest, ClientDisconnectMidResponseDoesNotCrashOrLeak)
{
    startServer();
    for (int i = 0; i < 5; ++i) {
        Session client = connect();
        ASSERT_TRUE(client.send(Method::Sleep, sleepParams(60)).ok());
        client.close(); // gone before the worker answers
    }
    // Workers must finish the orphaned requests, count the drops, and
    // release every session handle (checked in TearDown, after the
    // drain guarantees the workers retired them).
    Session probe = connect();
    for (int tries = 0; tries < 100; ++tries) {
        if (server_->stats().inflight == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(server_->stats().inflight, 0u);
    Expected<Response> health = probe.health();
    ASSERT_TRUE(health.ok());
    EXPECT_TRUE(health.value().ok);
}

TEST_F(ServerTest, ConcurrentClientsAllSucceed)
{
    ServerConfig config;
    config.workers = 4;
    startServer(config);

    constexpr int kClients = 8;
    constexpr int kRequests = 6;
    std::vector<int> failures(kClients, 0);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            SessionOptions options;
            options.ioTimeout = std::chrono::milliseconds(60000);
            Expected<Session> session =
                Session::connect("127.0.0.1", port_, options);
            if (!session.ok()) {
                failures[static_cast<std::size_t>(c)] = kRequests;
                return;
            }
            for (int r = 0; r < kRequests; ++r) {
                Expected<Response> response = [&]() {
                    if (r % 3 == 1) {
                        AnalyzeRequest request;
                        request.corpus = corpusPath_;
                        request.scenario = "BrowserTabCreate";
                        return session.value().analyze(request);
                    }
                    if (r % 3 == 2) {
                        ImpactRequest request;
                        request.corpus = corpusPath_;
                        return session.value().impact(request);
                    }
                    IngestRequest request;
                    request.corpus = corpusPath_;
                    return session.value().ingest(request);
                }();
                if (!response.ok() || !response.value().ok)
                    ++failures[static_cast<std::size_t>(c)];
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(failures[static_cast<std::size_t>(c)], 0)
            << "client " << c;

    // All clients hit ONE session (same path, same filter): the
    // concurrent first requests shared a single open.
    const RegistryStats registry = server_->registry().stats();
    EXPECT_EQ(registry.opened, 1u);
    EXPECT_GE(registry.reused,
              static_cast<std::uint64_t>(kClients * kRequests - 1));
    EXPECT_EQ(server_->stats().v2Connections,
              static_cast<std::uint64_t>(kClients));
}

TEST_F(ServerTest, ShutdownDrainsInflightRequestsFirst)
{
    startServer();
    Session client = connect();
    Expected<std::uint64_t> sleeper =
        client.send(Method::Sleep, sleepParams(150));
    ASSERT_TRUE(sleeper.ok()) << sleeper.error().render();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    server_->requestStop();
    // The admitted request still completes and is delivered.
    Expected<Response> reply = client.wait(sleeper.value());
    ASSERT_TRUE(reply.ok()) << reply.error().render();
    ASSERT_TRUE(reply.value().ok);
    EXPECT_NE(reply.value().result.find("slept_ms"), nullptr);

    server_->wait();
    EXPECT_TRUE(server_->stopped());
    EXPECT_EQ(server_->stats().inflight, 0u);
    EXPECT_GE(server_->stats().ok, 1u);
}

TEST_F(ServerTest, RegistryEvictionSurvivesConcurrentHandleChurn)
{
    // No daemon here: hammer the registry directly. A tiny resident
    // bound plus a zero idle timeout makes eviction fire constantly
    // while handles are being acquired and released, which is exactly
    // the race the ref-counting must survive (run under tsan-server).
    RegistryConfig config;
    config.maxSessions = 1;
    config.idleTimeout = std::chrono::seconds(0);
    SessionRegistry registry(config);

    // A second corpus so the LRU bound actually evicts.
    const std::string otherPath =
        (scratch_->path() / "other.tlc").string();
    CorpusSpec spec;
    spec.machines = 2;
    spec.seed = 99;
    writeCorpusFile(generateCorpus(spec), otherPath);

    constexpr int kThreads = 4;
    constexpr int kIterations = 40;
    std::vector<std::thread> churn;
    churn.reserve(kThreads + 1);
    for (int t = 0; t < kThreads; ++t) {
        churn.emplace_back([&, t] {
            for (int i = 0; i < kIterations; ++i) {
                const std::string &path =
                    ((t + i) % 2 == 0) ? corpusPath_ : otherPath;
                Expected<SessionRegistry::Handle> handle =
                    registry.acquire(path);
                ASSERT_TRUE(handle.ok())
                    << handle.error().render();
                // Touch the session while eviction races us: the
                // handle pins it, so this can never dangle.
                EXPECT_FALSE(
                    handle.value()->ingestInfo().describe.empty());
            }
        });
    }
    churn.emplace_back([&] {
        for (int i = 0; i < kThreads * kIterations; ++i) {
            registry.evictIdle();
            std::this_thread::yield();
        }
    });
    for (std::thread &t : churn)
        t.join();

    const RegistryStats stats = registry.stats();
    EXPECT_EQ(stats.activeHandles, 0u);
    EXPECT_LE(stats.openSessions, config.maxSessions);
    EXPECT_GE(stats.evicted, 1u)
        << "zero idle timeout + LRU bound of one must have evicted";
    registry.evictAll();
    EXPECT_EQ(registry.stats().openSessions, 0u);
}

TEST_F(ServerTest, ResponseCacheIsBoundedAndEmptiedByAbsorb)
{
    SessionRegistry registry;
    Expected<SessionRegistry::Handle> handle = registry.acquire(corpusPath_);
    ASSERT_TRUE(handle.ok()) << handle.error().render();
    CorpusSession &session = *handle.value();

    auto answer = [](std::size_t bytes) {
        return std::make_shared<const std::string>(bytes, 'x');
    };
    constexpr std::size_t kSmall = 1024;
    const Digest oldest = Digest{}.mix(std::uint64_t{1});
    const Digest big = Digest{}.mix(std::uint64_t{2});
    const Digest newest = Digest{}.mix(std::uint64_t{3});

    // Exactly at the bound nothing is evicted...
    session.cacheResponse(oldest, answer(kSmall));
    session.cacheResponse(
        big, answer(CorpusSession::kResponseCacheBytes - kSmall));
    EXPECT_NE(session.cachedResponse(oldest), nullptr);

    // ...and one answer past it evicts the oldest-inserted one only.
    session.cacheResponse(newest, answer(kSmall));
    EXPECT_EQ(session.cachedResponse(oldest), nullptr);
    EXPECT_NE(session.cachedResponse(big), nullptr);
    ASSERT_NE(session.cachedResponse(newest), nullptr);
    EXPECT_EQ(session.cachedResponse(newest)->size(), kSmall);

    // A pushed shard changes the corpus: no stored answer is served.
    CorpusSpec spec;
    spec.machines = 2;
    spec.seed = 7;
    session.absorbShard(generateCorpus(spec));
    EXPECT_EQ(session.cachedResponse(big), nullptr);
    EXPECT_EQ(session.cachedResponse(newest), nullptr);
}

TEST(ServerUtil, ParseHostPort)
{
    auto good = parseHostPort("127.0.0.1:7070");
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value().first, "127.0.0.1");
    EXPECT_EQ(good.value().second, 7070);

    EXPECT_FALSE(parseHostPort("127.0.0.1").ok());
    EXPECT_FALSE(parseHostPort(":7070").ok());
    EXPECT_FALSE(parseHostPort("host:").ok());
    EXPECT_FALSE(parseHostPort("host:99999").ok());
    EXPECT_FALSE(parseHostPort("host:7a").ok());
}

TEST(ServerUtil, ResponseRenderingEchoesIdsAndCodes)
{
    // An error response's payload round-trips code, message and the
    // connection byte offset...
    ErrorInfo desync;
    desync.code = ErrorCode::ProtocolError;
    desync.message = "desync";
    desync.offset = 1234;
    const std::string rendered = renderErrorObject(desync);
    EXPECT_NE(rendered.find("\"code\":\"protocol_error\""),
              std::string::npos);
    EXPECT_NE(rendered.find("\"offset\":1234"), std::string::npos);
    Expected<JsonValue> parsed = JsonValue::parse(rendered);
    ASSERT_TRUE(parsed.ok()) << parsed.error().render();
    const ErrorInfo back = parseErrorObject(parsed.value());
    EXPECT_EQ(back.code, ErrorCode::ProtocolError);
    EXPECT_EQ(back.message, "desync");
    EXPECT_EQ(back.offset, 1234u);

    // ...and an offset of 0 (not applicable) is left out.
    ErrorInfo full;
    full.code = ErrorCode::Overloaded;
    full.message = "full";
    const std::string plain = renderErrorObject(full);
    EXPECT_NE(plain.find("\"code\":\"overloaded\""), std::string::npos);
    EXPECT_EQ(plain.find("\"offset\""), std::string::npos);
}

TEST(ServerUtil, MethodAndErrorCodeVocabularyRoundTrips)
{
    std::set<std::string_view> names;
    for (std::size_t i = 0; i < kMethodCount; ++i) {
        const Method method = static_cast<Method>(i);
        EXPECT_FALSE(methodName(method).empty());
        EXPECT_TRUE(names.insert(methodName(method)).second)
            << "duplicate wire name " << methodName(method);
        EXPECT_EQ(parseMethod(methodName(method)), method);
        EXPECT_EQ(methodWireByte(method), i);
        EXPECT_EQ(methodFromWireByte(methodWireByte(method)), method);
    }
    EXPECT_FALSE(parseMethod("frobnicate").has_value());
    EXPECT_FALSE(
        methodFromWireByte(static_cast<std::uint8_t>(kMethodCount))
            .has_value());
    EXPECT_FALSE(methodFromWireByte(200).has_value());
    for (const ErrorCode code :
         {ErrorCode::BadRequest, ErrorCode::Overloaded,
          ErrorCode::DeadlineExceeded, ErrorCode::NotFound,
          ErrorCode::ShuttingDown, ErrorCode::ProtocolError,
          ErrorCode::Internal}) {
        EXPECT_EQ(parseErrorCode(errorCodeName(code)), code);
    }
    EXPECT_FALSE(parseErrorCode("no_such_code").has_value());
}

TEST(ServerUtil, DocsMethodTableListsExactlyTheMethods)
{
    const std::string path = std::string(TRACELENS_DOCS_DIR) + "/SERVER.md";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "cannot read " << path;
    // The first-column names of the table under "### Methods"
    // ("| `analyze` | ...").
    std::set<std::string> documented;
    bool inMethods = false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("### ", 0) == 0) {
            inMethods = line == "### Methods";
            continue;
        }
        if (inMethods && line.rfind("| `", 0) == 0)
            documented.insert(line.substr(3, line.find('`', 3) - 3));
    }
    std::set<std::string> spoken;
    for (std::size_t i = 0; i < kMethodCount; ++i)
        spoken.emplace(methodName(static_cast<Method>(i)));
    for (const std::string &name : documented)
        EXPECT_TRUE(spoken.count(name) != 0)
            << path << " documents \"" << name << "\", which Method lacks";
    for (const std::string &name : spoken)
        EXPECT_TRUE(documented.count(name) != 0)
            << path << " does not document the method \"" << name << "\"";
}

} // namespace
} // namespace server
} // namespace tracelens
