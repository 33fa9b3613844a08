/**
 * @file
 * Tests for the analysis service (src/server/): request handling
 * against hostile input (malformed params, unknown methods, oversized
 * and half-closed connections, clients vanishing mid-response), the
 * refusal of the retired JSON-line protocol v1, backpressure and
 * deadline behaviour, out-of-range numeric params, the session
 * registry's leak-freedom, its bounded response cache and per-path
 * retirement, warm-query serving from the results the
 * Analyzer keeps (asserted via stage-span outcomes), graceful
 * drain, and the daemon's lifecycle: a failed start() leaves nothing
 * running, untraced requests are root spans, the metrics port drains
 * past a silent scraper, and closed connections release their
 * sockets. Frame-level corruption and multiplexing live in
 * tests/protocol2_test.cpp; this file drives the daemon through the
 * typed Session API and through raw frames (tests/server_fixture.h).
 * Built into the "server" ctest label so the whole file runs under
 * both sanitizers (ctest --preset asan-server / tsan-server).
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/partial.h"
#include "src/fleet/fleet.h"
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

/** The value of @p span's arg @p key, or "" when it has none. */
std::string
argOf(const SpanSnapshot &span, std::string_view key)
{
    for (const auto &[name, value] : span.args)
        if (name == key)
            return value;
    return "";
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

    // Cold: the query computes its members' summaries and grows the
    // scenario's path trie.
    Expected<Response> cold = session.analyze(analyzeRequest(3));
    ASSERT_TRUE(cold.ok()) << cold.error().render();
    ASSERT_TRUE(cold.value().ok) << cold.value().error.message;
    bool computed = false, grown = false;
    for (const SpanSnapshot &span : Telemetry::snapshotSpans()) {
        grown |= span.name == "awg.grow-trie";
        if (span.name == "impact.analyze" || span.name == "awg.aggregate")
            computed |= argOf(span, "computed") != "0";
    }
    EXPECT_TRUE(computed);
    EXPECT_TRUE(grown);

    // Warm, different params (top=5): a different response-cache key
    // at the same thresholds. The query folds and mines again, over
    // what the cold one left: no summary is computed and the trie
    // does not grow.
    Telemetry::reset();
    Expected<Response> warm = session.analyze(analyzeRequest(5));
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(warm.value().ok);
    std::size_t folds = 0;
    for (const SpanSnapshot &span : Telemetry::snapshotSpans()) {
        EXPECT_NE(span.name, "awg.grow-trie");
        if (span.name != "impact.analyze" && span.name != "awg.aggregate")
            continue;
        ++folds;
        EXPECT_EQ(argOf(span, "computed"), "0") << span.name;
    }
    EXPECT_GT(folds, 0u);

    // Warm, identical params: the rendered response itself is cached;
    // the pipeline is not re-entered at all.
    Telemetry::reset();
    Expected<Response> repeat = session.analyze(analyzeRequest(5));
    ASSERT_TRUE(repeat.ok());
    ASSERT_TRUE(repeat.value().ok);
    const std::string repeatTrace = Telemetry::renderChromeTrace();
    EXPECT_EQ(repeatTrace.find("analyzer.scenario"), std::string::npos);
    EXPECT_NE(repeatTrace.find("server.response-cache-hit"),
              std::string::npos);
    EXPECT_EQ(repeat.value().result.render(),
              warm.value().result.render());
    Telemetry::setEnabled(false);
    Telemetry::reset();
}

TEST_F(ServerTest, MetricsCountAnalysisWhileTheSessionIsOpen)
{
    startServer();
    Session session = connect();
    // Thresholds that give both classes members (3 fast, 2 slow), so
    // the query computes contributions as well as fragments.
    AnalyzeRequest request = analyzeRequest();
    request.tfastMs = 300;
    request.tslowMs = 380;
    Expected<Response> analyzed = session.analyze(request);
    ASSERT_TRUE(analyzed.ok()) << analyzed.error().render();
    ASSERT_TRUE(analyzed.value().ok) << analyzed.value().error.message;

    // The corpus session stays open, so its Analyzer is alive: what it
    // computed must already be in the daemon's registry.
    Expected<Response> metrics =
        session.call(Method::Metrics, JsonValue::makeObject());
    ASSERT_TRUE(metrics.ok()) << metrics.error().render();
    ASSERT_TRUE(metrics.value().ok) << metrics.value().error.message;
    const JsonValue *counters = metrics.value().result.find("counters");
    ASSERT_NE(counters, nullptr);
    for (const char *name : {"analyzer.graph_builds",
                             "analyzer.contributions",
                             "analyzer.fragments"}) {
        const JsonValue *value = counters->find(name);
        ASSERT_NE(value, nullptr) << name;
        EXPECT_GT(value->asNumber(), 0.0) << name;
    }
    EXPECT_EQ(server_->registry().stats().openSessions, 1u);
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

// ------------------------------------------ lifecycle and threads

/** Entries under /proc/self/@p dir: this process's threads ("task")
 *  or open descriptors ("fd"). */
std::size_t
procEntries(const std::string &dir)
{
    std::size_t count = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator("/proc/self/" + dir))
        ++count;
    return count;
}

/** Destroy @p server on a helper thread. False when that takes longer
 *  than @p limit; the helper is then left blocked and detached. */
bool
destroyWithin(std::unique_ptr<Server> server, std::chrono::seconds limit)
{
    std::promise<void> done;
    std::future<void> destroyed = done.get_future();
    std::thread helper(
        [server = std::move(server), done = std::move(done)]() mutable {
            server.reset();
            done.set_value();
        });
    if (destroyed.wait_for(limit) != std::future_status::ready) {
        helper.detach();
        return false;
    }
    helper.join();
    return true;
}

TEST(ServerLifecycle, FailedStartLeavesNothingRunningAndDestroysAtOnce)
{
    ScratchDir scratch("failed_start");
    std::uint16_t busyPort = 0;
    const int busy = bindLoopback(busyPort);
    ASSERT_EQ(::listen(busy, 1), 0);

    struct Case
    {
        std::string name;
        ServerConfig config;
        std::string error; //!< What start()'s error text contains.
    };
    std::vector<Case> cases(4);
    cases[0].name = "invalid listen host, with --watch";
    cases[0].config.host = "not-an-address";
    cases[0].config.fleet.dir = (scratch.path() / "spool").string();
    cases[0].error = "invalid listen host 'not-an-address' (IPv4 dotted "
                     "quad expected)";
    cases[1].name = "port already in use";
    cases[1].config.port = busyPort;
    cases[1].error = "bind 127.0.0.1:" + std::to_string(busyPort) + ": ";
    cases[2].name = "bad --metrics-listen address";
    cases[2].config.metricsListen = "not-an-address:0";
    cases[2].error = "metrics listen not-an-address:0: ";
    cases[3].name = "coordinator without workers";
    cases[3].config.coordinator = true;
    cases[3].error = "coordinator mode needs at least one worker "
                     "(--cluster-workers host:port,...)";

    for (Case &c : cases) {
        SCOPED_TRACE(c.name);
        auto server = std::make_unique<Server>(c.config);
        const std::size_t threads = procEntries("task");
        const std::size_t fds = procEntries("fd");
        Expected<std::uint16_t> port = server->start();
        ASSERT_FALSE(port.ok());
        EXPECT_NE(port.error().reason.find(c.error), std::string::npos)
            << port.error().reason;
        // No thread (fleet poll, workers, accept loop) and no socket
        // or pipe outlives the failure.
        EXPECT_EQ(procEntries("task"), threads);
        EXPECT_EQ(procEntries("fd"), fds);
        EXPECT_TRUE(destroyWithin(std::move(server), std::chrono::seconds(5)))
            << "~Server did not return within 5 s";
    }
    ::close(busy);
}

TEST_F(ServerTest, UntracedRequestIsARootSpanOnAPlainWorkerThread)
{
    // Recording starts before the daemon, as `serve
    // --self-trace-corpus` does. A request that carries no trace
    // context must be a root span, and no span may last the daemon's
    // life: a span that covers every request on its thread measures
    // no work.
    Telemetry::setEnabled(true);
    Telemetry::reset();
    const auto started = std::chrono::steady_clock::now();
    ServerConfig config;
    config.workers = 2;
    startServer(config);
    std::optional<RawV2> v2 = handshake(/*tracing=*/false);
    ASSERT_TRUE(v2.has_value());
    ASSERT_TRUE(sendRequestFrame(*v2, 1, Method::Sleep, sleepParams(1)));
    std::optional<RawResponse> response = readResponse(*v2, 1);
    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(response->isError);
    // The daemon lives well past the request before it drains.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    server_->requestStop();
    server_->wait();
    const auto lifeUs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count());

    std::size_t requests = 0;
    for (const SpanSnapshot &span : Telemetry::snapshotSpans()) {
        if (span.name == "server.request" &&
            argOf(span, "method") == "sleep") {
            ++requests;
            EXPECT_EQ(span.parentSpanId, 0u);
            EXPECT_EQ(span.depth, 0u);
        }
        EXPECT_LT(span.durUs * 2, lifeUs)
            << span.name << " lasts " << span.durUs << " us of a "
            << lifeUs << " us daemon";
    }
    EXPECT_EQ(requests, 1u);
    Telemetry::setEnabled(false);
    Telemetry::reset();
}

TEST_F(ServerTest, MetricsPortAnswersAScrapeAndDrainsPastASilentScraper)
{
    ServerConfig config;
    config.metricsListen = "127.0.0.1:0";
    startServer(config);
    ASSERT_NE(server_->metricsPort(), 0);

    const std::chrono::seconds timeout(5);
    Expected<RawConn> scraper =
        RawConn::connect("127.0.0.1", server_->metricsPort(), timeout);
    ASSERT_TRUE(scraper.ok()) << scraper.error().render();
    ASSERT_TRUE(scraper.value().sendRaw(
        "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n"));
    // The daemon hangs up after its answer.
    std::string reply;
    for (Expected<std::string> byte = scraper.value().readExact(1);
         byte.ok(); byte = scraper.value().readExact(1))
        reply += byte.value();
    EXPECT_EQ(reply.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << reply;
    EXPECT_NE(reply.find("# TYPE tracelens_server_requests counter"),
              std::string::npos);
    // A scrape is not a client connection.
    EXPECT_EQ(server_->stats().accepted, 0u);
    EXPECT_EQ(server_->stats().connections, 0u);

    // A second scraper connects and sends nothing. Once the daemon has
    // taken it on, the drain must hang up on it rather than wait for
    // its request.
    Expected<RawConn> silent =
        RawConn::connect("127.0.0.1", server_->metricsPort(), timeout);
    ASSERT_TRUE(silent.ok()) << silent.error().render();
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    const auto stopAt = std::chrono::steady_clock::now();
    server_->requestStop();
    server_->wait();
    EXPECT_LT(std::chrono::steady_clock::now() - stopAt,
              std::chrono::milliseconds(500));
}

TEST_F(ServerTest, ClosedConnectionsReleaseTheirSockets)
{
    startServer();
    const std::size_t fds = procEntries("fd");
    // A connection every 250 ms for 3 s, so the accept loop is never
    // idle for a second: finished readers must still be reaped, and
    // their sockets closed, once a second.
    constexpr int kConnections = 12;
    for (int i = 0; i < kConnections; ++i) {
        {
            Session session = connect();
            Expected<Response> health = session.health();
            ASSERT_TRUE(health.ok()) << health.error().render();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    EXPECT_LE(procEntries("fd"), fds + 6);
    // Once the daemon is idle, every socket is closed.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (procEntries("fd") > fds &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(procEntries("fd"), fds);
    EXPECT_EQ(server_->stats().accepted,
              static_cast<std::uint64_t>(kConnections));
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

TEST_F(ServerTest, ResponseCacheIsBoundedAndRetireDropsOnlyThatPath)
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
        big, answer(CorpusSession::kMaxCachedResponseBytes - kSmall));
    EXPECT_NE(session.cachedResponse(oldest), nullptr);

    // ...and one answer past it evicts the oldest-inserted one only.
    session.cacheResponse(newest, answer(kSmall));
    EXPECT_EQ(session.cachedResponse(oldest), nullptr);
    EXPECT_NE(session.cachedResponse(big), nullptr);
    ASSERT_NE(session.cachedResponse(newest), nullptr);
    EXPECT_EQ(session.cachedResponse(newest)->size(), kSmall);

    // A second filter over the same path, and another path.
    const std::string otherPath = (scratch_->path() / "other.tlc").string();
    CorpusSpec spec;
    spec.machines = 2;
    spec.seed = 7;
    writeCorpusFile(generateCorpus(spec), otherPath);
    ASSERT_TRUE(registry.acquire(corpusPath_, {"*.sys"}).ok());
    ASSERT_TRUE(registry.acquire(otherPath).ok());
    ASSERT_EQ(registry.stats().openSessions, 3u);

    // Retiring the path drops its sessions under every filter, the
    // held one too, and counts each as an eviction.
    const Counter &opened =
        MetricsRegistry::global().counter("server.sessions.opened");
    const std::uint64_t openedBefore = opened.value();
    const std::uint64_t evictedBefore = registry.stats().evicted;
    EXPECT_EQ(registry.retire(corpusPath_), 2u);
    EXPECT_EQ(registry.stats().openSessions, 1u);
    EXPECT_EQ(registry.stats().evicted - evictedBefore, 2u);

    // The held handle keeps its session, which still answers.
    ASSERT_NE(session.cachedResponse(newest), nullptr);
    EXPECT_GT(session.analyzer().impactAll().instances, 0u);

    // The next acquire opens a fresh session over the path; the other
    // path's session is reused.
    Expected<SessionRegistry::Handle> fresh = registry.acquire(corpusPath_);
    ASSERT_TRUE(fresh.ok()) << fresh.error().render();
    EXPECT_NE(&*fresh.value(), &session);
    EXPECT_EQ(fresh.value()->cachedResponse(newest), nullptr);
    ASSERT_TRUE(registry.acquire(otherPath).ok());
    EXPECT_EQ(opened.value() - openedBefore, 1u);
}

TEST_F(ServerTest, SpoolArrivalsRetireSessionsUnderConcurrentQueries)
{
    const std::filesystem::path spool = scratch_->path() / "spool";
    std::filesystem::create_directories(spool);
    auto shardBytes = [](std::uint64_t seed) {
        CorpusSpec spec;
        spec.machines = 2;
        spec.seed = seed;
        std::ostringstream out;
        writeCorpus(generateCorpus(spec), out);
        return out.str();
    };
    // Written aside and renamed in, the poll thread's convention.
    auto landShard = [&](const std::string &name, std::uint64_t seed) {
        const std::filesystem::path staged = scratch_->path() / name;
        std::ofstream(staged, std::ios::binary) << shardBytes(seed);
        std::filesystem::rename(staged, spool / name);
    };
    landShard("shard-0000.tlc", 1);

    ServerConfig config;
    config.workers = 4;
    config.fleet.dir = spool.string();
    config.fleet.pollMs = 10;
    startServer(config);
    Session control = connect();
    auto summary = [&] {
        WindowSummaryRequest request;
        request.scenario = "BrowserTabCreate";
        request.windows = "all";
        Expected<Response> response =
            control.call(Method::WindowSummary, request.toParams());
        EXPECT_TRUE(response.ok() && response.value().ok);
        return response.ok() ? response.value().result : JsonValue();
    };
    auto waitForShards = [&](double shards) {
        for (int tick = 0; tick < 3000; ++tick) {
            const JsonValue got = summary();
            const JsonValue *count = got.find("shards");
            if (count != nullptr && count->asNumber() == shards)
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        ADD_FAILURE() << "the windows never held " << shards << " shards";
    };
    waitForShards(1);

    // Readers query the spool, unfiltered and filtered, while shards
    // arrive by push and by poll and retire the sessions they use.
    constexpr int kReaders = 3;
    std::atomic<bool> done{false};
    std::vector<int> failures(kReaders, 0);
    std::vector<std::thread> readers;
    for (int c = 0; c < kReaders; ++c) {
        readers.emplace_back([&, c] {
            Session session = connect();
            for (int r = 0; !done.load(); ++r) {
                AnalyzeRequest analyze;
                analyze.corpus = spool.string();
                analyze.scenario = "BrowserTabCreate";
                if ((r + c) % 2 == 1)
                    analyze.components = {"*.sys"};
                IngestRequest ingest;
                ingest.corpus = spool.string();
                Expected<Response> response =
                    r % 3 == 2 ? session.ingest(ingest)
                               : session.analyze(analyze);
                if (!response.ok() || !response.value().ok)
                    ++failures[static_cast<std::size_t>(c)];
            }
        });
    }
    for (std::uint64_t i = 1; i <= 4; ++i) {
        const std::string name = "shard-000" + std::to_string(i) + ".tlc";
        if (i % 2 == 1) {
            IngestPushRequest push;
            push.name = name;
            push.payloadBase64 = base64Encode(shardBytes(i + 1));
            push.fleetRevision = fleetRevision();
            Expected<Response> pushed =
                control.call(Method::IngestPush, push.toParams());
            if (!pushed.ok() || !pushed.value().ok) {
                ADD_FAILURE() << "push of " << name << " failed";
                break; // the readers still have to be joined
            }
        } else {
            landShard(name, i + 1);
        }
        waitForShards(static_cast<double>(i + 1));
    }
    done.store(true);
    for (std::thread &t : readers)
        t.join();
    for (int c = 0; c < kReaders; ++c)
        EXPECT_EQ(failures[static_cast<std::size_t>(c)], 0)
            << "reader " << c;

    // Every session over the spool now answers for all five shards.
    const JsonValue all = summary();
    const JsonValue *rolling = all.find("summary");
    ASSERT_NE(rolling, nullptr);
    for (const std::vector<std::string> &components :
         {std::vector<std::string>{}, std::vector<std::string>{"*.sys"}}) {
        AnalyzeRequest analyze;
        analyze.corpus = spool.string();
        analyze.scenario = "BrowserTabCreate";
        analyze.components = components;
        Expected<Response> answer = control.analyze(analyze);
        ASSERT_TRUE(answer.ok() && answer.value().ok);
        EXPECT_EQ(answer.value().result.render(), rolling->render());
    }
    IngestRequest ingest;
    ingest.corpus = spool.string();
    Expected<Response> counted = control.ingest(ingest);
    ASSERT_TRUE(counted.ok() && counted.value().ok);
    const JsonValue *shards = counted.value().result.find("shards");
    ASSERT_NE(shards, nullptr);
    EXPECT_EQ(shards->asNumber(), 5.0);
}

TEST_F(ServerTest, OutOfRangeNumbersAnswerBadRequest)
{
    ServerConfig config;
    config.fleet.dir = (scratch_->path() / "spool").string();
    std::filesystem::create_directories(config.fleet.dir);
    startServer(config);
    std::optional<RawV2> v2 = handshake();
    ASSERT_TRUE(v2.has_value());

    // A shard that parses, so ingest_push reaches its timestamp.
    CorpusSpec spec;
    spec.machines = 1;
    spec.seed = 7;
    std::ostringstream shard;
    writeCorpus(generateCorpus(spec), shard);
    const std::string push =
        R"({"name":"shard-0001.tlc","fleet_revision":)" +
        std::to_string(fleetRevision()) + R"(,"payload":")" +
        base64Encode(shard.str()) + R"(","timestamp_ms":)";
    const std::string analyze =
        R"({"corpus":")" + corpusPath_ + R"(","scenario":"FileOpen",)";
    const std::string summary = R"({"scenario":"FileOpen",)";

    // Each value is outside what its integer type holds (the window id
    // overflows 64 bits). The frames carry no deadline, so no deadline
    // clamps `wait_ms`.
    const std::vector<std::pair<Method, std::string>> hostile = {
        {Method::WindowSummary, summary + R"("top":-1})"},
        {Method::WindowSummary, summary + R"("top":1e300})"},
        {Method::WindowSummary, summary + R"("trailing":-1})"},
        {Method::WindowSummary, summary + R"("trailing":1e300})"},
        {Method::WindowSummary,
         summary + R"("windows":"12345678901234567890123"})"},
        {Method::WindowSummary, summary + R"("tslow_ms":1e300})"},
        {Method::Alerts, R"({"after_seq":-1})"},
        {Method::Alerts, R"({"after_seq":1e300})"},
        {Method::Alerts, R"({"wait_ms":-1})"},
        {Method::Alerts, R"({"wait_ms":1e300})"},
        {Method::IngestPush,
         R"({"name":"shard-0001.tlc","fleet_revision":-1,"payload":"AAAA"})"},
        {Method::IngestPush,
         R"({"name":"shard-0001.tlc","fleet_revision":1e300,)"
         R"("payload":"AAAA"})"},
        {Method::IngestPush, push + "1e300}"},
        {Method::IngestPush, push + "-1}"},
        {Method::Analyze, analyze + R"("tfast_ms":1e300})"},
        {Method::Analyze, analyze + R"("tslow_ms":1e300})"},
        {Method::Analyze, analyze + R"("tslow_ms":-1e300})"},
        {Method::Analyze, analyze + R"("top":-1})"},
        {Method::Mine, analyze + R"("max_patterns":1e300})"},
        {Method::AnalyzePartial,
         analyze + R"("tfast_ms":100,"tslow_ms":1e300})"},
        {Method::AnalyzePartial,
         analyze + R"("tfast_ms":-1e300,"tslow_ms":100})"},
    };
    std::uint32_t stream = 1;
    for (const auto &[method, params] : hostile) {
        const std::string shown = params.substr(0, 120);
        ASSERT_TRUE(sendRawRequest(*v2, stream, methodWireByte(method),
                                   {}, params));
        std::optional<RawResponse> reply = readResponse(*v2, stream);
        ASSERT_TRUE(reply.has_value()) << shown;
        EXPECT_TRUE(reply->isError) << shown;
        EXPECT_EQ(parseErrorObject(reply->body).code,
                  ErrorCode::BadRequest)
            << methodName(method) << " " << shown;
        stream += 2;
    }
    EXPECT_FALSE(std::filesystem::exists(
        std::filesystem::path(config.fleet.dir) / "shard-0001.tlc"));

    ASSERT_TRUE(sendRequestFrame(*v2, stream, Method::Health,
                                 JsonValue::makeObject()));
    std::optional<RawResponse> health = readResponse(*v2, stream);
    ASSERT_TRUE(health.has_value());
    EXPECT_FALSE(health->isError);
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
