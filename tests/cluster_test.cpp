/**
 * @file
 * Tests for the sharded-cluster layer (src/server/coordinator.h): the
 * consistent-hash ring, the shard listing both the coordinator and
 * a single node ingest in, the coordinator's scatter/gather
 * byte-identity contract against a single-node daemon, worker-failure
 * semantics (replica retry, degraded responses under a deadline), the
 * mixed-revision handshake, and the worker-side `*_partial` methods.
 * Built into the "server" ctest label so the whole file runs under
 * both sanitizers (ctest --preset asan-server / tsan-server).
 */

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/partial.h"
#include "src/server/client.h"
#include "src/server/coordinator.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/trace/serialize.h"
#include "src/trace/source.h"
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

namespace fs = std::filesystem;

/**
 * A loopback address that refuses connections for as long as this
 * object lives: a bound socket that never listens. Holding the bind
 * keeps the port from being handed to any daemon the test starts
 * later.
 */
class DeadAddress
{
  public:
    DeadAddress() { fd_ = bindLoopback(port_); }
    ~DeadAddress() { ::close(fd_); }

    DeadAddress(const DeadAddress &) = delete;
    DeadAddress &operator=(const DeadAddress &) = delete;

    std::string
    address() const
    {
        return "127.0.0.1:" + std::to_string(port_);
    }

  private:
    std::uint16_t port_ = 0;
    int fd_ = -1;
};

// ---------------------------------------------------------- hash ring

TEST(HashRing, PlacementIsDeterministicAndCoversEveryWorker)
{
    const std::vector<std::string> workers = {"a:1", "b:2", "c:3"};
    HashRing ring(workers);
    HashRing again(workers);

    std::set<std::uint32_t> owners;
    for (int i = 0; i < 1000; ++i) {
        const std::string key = "shard-" + std::to_string(i) + ".tlc";
        const std::uint32_t primary = ring.primary(key);
        ASSERT_LT(primary, workers.size());
        // Placement is a pure function of the worker list.
        EXPECT_EQ(primary, again.primary(key));
        owners.insert(primary);

        const auto replica = ring.replica(key);
        ASSERT_TRUE(replica.has_value());
        EXPECT_NE(*replica, primary)
            << "replica must be a distinct worker for " << key;
    }
    // 64 virtual nodes per worker: 1000 keys cannot all miss a worker.
    EXPECT_EQ(owners.size(), workers.size());
}

TEST(HashRing, SingleWorkerOwnsEverythingAndHasNoReplica)
{
    HashRing ring({"only:1"});
    for (int i = 0; i < 100; ++i) {
        std::string key = "k";
        key += std::to_string(i);
        EXPECT_EQ(ring.primary(key), 0u);
        EXPECT_FALSE(ring.replica(key).has_value());
    }
}

// -------------------------------------------------------- shard listing

TEST(ListShardFiles, MirrorsSingleNodeIngestOrder)
{
    ScratchDir scratch("cluster_enumerate");
    CorpusSpec spec;
    spec.machines = 4;
    spec.seed = 7;
    const std::string dir = (scratch.path() / "corpus").string();
    const std::vector<std::string> written =
        writeShardedCorpusDir(generateCorpus(spec), dir, 3);
    ASSERT_EQ(written.size(), 3u);

    // Non-shard clutter must be ignored, exactly as openSource does.
    std::ofstream(scratch.path() / "corpus" / "README.txt") << "hi";
    fs::create_directories(scratch.path() / "corpus" / "sub");

    Expected<std::vector<std::string>> shards = listShardFiles(dir);
    ASSERT_TRUE(shards.ok()) << shards.error().render();
    std::vector<std::string> expected = written;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(shards.value(), expected);

    // A plain corpus file is its own single shard.
    Expected<std::vector<std::string>> single = listShardFiles(written[0]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(single.value(),
              std::vector<std::string>{written[0]});
}

TEST(ListShardFiles, EmptyDirAndMissingPathFail)
{
    ScratchDir scratch("cluster_enumerate_bad");
    const std::string empty = (scratch.path() / "empty").string();
    fs::create_directories(empty);
    Expected<std::vector<std::string>> none = listShardFiles(empty);
    ASSERT_FALSE(none.ok());
    EXPECT_NE(none.error().render().find("*.tlc"), std::string::npos);

    Expected<std::vector<std::string>> missing =
        listShardFiles((scratch.path() / "nope").string());
    EXPECT_FALSE(missing.ok());
}

// ----------------------------------------------------- cluster fixture

/** A sharded corpus + helpers to start workers and a coordinator. */
class ClusterTest : public ::testing::Test
{
  protected:
    struct Daemon
    {
        std::unique_ptr<Server> server;
        std::uint16_t port = 0;

        std::string
        address() const
        {
            return "127.0.0.1:" + std::to_string(port);
        }
    };

    void
    SetUp() override
    {
        scratch_ = std::make_unique<ScratchDir>(
            std::string("ClusterTest_") +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
        CorpusSpec spec;
        spec.machines = 8;
        spec.seed = 1337;
        corpusDir_ = (scratch_->path() / "corpus").string();
        writeShardedCorpusDir(generateCorpus(spec), corpusDir_, 4);
    }

    Daemon
    startDaemon(ServerConfig config = {})
    {
        config.host = "127.0.0.1";
        config.port = 0;
        Daemon daemon;
        daemon.server = std::make_unique<Server>(config);
        Expected<std::uint16_t> port = daemon.server->start();
        EXPECT_TRUE(port.ok()) << port.error().render();
        daemon.port = port.ok() ? port.value() : 0;
        return daemon;
    }

    Daemon
    startWorker(ServerConfig config = {})
    {
        return startDaemon(config);
    }

    Daemon
    startCoordinator(const std::vector<std::string> &workers,
                     std::uint64_t shardDeadlineMs = 10000,
                     ServerConfig config = {})
    {
        config.coordinator = true;
        config.workerAddrs = workers;
        config.shardDeadlineMs = shardDeadlineMs;
        return startDaemon(config);
    }

    static void
    stopDaemon(Daemon &daemon)
    {
        daemon.server->requestStop();
        daemon.server->wait();
    }

    static Session
    connect(const Daemon &daemon)
    {
        SessionOptions options;
        options.ioTimeout = std::chrono::milliseconds(60000);
        Expected<Session> session =
            Session::connect("127.0.0.1", daemon.port, options);
        EXPECT_TRUE(session.ok());
        return std::move(session.value());
    }

    AnalyzeRequest
    analyzeRequest() const
    {
        AnalyzeRequest request;
        request.corpus = corpusDir_;
        request.scenario = "BrowserTabCreate";
        return request;
    }

    void
    TearDown() override
    {
        scratch_.reset();
    }

    // Daemons are test-body locals: ~Server stops and joins on
    // destruction, so scope exit is the cleanup. TearDown must not
    // touch them — it runs after the body's locals are gone.

    std::unique_ptr<ScratchDir> scratch_;
    std::string corpusDir_;
};

// -------------------------------------------------------- byte identity

TEST_F(ClusterTest, CoordinatorReportsAreByteIdenticalToSingleNode)
{
    Daemon worker1 = startWorker();
    Daemon worker2 = startWorker();
    Daemon coord = startCoordinator(
        {worker1.address(), worker2.address()});
    Daemon single = startWorker();

    Session coordSession = connect(coord);
    Session singleSession = connect(single);

    // analyze
    Expected<Response> coordAnalyze =
        coordSession.analyze(analyzeRequest());
    Expected<Response> singleAnalyze =
        singleSession.analyze(analyzeRequest());
    ASSERT_TRUE(coordAnalyze.ok()) << coordAnalyze.error().render();
    ASSERT_TRUE(singleAnalyze.ok());
    ASSERT_TRUE(coordAnalyze.value().ok)
        << coordAnalyze.value().error.message;
    ASSERT_TRUE(singleAnalyze.value().ok)
        << singleAnalyze.value().error.message;
    EXPECT_EQ(coordAnalyze.value().result.render(),
              singleAnalyze.value().result.render());
    // A full gather carries no degradation markers at all.
    EXPECT_EQ(coordAnalyze.value().result.find("partial_results"),
              nullptr);

    // impact
    ImpactRequest impact;
    impact.corpus = corpusDir_;
    Expected<Response> coordImpact = coordSession.impact(impact);
    Expected<Response> singleImpact = singleSession.impact(impact);
    ASSERT_TRUE(coordImpact.ok());
    ASSERT_TRUE(singleImpact.ok());
    ASSERT_TRUE(coordImpact.value().ok)
        << coordImpact.value().error.message;
    ASSERT_TRUE(singleImpact.value().ok);
    EXPECT_EQ(coordImpact.value().result.render(),
              singleImpact.value().result.render());

    // mine
    MineRequest mine;
    mine.corpus = corpusDir_;
    mine.scenario = "BrowserTabCreate";
    Expected<Response> coordMine = coordSession.mine(mine);
    Expected<Response> singleMine = singleSession.mine(mine);
    ASSERT_TRUE(coordMine.ok());
    ASSERT_TRUE(singleMine.ok());
    ASSERT_TRUE(coordMine.value().ok)
        << coordMine.value().error.message;
    ASSERT_TRUE(singleMine.value().ok);
    EXPECT_EQ(coordMine.value().result.render(),
              singleMine.value().result.render());
}

// ------------------------------------------------------ failure handling

TEST_F(ClusterTest, StoppedWorkerIsRetriedOnItsReplica)
{
    Daemon worker1 = startWorker();
    Daemon worker2 = startWorker();
    Daemon coord = startCoordinator(
        {worker1.address(), worker2.address()});

    Session before = connect(coord);
    Expected<Response> baseline = before.analyze(analyzeRequest());
    ASSERT_TRUE(baseline.ok());
    ASSERT_TRUE(baseline.value().ok)
        << baseline.value().error.message;

    // Kill one worker; its shards must be answered by the survivor.
    stopDaemon(worker1);

    Session after = connect(coord);
    Expected<Response> retried = after.analyze(analyzeRequest());
    ASSERT_TRUE(retried.ok()) << retried.error().render();
    ASSERT_TRUE(retried.value().ok)
        << retried.value().error.message;
    // The retried gather is still a *full* gather: byte-identical,
    // no degradation markers.
    EXPECT_EQ(retried.value().result.render(),
              baseline.value().result.render());
    EXPECT_EQ(retried.value().result.find("partial_results"), nullptr);
}

TEST_F(ClusterTest, SoleWorkerDownDegradesInsideTheDeadline)
{
    // A port that refuses connections for the whole test.
    const DeadAddress dead;
    const std::string deadAddr = dead.address();

    Daemon coord = startCoordinator({deadAddr}, 2000);
    Session session = connect(coord);

    CallOptions options;
    options.deadlineMs = 30000;
    const auto start = std::chrono::steady_clock::now();
    Expected<Response> response =
        session.call(Method::Analyze, analyzeRequest().toParams(),
                     options);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(response.ok()) << response.error().render();
    // Connection refused on every shard, no replica to retry: the
    // query degrades instead of failing or hanging.
    EXPECT_LT(elapsed, std::chrono::seconds(20));
    ASSERT_TRUE(response.value().ok)
        << response.value().error.message;
    const JsonValue *partial =
        response.value().result.find("partial_results");
    ASSERT_NE(partial, nullptr);
    EXPECT_TRUE(partial->asBool());
    const JsonValue *missing =
        response.value().result.find("missing_shards");
    ASSERT_NE(missing, nullptr);
    ASSERT_TRUE(missing->isArray());
    EXPECT_EQ(missing->asArray().size(), 4u)
        << "all four shards were unreachable";
}

// -------------------------------------------------- revision handshake

/**
 * A fake pre-partial-encoding daemon (a ScriptedPeer script): it
 * completes the v2 handshake and answers `health` without the
 * "partial_encoding" field, exactly like a build that predates the
 * partial-result layer. The coordinator's handshake must reject it up
 * front.
 */
void
servePrePartialHealth(int fd)
{
    if (!recvExact(fd, wire::kPreface.size() + 1))
        return;
    std::string settings;
    wire::appendFrame(settings, wire::FrameType::Settings, 0, 0,
                      wire::encodeSettings(wire::Settings{}));
    if (!sendAll(fd, settings))
        return;
    // Skip the client's SETTINGS; answer its first request (health).
    std::optional<RawFrame> request;
    do {
        request = recvFrame(fd);
        if (!request)
            return;
    } while (request->header.type !=
             static_cast<std::uint8_t>(wire::FrameType::Request));
    wire::SymbolDict dict;
    std::string payload;
    dict.encode("{\"protocol\":2,\"protocols\":[2],\"status\":\"ok\"}",
                payload);
    std::string response;
    wire::appendFrame(response, wire::FrameType::Response,
                      wire::kFlagEndStream, request->header.stream,
                      payload);
    sendAll(fd, response);
}

TEST_F(ClusterTest, MixedRevisionWorkerIsRejectedUpFront)
{
    ScriptedPeer old(servePrePartialHealth);
    Daemon coord = startCoordinator({old.address()});
    Session session = connect(coord);

    Expected<Response> response = session.analyze(analyzeRequest());
    ASSERT_TRUE(response.ok()) << response.error().render();
    EXPECT_FALSE(response.value().ok);
    EXPECT_EQ(response.value().error.code, ErrorCode::BadRequest);
    EXPECT_NE(
        response.value().error.message.find("revision mismatch"),
        std::string::npos)
        << response.value().error.message;
}

// ------------------------------------------------- worker-side partials

TEST_F(ClusterTest, PartialMethodsRequireExplicitThresholds)
{
    Daemon worker = startWorker();
    Session session = connect(worker);

    // Thresholds are mandatory on the partial plane: workers never
    // resolve catalog defaults (the coordinator resolves them once).
    JsonValue params = JsonValue::makeObject();
    params.set("corpus", JsonValue(corpusDir_));
    params.set("scenario", JsonValue("BrowserTabCreate"));
    Expected<Response> bare =
        session.call(Method::AnalyzePartial, params);
    ASSERT_TRUE(bare.ok());
    EXPECT_FALSE(bare.value().ok);
    EXPECT_EQ(bare.value().error.code, ErrorCode::BadRequest);

    params.set("tfast_ms", JsonValue(100.0));
    params.set("tslow_ms", JsonValue(500.0));
    Expected<Response> full =
        session.call(Method::AnalyzePartial, params);
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(full.value().ok) << full.value().error.message;
    const JsonValue *revision =
        full.value().result.find("encoding_revision");
    ASSERT_NE(revision, nullptr);
    EXPECT_EQ(revision->asNumber(), partialEncodingRevision());
    const JsonValue *partial = full.value().result.find("partial");
    ASSERT_NE(partial, nullptr);
    EXPECT_FALSE(partial->asString().empty());

    // mine_partial is the same payload and the same handler.
    Expected<Response> mined =
        session.call(Method::MinePartial, params);
    ASSERT_TRUE(mined.ok());
    EXPECT_TRUE(mined.value().ok) << mined.value().error.message;
}

TEST_F(ClusterTest, RoleMismatchedMethodsAreRejected)
{
    Daemon worker = startWorker();
    Daemon coord = startCoordinator({worker.address()});
    Session workerSession = connect(worker);
    Session coordSession = connect(coord);

    const std::string notCoordinator =
        "this daemon is not a coordinator (start with --coordinator)";
    const std::string workersOnly =
        "partial methods are served by workers, not the coordinator";
    const std::string notFleet =
        "this daemon is not in continuous mode (start with --watch DIR)";
    struct Refusal
    {
        Session *session;
        Method method;
        ErrorCode code;
        std::string message;
    };
    const std::vector<Refusal> refusals = {
        // The coordinator methods, on a worker...
        {&workerSession, Method::ClusterStatus, ErrorCode::BadRequest,
         notCoordinator},
        {&workerSession, Method::ClusterTrace, ErrorCode::BadRequest,
         notCoordinator},
        // ...ingest and the partial plane, on the coordinator...
        {&coordSession, Method::Ingest, ErrorCode::BadRequest,
         "ingest is not available in coordinator mode (ingest on the "
         "workers)"},
        {&coordSession, Method::AnalyzePartial, ErrorCode::BadRequest,
         workersOnly},
        {&coordSession, Method::ImpactPartial, ErrorCode::BadRequest,
         workersOnly},
        {&coordSession, Method::MinePartial, ErrorCode::BadRequest,
         workersOnly},
        // ...the fleet methods, on a daemon without --watch...
        {&workerSession, Method::IngestPush, ErrorCode::BadRequest,
         notFleet},
        {&workerSession, Method::WindowSummary, ErrorCode::BadRequest,
         notFleet},
        {&coordSession, Method::Alerts, ErrorCode::BadRequest, notFleet},
        // ...and the test-only sleep, with test methods off.
        {&workerSession, Method::Sleep, ErrorCode::NotFound,
         "unknown method \"sleep\""},
    };
    for (const Refusal &refusal : refusals) {
        JsonValue params = JsonValue::makeObject();
        params.set("corpus", JsonValue(corpusDir_));
        params.set("scenario", JsonValue("BrowserTabCreate"));
        params.set("tfast_ms", JsonValue(100.0));
        params.set("tslow_ms", JsonValue(500.0));
        Expected<Response> response =
            refusal.session->call(refusal.method, params);
        ASSERT_TRUE(response.ok()) << response.error().render();
        EXPECT_FALSE(response.value().ok) << methodName(refusal.method);
        EXPECT_EQ(response.value().error.code, refusal.code)
            << methodName(refusal.method);
        EXPECT_EQ(response.value().error.message, refusal.message)
            << methodName(refusal.method);
    }
}

TEST_F(ClusterTest, ClusterStatusReportsTopologyAndHealth)
{
    Daemon worker = startWorker();
    const DeadAddress dead;
    const std::string deadAddr = dead.address();
    Daemon coord =
        startCoordinator({worker.address(), deadAddr});

    Session session = connect(coord);
    Expected<Response> response =
        session.call(Method::ClusterStatus, JsonValue::makeObject());
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response.value().ok)
        << response.value().error.message;
    const JsonValue &result = response.value().result;
    const JsonValue *revision = result.find("partial_encoding");
    ASSERT_NE(revision, nullptr);
    EXPECT_EQ(revision->asNumber(), partialEncodingRevision());
    const JsonValue *workers = result.find("workers");
    ASSERT_NE(workers, nullptr);
    ASSERT_TRUE(workers->isArray());
    ASSERT_EQ(workers->asArray().size(), 2u);

    bool sawOk = false;
    bool sawUnreachable = false;
    for (const JsonValue &entry : workers->asArray()) {
        const JsonValue *status = entry.find("status");
        ASSERT_NE(status, nullptr);
        if (status->asString() == "ok") {
            sawOk = true;
            const JsonValue *compatible = entry.find("compatible");
            ASSERT_NE(compatible, nullptr);
            EXPECT_TRUE(compatible->asBool());
        } else {
            sawUnreachable = true;
            EXPECT_EQ(status->asString(), "unreachable");
        }
    }
    EXPECT_TRUE(sawOk);
    EXPECT_TRUE(sawUnreachable);

    // Workers advertise the partial-encoding revision in health too —
    // the field the coordinator's handshake keys on.
    Session workerSession = connect(worker);
    Expected<Response> health = workerSession.health();
    ASSERT_TRUE(health.ok());
    ASSERT_TRUE(health.value().ok);
    const JsonValue *advertised =
        health.value().result.find("partial_encoding");
    ASSERT_NE(advertised, nullptr);
    EXPECT_EQ(advertised->asNumber(), partialEncodingRevision());
}

// ----------------------------------------------- distributed tracing

TEST_F(ClusterTest, OneTraceIdSpansCoordinatorAndWorkers)
{
    // Record before the daemons start, as `serve --self-trace-corpus`
    // does, with two request workers per daemon, so the gather's
    // requests can run on either thread of each node. The propagated
    // parent must win on every node.
    Telemetry::setEnabled(true);
    Telemetry::reset();
    ServerConfig pooled;
    pooled.workers = 2;
    Daemon worker1 = startWorker(pooled);
    Daemon worker2 = startWorker(pooled);
    Daemon coord = startCoordinator(
        {worker1.address(), worker2.address()}, 10000, pooled);

    // Root a trace at the client; the coordinator adopts it and the
    // scatter propagates it over real TCP to every worker, so every
    // server.request span in the gather carries the one trace id.
    const std::uint64_t traceId = 0x1ce7ea5eb0b5ca1eull;
    Session session = connect(coord);
    ASSERT_TRUE(session.tracingNegotiated());
    CallOptions options;
    options.traceContext.traceId = traceId;
    options.traceContext.parentSpanId = 0xbeef;
    options.traceContext.sampled = true;
    Expected<Response> response =
        session.analyze(analyzeRequest(), options);
    ASSERT_TRUE(response.ok()) << response.error().render();
    ASSERT_TRUE(response.value().ok)
        << response.value().error.message;

    // Spans commit when their scopes close (after the responses are
    // sent), so poll until the partials and the coordinator's own
    // request span are all in. Every daemon runs in this process, so
    // the process-wide buffer holds all three nodes' spans.
    std::vector<SpanSnapshot> traced;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    std::size_t partials = 0;
    while (std::chrono::steady_clock::now() < deadline) {
        traced.clear();
        partials = 0;
        bool rootCommitted = false;
        for (SpanSnapshot &span : Telemetry::snapshotSpans())
            if (span.traceId == traceId)
                traced.push_back(std::move(span));
        for (const SpanSnapshot &span : traced)
            for (const auto &[key, value] : span.args) {
                if (key == "method" && value == "analyze_partial")
                    ++partials;
                if (key == "method" && value == "analyze" &&
                    span.name == "server.request")
                    rootCommitted = true;
            }
        if (partials >= 2 && rootCommitted)
            break;
        ::usleep(20'000);
    }

    // The coordinator's request span is the root: it adopted the
    // client's parent id.
    std::map<std::uint64_t, const SpanSnapshot *> byId;
    const SpanSnapshot *root = nullptr;
    for (const SpanSnapshot &span : traced) {
        if (span.spanId != 0)
            byId[span.spanId] = &span;
        for (const auto &[key, value] : span.args)
            if (key == "method" && value == "analyze" &&
                span.name == "server.request")
                root = &span;
    }
    ASSERT_NE(root, nullptr) << "no coordinator request span";
    EXPECT_EQ(root->parentSpanId, 0xbeefu);

    // Every worker-side partial span must chain back to that root
    // through resolvable parent edges — the property the stitcher's
    // flow arrows render. 4 shards over 2 workers means at least two
    // partial requests crossed the wire.
    EXPECT_GE(partials, 2u);
    std::size_t chained = 0;
    for (const SpanSnapshot &span : traced) {
        bool isPartial = false;
        for (const auto &[key, value] : span.args)
            if (key == "method" && value == "analyze_partial")
                isPartial = true;
        if (!isPartial)
            continue;
        const SpanSnapshot *hop = &span;
        for (int depth = 0; depth < 16 && hop != nullptr &&
                            hop != root;
             ++depth) {
            const auto parent = byId.find(hop->parentSpanId);
            hop = parent == byId.end() ? nullptr : parent->second;
        }
        EXPECT_EQ(hop, root)
            << "partial span does not chain to the root";
        if (hop == root)
            ++chained;
    }
    EXPECT_EQ(chained, partials);

    Telemetry::setEnabled(false);
    Telemetry::reset();
}

TEST_F(ClusterTest, ClusterTraceStitchesEveryNode)
{
    Daemon worker1 = startWorker();
    Daemon worker2 = startWorker();
    Daemon coord = startCoordinator(
        {worker1.address(), worker2.address()});

    Telemetry::setEnabled(true);
    Telemetry::reset();

    Session session = connect(coord);
    Expected<Response> analyzed =
        session.analyze(analyzeRequest());
    ASSERT_TRUE(analyzed.ok());
    ASSERT_TRUE(analyzed.value().ok);

    Expected<Response> stitched = session.call(
        Method::ClusterTrace, JsonValue::makeObject(), {});
    ASSERT_TRUE(stitched.ok()) << stitched.error().render();
    ASSERT_TRUE(stitched.value().ok)
        << stitched.value().error.message;
    const JsonValue &result = stitched.value().result;
    const JsonValue *nodes = result.find("nodes");
    ASSERT_NE(nodes, nullptr);
    EXPECT_EQ(nodes->asNumber(), 3.0); // coordinator + 2 workers
    const JsonValue *trace = result.find("trace");
    ASSERT_NE(trace, nullptr);
    ASSERT_TRUE(trace->isString());

    // The stitched document is valid Chrome-trace JSON with one pid
    // namespace per node (metadata events name them).
    Expected<JsonValue> parsed = JsonValue::parse(trace->asString());
    ASSERT_TRUE(parsed.ok()) << parsed.error().render();
    EXPECT_NE(trace->asString().find("\"process_name\""),
              std::string::npos);
    EXPECT_NE(trace->asString().find("coordinator @"),
              std::string::npos);
    EXPECT_NE(trace->asString().find("worker @"),
              std::string::npos);

    // A worker must refuse the coordinator-only method.
    Session workerSession = connect(worker1);
    Expected<Response> refused = workerSession.call(
        Method::ClusterTrace, JsonValue::makeObject(), {});
    ASSERT_TRUE(refused.ok());
    EXPECT_FALSE(refused.value().ok);

    Telemetry::setEnabled(false);
    Telemetry::reset();
}

} // namespace
} // namespace server
} // namespace tracelens
