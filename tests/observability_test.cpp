/**
 * @file
 * Distributed-observability tests (docs/TELEMETRY.md "Distributed
 * tracing & metrics"): exact bucket-wise histogram-state merging, the
 * Prometheus text exposition renderer, the metrics/span JSON codecs
 * the `metrics` and `telemetry_pull` protocol methods ship, the
 * multi-node Chrome-trace stitcher (pid namespacing, metadata events,
 * cross-node flow arrows), trace-context propagation through spans,
 * and the per-request flight recorder ring. Built into the "obs"
 * ctest label so the subset runs under both sanitizers
 * (ctest --preset asan-obs / tsan-obs).
 */

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/server/flightrecorder.h"
#include "src/server/protocol.h"
#include "src/util/json.h"
#include "src/util/telemetry.h"

namespace tracelens
{
namespace
{

// ------------------------------------------------- histogram merging

TEST(ObsHistogramState, MergedPercentilesEqualWholePopulation)
{
    // The property the coordinator's metrics aggregation rests on:
    // bucket boundaries are fixed, so merging per-worker states is
    // *exact* — every percentile query answers identically to a
    // histogram that saw the whole population. A skewed quadratic
    // distribution exercises many octaves.
    Histogram whole, workerA, workerB, workerC;
    for (std::uint64_t i = 0; i < 3000; ++i) {
        const std::uint64_t sample = i * i / 7;
        whole.record(sample);
        (i % 3 == 0 ? workerA : i % 3 == 1 ? workerB : workerC)
            .record(sample);
    }

    Histogram merged;
    merged.mergeState(workerA.state());
    merged.mergeState(workerB.state());
    merged.mergeState(workerC.state());

    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_EQ(merged.sum(), whole.sum());
    EXPECT_EQ(merged.max(), whole.max());
    for (const double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0})
        EXPECT_EQ(merged.percentile(q), whole.percentile(q))
            << "quantile " << q;
}

TEST(ObsHistogramState, StateIsSparseAndIgnoresBogusBuckets)
{
    Histogram histogram;
    histogram.record(3);
    histogram.record(3);
    histogram.record(1000);

    const Histogram::State state = histogram.state();
    EXPECT_EQ(state.count, 3u);
    EXPECT_EQ(state.sum, 1006u);
    EXPECT_EQ(state.max, 1000u);
    // Only occupied buckets ship (the wire format stays tiny even
    // though the histogram owns 496 buckets).
    ASSERT_EQ(state.buckets.size(), 2u);
    EXPECT_LT(state.buckets[0].first, state.buckets[1].first);

    // A hostile state with an out-of-range index must not write out
    // of bounds; the bogus bucket is dropped, the scalars still fold.
    Histogram::State hostile;
    hostile.count = 1;
    hostile.sum = 5;
    hostile.max = 5;
    hostile.buckets.emplace_back(1u << 20, 1);
    Histogram victim;
    victim.mergeState(hostile);
    EXPECT_EQ(victim.count(), 1u);
    // No bucket landed, so the quantile scan exhausts the buckets and
    // falls back to the merged max.
    EXPECT_EQ(victim.percentile(0.5), 5u);
}

TEST(ObsHistogramState, RegistrySnapshotMergeIsExact)
{
    MetricsRegistry worker1, worker2, aggregate;
    worker1.counter("server.requests").add(7);
    worker2.counter("server.requests").add(5);
    worker1.gauge("pool.queue_depth").set(3.0);
    for (std::uint64_t i = 0; i < 500; ++i)
        (i % 2 == 0 ? worker1 : worker2)
            .histogram("server.latency_us")
            .record(i * 13);

    aggregate.merge(worker1.snapshot());
    aggregate.merge(worker2.snapshot());

    Histogram whole;
    for (std::uint64_t i = 0; i < 500; ++i)
        whole.record(i * 13);
    EXPECT_EQ(aggregate.counter("server.requests").value(), 12u);
    EXPECT_EQ(aggregate.gauge("pool.queue_depth").value(), 3.0);
    Histogram &merged = aggregate.histogram("server.latency_us");
    EXPECT_EQ(merged.count(), whole.count());
    for (const double q : {0.5, 0.95, 0.99})
        EXPECT_EQ(merged.percentile(q), whole.percentile(q));
}

// --------------------------------------------- Prometheus exposition

TEST(ObsPrometheus, RendersTextExpositionFormat)
{
    MetricsRegistry registry;
    registry.counter("server.requests").add(42);
    registry.gauge("pool.queue_depth").set(2.5);
    registry.histogram("server.latency_us").record(100);
    registry.histogram("server.latency_us").record(200);

    const std::string text = renderPrometheus(
        registry.snapshot(),
        {{"node", "127.0.0.1:7070"}, {"role", "worker"}});

    // Names are prefixed and sanitized, every sample carries the
    // label set, histograms render as summaries with quantiles.
    EXPECT_NE(text.find("# TYPE tracelens_server_requests counter"),
              std::string::npos);
    EXPECT_NE(text.find("tracelens_server_requests{node=\"127.0.0.1:"
                        "7070\",role=\"worker\"} 42"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE tracelens_pool_queue_depth gauge"),
              std::string::npos);
    EXPECT_NE(
        text.find("# TYPE tracelens_server_latency_us summary"),
        std::string::npos);
    EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
    EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
    EXPECT_NE(text.find("tracelens_server_latency_us_sum"),
              std::string::npos);
    EXPECT_NE(text.find("tracelens_server_latency_us_count{node="),
              std::string::npos);
    // No un-sanitized dots may survive in metric names.
    EXPECT_EQ(text.find("tracelens_server.requests"),
              std::string::npos);
    EXPECT_EQ(text.back(), '\n');
}

// ------------------------------------------------- wire JSON codecs

TEST(ObsCodec, HexIdRoundTripsAndRejectsMalformed)
{
    // 64-bit ids cross JSON as 16-hex-digit strings (a JSON number is
    // a double — 53 mantissa bits lose the top of the id space).
    const std::uint64_t id = 0xdeadbeefcafebabeull;
    EXPECT_EQ(hexId(id).size(), 16u);
    EXPECT_EQ(parseHexId(hexId(id)), id);
    EXPECT_EQ(parseHexId(hexId(1)), 1u);
    EXPECT_EQ(parseHexId("DEADBEEFCAFEBABE"), id); // case-insensitive
    EXPECT_EQ(parseHexId(""), 0u);
    EXPECT_EQ(parseHexId("xyz"), 0u);
    EXPECT_EQ(parseHexId("00000000000000001"), 0u); // 17 digits
    EXPECT_EQ(parseHexId("12g4"), 0u);
}

TEST(ObsCodec, MetricsSnapshotJsonRoundTrips)
{
    MetricsRegistry registry;
    registry.counter("server.requests").add(9);
    registry.counter("server.errors").add(1);
    registry.gauge("pool.queue_depth").set(1.25);
    for (std::uint64_t i = 1; i <= 100; ++i)
        registry.histogram("server.latency_us").record(i * 31);
    const MetricsSnapshot snapshot = registry.snapshot();

    const MetricsSnapshot back = server::parseMetricsSnapshot(
        server::metricsSnapshotJson(snapshot));

    ASSERT_EQ(back.counters.size(), snapshot.counters.size());
    EXPECT_EQ(back.counters, snapshot.counters);
    ASSERT_EQ(back.gauges.size(), snapshot.gauges.size());
    EXPECT_EQ(back.gauges, snapshot.gauges);
    ASSERT_EQ(back.histograms.size(), 1u);
    const Histogram::State &state = back.histograms[0].second;
    const Histogram::State &original = snapshot.histograms[0].second;
    EXPECT_EQ(state.count, original.count);
    EXPECT_EQ(state.sum, original.sum);
    EXPECT_EQ(state.max, original.max);
    EXPECT_EQ(state.buckets, original.buckets);
}

TEST(ObsCodec, ParseMetricsSnapshotToleratesMissingSections)
{
    // Old peers (or hand-written probes) may ship partial documents;
    // the parser must not require every section.
    const MetricsSnapshot empty =
        server::parseMetricsSnapshot(JsonValue::makeObject());
    EXPECT_TRUE(empty.counters.empty());
    EXPECT_TRUE(empty.gauges.empty());
    EXPECT_TRUE(empty.histograms.empty());
}

TEST(ObsCodec, NodeSpansJsonRoundTripsFullWidthIds)
{
    NodeSpans node;
    node.node = "worker @ 127.0.0.1:7071";
    node.epochUnixUs = 1'700'000'000'000'000ull;
    SpanSnapshot span;
    span.name = "server.request";
    span.category = "server";
    span.tid = 3;
    span.depth = 1;
    span.startUs = 500;
    span.durUs = 1200;
    span.cpuNs = 900'000;
    span.traceId = 0xfedcba9876543210ull;
    span.spanId = 0x0123456789abcdefull;
    span.parentSpanId = 0xaaaabbbbccccddddull;
    span.args.emplace_back("method", "analyze");
    node.spans.push_back(span);
    SpanSnapshot untraced;
    untraced.name = "analyzer.ingest-shard";
    untraced.category = "analysis";
    untraced.startUs = 10;
    untraced.durUs = 20;
    node.spans.push_back(untraced);

    const NodeSpans back =
        server::parseNodeSpans(server::nodeSpansJson(node));

    EXPECT_EQ(back.node, node.node);
    EXPECT_EQ(back.epochUnixUs, node.epochUnixUs);
    ASSERT_EQ(back.spans.size(), 2u);
    const SpanSnapshot &traced = back.spans[0];
    EXPECT_EQ(traced.name, "server.request");
    EXPECT_EQ(traced.tid, 3u);
    EXPECT_EQ(traced.depth, 1u);
    EXPECT_EQ(traced.startUs, 500u);
    EXPECT_EQ(traced.durUs, 1200u);
    EXPECT_EQ(traced.cpuNs, 900'000u);
    EXPECT_EQ(traced.traceId, span.traceId);
    EXPECT_EQ(traced.spanId, span.spanId);
    EXPECT_EQ(traced.parentSpanId, span.parentSpanId);
    ASSERT_EQ(traced.args.size(), 1u);
    EXPECT_EQ(traced.args[0].first, "method");
    EXPECT_EQ(traced.args[0].second, "analyze");
    EXPECT_EQ(back.spans[1].traceId, 0u);
}

// -------------------------------------------- multi-node stitching

TEST(ObsChromeMerge, NamespacesPidsAndEmitsMetadata)
{
    // Two nodes whose spans share tid 7 — exactly the collision that
    // used to alias threads when two processes' traces were
    // concatenated. Each node must render under its own pid with
    // process_name/thread_name metadata.
    std::vector<NodeSpans> nodes(2);
    nodes[0].node = "coordinator @ 127.0.0.1:7000";
    nodes[0].pid = 1;
    nodes[0].epochUnixUs = 1000;
    nodes[1].node = "worker @ 127.0.0.1:7001";
    nodes[1].pid = 2;
    nodes[1].epochUnixUs = 1500;
    for (int n = 0; n < 2; ++n) {
        SpanSnapshot span;
        span.name = n == 0 ? "server.request" : "handler.analyze";
        span.category = "server";
        span.tid = 7;
        span.startUs = 100;
        span.durUs = 50;
        span.spanId = static_cast<std::uint64_t>(n + 1);
        nodes[n].spans.push_back(span);
    }

    const std::string trace =
        Telemetry::renderChromeTraceMerged(nodes);
    Expected<JsonValue> parsed = JsonValue::parse(trace);
    ASSERT_TRUE(parsed.ok()) << parsed.error().render();

    EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
    EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(trace.find("coordinator @ 127.0.0.1:7000"),
              std::string::npos);
    EXPECT_NE(trace.find("worker @ 127.0.0.1:7001"),
              std::string::npos);
    // Each node's X event lands in its own pid namespace, and the
    // later node's epoch delta rebases its timestamps (+500 us).
    EXPECT_NE(trace.find("\"ph\": \"X\", \"pid\": 1, \"tid\": 7, "
                         "\"ts\": 100"),
              std::string::npos);
    EXPECT_NE(trace.find("\"ph\": \"X\", \"pid\": 2, \"tid\": 7, "
                         "\"ts\": 600"),
              std::string::npos);
}

TEST(ObsChromeMerge, CrossNodeParentEdgesBecomeFlowArrows)
{
    std::vector<NodeSpans> nodes(2);
    nodes[0].node = "coordinator";
    nodes[0].pid = 1;
    nodes[1].node = "worker";
    nodes[1].pid = 2;

    SpanSnapshot parent;
    parent.name = "server.request";
    parent.category = "server";
    parent.tid = 1;
    parent.startUs = 10;
    parent.durUs = 100;
    parent.traceId = 0x42;
    parent.spanId = 0x1001;
    nodes[0].spans.push_back(parent);

    SpanSnapshot child;
    child.name = "server.request";
    child.category = "server";
    child.tid = 9;
    child.startUs = 30;
    child.durUs = 40;
    child.traceId = 0x42;
    child.spanId = 0x2002;
    child.parentSpanId = 0x1001; // lives on the other node
    nodes[1].spans.push_back(child);

    const std::string trace =
        Telemetry::renderChromeTraceMerged(nodes);
    Expected<JsonValue> parsed = JsonValue::parse(trace);
    ASSERT_TRUE(parsed.ok()) << parsed.error().render();

    // One flow start on the parent's node, one flow finish on the
    // child's, bound by the child's span id.
    const std::string flowId = hexId(0x2002);
    EXPECT_NE(trace.find("\"ph\": \"s\", \"id\": \"" + flowId + "\""),
              std::string::npos);
    EXPECT_NE(trace.find("\"ph\": \"f\", \"bp\": \"e\", \"id\": \"" +
                         flowId + "\""),
              std::string::npos);
    // A same-node parent edge must NOT draw an arrow: rerender with
    // both spans on one node and the flow events disappear.
    nodes[0].spans.push_back(child);
    nodes[1].spans.clear();
    const std::string sameNode =
        Telemetry::renderChromeTraceMerged(nodes);
    EXPECT_EQ(sameNode.find("\"ph\": \"s\""), std::string::npos);
}

// ------------------------------------------ trace-context plumbing

TEST(ObsSpanContext, ScopeInstallsContextAndSpansInheritIt)
{
    Telemetry::setEnabled(true);
    Telemetry::reset();
    {
        SpanContext incoming;
        incoming.traceId = 0xabcdef0123456789ull;
        incoming.parentSpanId = 0x7777;
        incoming.sampled = true;
        TraceContextScope scope(incoming);
        Span span("server.request", "server");
        ASSERT_TRUE(span.active());
        // Work dispatched from inside the span propagates the trace
        // id with the span itself as the parent.
        const SpanContext outgoing = Telemetry::currentContext();
        EXPECT_EQ(outgoing.traceId, incoming.traceId);
        EXPECT_EQ(outgoing.parentSpanId, span.id());
        EXPECT_TRUE(outgoing.sampled);
    }
    // The scope restored the thread to "no context".
    EXPECT_FALSE(Telemetry::currentContext().valid());

    const std::vector<SpanSnapshot> spans = Telemetry::snapshotSpans();
    ASSERT_EQ(spans.size(), 1u);
    // The root span adopted the remote parent — the receiving half of
    // cross-process propagation.
    EXPECT_EQ(spans[0].traceId, 0xabcdef0123456789ull);
    EXPECT_EQ(spans[0].parentSpanId, 0x7777u);
    EXPECT_NE(spans[0].spanId, 0u);
    Telemetry::setEnabled(false);
    Telemetry::reset();
}

TEST(ObsSpanContext, ScopeParentWinsOverEnclosingThreadSpan)
{
    Telemetry::setEnabled(true);
    Telemetry::reset();
    SpanContext incoming;
    incoming.traceId = 0x0123456789abcdefull;
    incoming.parentSpanId = 0x4242;
    incoming.sampled = true;
    std::uint64_t outerId = 0;
    std::uint64_t requestId = 0;
    std::uint64_t childId = 0;
    std::uint64_t afterId = 0;
    {
        // Stands in for the lifetime pool.worker span every daemon
        // handler thread runs inside.
        Span outer("pool.worker", "pool");
        ASSERT_TRUE(outer.active());
        outerId = outer.id();
        {
            TraceContextScope scope(incoming);
            // Before any span opens inside the scope, a downstream
            // call carries the caller's parent, not the pool span.
            const SpanContext before = Telemetry::currentContext();
            EXPECT_EQ(before.traceId, incoming.traceId);
            EXPECT_EQ(before.parentSpanId, 0x4242u);
            Span request("server.request", "server");
            requestId = request.id();
            {
                Span child("server.handle", "server");
                childId = child.id();
            }
        }
        // Outside the scope the thread's own nesting applies again.
        EXPECT_EQ(Telemetry::currentContext().parentSpanId, outerId);
        Span after("pool.next", "pool");
        afterId = after.id();
    }

    std::map<std::uint64_t, SpanSnapshot> byId;
    for (SpanSnapshot &span : Telemetry::snapshotSpans())
        byId[span.spanId] = std::move(span);
    ASSERT_EQ(byId.size(), 4u);
    // The first span inside the scope adopted the propagated parent,
    // even though the pool span still enclosed the thread.
    EXPECT_EQ(byId[requestId].parentSpanId, 0x4242u);
    EXPECT_EQ(byId[requestId].traceId, incoming.traceId);
    // Its child nests under it as usual.
    EXPECT_EQ(byId[childId].parentSpanId, requestId);
    EXPECT_EQ(byId[childId].traceId, incoming.traceId);
    // After the scope closes, a new span parents onto the outer span.
    EXPECT_EQ(byId[afterId].parentSpanId, outerId);
    EXPECT_EQ(byId[afterId].traceId, 0u);
    EXPECT_EQ(byId[outerId].parentSpanId, 0u);
    Telemetry::setEnabled(false);
    Telemetry::reset();
}

TEST(ObsSpanContext, NewTraceIdsAreNonZeroAndDistinct)
{
    const std::uint64_t a = Telemetry::newTraceId();
    const std::uint64_t b = Telemetry::newTraceId();
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
}

// --------------------------------------------------- flight recorder

TEST(ObsFlightRecorder, BoundedRingKeepsNewestOldestFirst)
{
    server::FlightRecorder recorder(4);
    EXPECT_EQ(recorder.capacity(), 4u);
    for (std::uint64_t i = 0; i < 10; ++i) {
        server::FlightRecord record;
        record.method = "sleep";
        record.totalUs = i;
        recorder.record(record);
    }
    EXPECT_EQ(recorder.total(), 10u);
    const std::vector<server::FlightRecord> records =
        recorder.snapshot();
    ASSERT_EQ(records.size(), 4u);
    // Oldest-first among the survivors: 6, 7, 8, 9.
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(records[i].totalUs, 6u + i);
}

TEST(ObsFlightRecorder, CapacityFloorsAtOne)
{
    server::FlightRecorder recorder(0);
    EXPECT_EQ(recorder.capacity(), 1u);
    server::FlightRecord record;
    record.method = "health";
    recorder.record(record);
    record.method = "stats";
    recorder.record(record);
    const std::vector<server::FlightRecord> records =
        recorder.snapshot();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].method, "stats");
    EXPECT_EQ(recorder.total(), 2u);
}

} // namespace
} // namespace tracelens
