/**
 * @file
 * Self-telemetry for the TraceLens pipeline: the analysis tool emits a
 * trace of its own execution.
 *
 * TraceLens reproduces a paper about comprehending performance from
 * execution traces, so the pipeline instruments itself with the same
 * discipline it applies to device drivers. Three facilities share this
 * module (the leveled TL_LOG sink lives in src/util/logging.h):
 *
 *  - Spans: RAII scopes (TL_SPAN / Span) recorded into per-thread
 *    buffers with wall time, thread CPU time, nesting depth, and
 *    optional key/value args. The whole recording is flushable as
 *    Chrome trace_event JSON (CLI: --trace-out FILE) and loads
 *    directly in Perfetto / chrome://tracing as a flame view of the
 *    ingest -> wait-graph -> impact -> AWG -> mining pipeline.
 *  - Metrics: a registry of named counters, gauges, and log-scale
 *    histograms (p50/p95/p99). Components count into the
 *    process-wide registry (MetricsRegistry::global()); its
 *    snapshot() is what --metrics-out FILE writes and the daemon's
 *    `metrics` method and Prometheus listener expose.
 *
 * Overhead contract: span recording is off by default; a disabled
 * Span costs one relaxed atomic load. Enabled recording appends to a
 * per-thread buffer behind a per-thread mutex that is uncontended
 * except during a flush, so cross-thread cache traffic stays nil on
 * the hot path. Spans are placed at shard/stage granularity, never
 * per event; bench_scale gates the measured end-to-end overhead at
 * < 3% (BENCH_telemetry.json).
 *
 * Naming conventions (docs/TELEMETRY.md): span names are
 * "<layer>.<operation>" ("waitgraph.build-range", "pool.worker"),
 * categories are the coarse layer ("ingest", "analysis", "pool",
 * "cli"); metric names are dot-paths ("analyzer.fragments",
 * "source.shard_loads", "pool.queue_depth").
 */

#ifndef TRACELENS_UTIL_TELEMETRY_H
#define TRACELENS_UTIL_TELEMETRY_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/logging.h"

namespace tracelens
{

// --------------------------------------------------------------- metrics

/** Monotonic event counter. All operations are thread-safe. */
class Counter
{
  public:
    void add(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value. Thread-safe. */
class Gauge
{
  public:
    void set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Log-scale histogram of non-negative integer samples.
 *
 * Values 0..7 get exact buckets; above that each power-of-two octave
 * splits into 8 geometric sub-buckets, so any recorded value is
 * represented with <= ~6% relative error — plenty for p50/p95/p99 on
 * latency- and depth-shaped distributions, at a fixed 496 buckets and
 * lock-free recording (one relaxed atomic increment per sample).
 */
class Histogram
{
  public:
    /** Sub-buckets per power-of-two octave (8 = 3 mantissa bits). */
    static constexpr std::uint32_t kSubBuckets = 8;
    /** Exact buckets 0..7, then 8 per octave for msb 3..63. */
    static constexpr std::size_t kBuckets = kSubBuckets * 62;

    /**
     * Transportable bucket state: the exact occupied buckets plus the
     * scalar accumulators. Because the bucket boundaries are fixed for
     * every Histogram, merging two states bucket-wise is *exact* — a
     * merged histogram answers every percentile query identically to
     * one that recorded the whole population directly. This is what
     * lets the coordinator aggregate worker latency histograms without
     * the quantile-averaging error naive aggregation incurs.
     */
    struct State
    {
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t max = 0;
        /** (bucket index, occupancy), occupied buckets only, index
         *  ascending. */
        std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
    };

    void record(std::uint64_t value);

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    std::uint64_t sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }
    std::uint64_t max() const
    {
        return max_.load(std::memory_order_relaxed);
    }

    /**
     * Approximate value at quantile @p q in [0, 1] (bucket midpoint);
     * 0 when the histogram is empty.
     */
    std::uint64_t percentile(double q) const;

    /** Snapshot the bucket state (see State). */
    State state() const;

    /** Fold a snapshot (e.g. one shipped from a worker) into this
     *  histogram; out-of-range bucket indices are ignored. */
    void mergeState(const State &other);

  private:
    static std::uint32_t bucketOf(std::uint64_t value);
    /** Representative (midpoint) value of bucket @p bucket. */
    static std::uint64_t bucketValue(std::uint32_t bucket);

    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> max_{0};
};

/**
 * A point-in-time copy of a registry's metrics, detached from the
 * live atomics — the unit that crosses process boundaries (the
 * `metrics` protocol method ships one as JSON) and the input to both
 * exposition renderers. Histograms carry full bucket state, so
 * merging snapshots from many workers into one registry is exact.
 */
struct MetricsSnapshot
{
    /** (name, value), name ascending. */
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::State>> histograms;
};

/**
 * Render a snapshot in the Prometheus text exposition format
 * (version 0.0.4). Metric names are prefixed "tracelens_" and
 * sanitized (dots -> underscores); @p labels (e.g. {{"node",
 * "10.0.0.1:7070"}, {"role", "worker"}}) are attached to every
 * sample. Counters render as `counter`, gauges as `gauge`, and
 * histograms as `summary` (p50/p90/p99 quantiles plus _sum/_count,
 * the idiomatic shape for client-side quantiles).
 */
std::string renderPrometheus(
    const MetricsSnapshot &snapshot,
    const std::vector<std::pair<std::string, std::string>> &labels);

/**
 * Named metrics, created on first use and stable for the registry's
 * lifetime (returned references never invalidate). Lookup takes a
 * mutex; the returned handles are lock-free, so hot paths resolve a
 * metric once and hold the reference.
 *
 * Most code counts into the process-wide registry (global()).
 * Registries are also instantiable: the coordinator folds its workers'
 * snapshots into one of its own with merge().
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The metric named @p name, creating it on first use. Panics if
     *  the name already exists as a different metric kind. */
    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    Histogram &histogram(std::string_view name);

    /** The counter named @p name, or nullptr if never created. */
    const Counter *findCounter(std::string_view name) const;

    /** Detached copy of every metric, names ascending. */
    MetricsSnapshot snapshot() const;

    /**
     * Fold a snapshot into this registry by name: counters add,
     * gauges overwrite, histograms merge bucket state (exact — see
     * Histogram::State).
     */
    void merge(const MetricsSnapshot &snapshot);

    /** Drop every metric (tests). Outstanding references invalidate. */
    void reset();

    /** The process-wide registry (--metrics-out dumps this one). */
    static MetricsRegistry &global();

  private:
    struct Cell
    {
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    mutable std::mutex mutex_;
    std::map<std::string, Cell, std::less<>> cells_;
};

// ----------------------------------------------------------------- spans

/**
 * Propagated trace identity: which distributed trace the current work
 * belongs to and which span caused it. This is the compact context
 * the protocol-v2 REQUEST frame carries across the wire (trace id,
 * parent span id, sampling flag), so a query's spans on the client,
 * the coordinator, and every worker stitch into one causal tree.
 * A zero trace id means "no context".
 */
struct SpanContext
{
    std::uint64_t traceId = 0;
    std::uint64_t parentSpanId = 0;
    bool sampled = false;

    bool valid() const { return traceId != 0; }
};

/**
 * Installs @p context as the calling thread's current trace context
 * for the scope's lifetime (restoring the previous one on exit).
 * Spans opened while the scope is active record the context's trace
 * id, and the first span opened inside the scope adopts the context's
 * parent span id — whatever spans already enclose the thread (a daemon
 * handler runs inside its pool thread's lifetime `pool.worker` span).
 * This is the receiving half of cross-process propagation.
 */
class TraceContextScope
{
  public:
    explicit TraceContextScope(const SpanContext &context);
    ~TraceContextScope();

    TraceContextScope(const TraceContextScope &) = delete;
    TraceContextScope &operator=(const TraceContextScope &) = delete;

  private:
    SpanContext saved_;
    std::size_t savedDepth_;
};

/**
 * RAII span: records one entry into the calling thread's telemetry
 * buffer when recording is enabled (Telemetry::setEnabled), and costs
 * a single relaxed atomic load when it is not. Name and category must
 * be string literals (the recording keeps the pointers).
 *
 * Every active span is assigned a process-unique 64-bit id and
 * records its parent (the innermost enclosing span on the thread, or
 * the propagated remote parent for the first span opened inside a
 * TraceContextScope) plus the current trace id — the edges the
 * distributed stitcher walks.
 */
class Span
{
  public:
    Span(const char *name, const char *category);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Whether this span is recording (telemetry enabled at entry). */
    bool active() const { return active_; }

    /** This span's id (0 on an inactive span). */
    std::uint64_t id() const { return spanId_; }

    /** Attach a key/value arg (shown in the trace viewer). The key
     *  must be a string literal. No-op on an inactive span. */
    void arg(const char *key, std::string value);
    void arg(const char *key, std::uint64_t value);

  private:
    const char *name_;
    const char *category_;
    std::uint64_t startUs_ = 0;
    std::uint64_t cpuStartNs_ = 0;
    std::uint64_t spanId_ = 0;
    std::uint64_t parentSpanId_ = 0;
    std::uint64_t traceId_ = 0;
    std::vector<std::pair<const char *, std::string>> args_;
    bool active_ = false;
};

/**
 * A 64-bit telemetry id rendered as 16 hex digits. Trace/span ids
 * cross JSON as strings in this form — a JSON number is a double and
 * cannot hold 64 bits losslessly.
 */
std::string hexId(std::uint64_t id);

/** Inverse of hexId(); returns 0 (the "no id" value) on malformed
 *  or oversized input. */
std::uint64_t parseHexId(std::string_view text);

/** One finished span, detached from the recording buffers — the unit
 *  `telemetry_pull` ships and the TLC1 self-trace writer consumes. */
struct SpanSnapshot
{
    std::string name;
    std::string category;
    std::uint32_t tid = 0;
    std::uint32_t depth = 0;
    std::uint64_t startUs = 0; //!< Relative to Telemetry::epochUnixUs.
    std::uint64_t durUs = 0;
    std::uint64_t cpuNs = 0;
    std::uint64_t traceId = 0;
    std::uint64_t spanId = 0;
    std::uint64_t parentSpanId = 0;
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * One process's span buffer in a multi-node merge: the spans, the
 * Chrome-trace pid namespace they render under, and the node's
 * telemetry epoch as wall-clock microseconds (used to rebase every
 * node onto one timeline). Distinct nodes MUST use distinct pids —
 * that is the fix for the tid-aliasing bug two processes' traces
 * used to hit when concatenated.
 */
struct NodeSpans
{
    std::string node;       //!< Display name ("coordinator @ host:port").
    std::uint32_t pid = 1;  //!< Chrome-trace pid namespace for the node.
    std::uint64_t epochUnixUs = 0; //!< 0 = leave timestamps as recorded.
    std::vector<SpanSnapshot> spans;
};

#define TL_TELEMETRY_CONCAT2(a, b) a##b
#define TL_TELEMETRY_CONCAT(a, b) TL_TELEMETRY_CONCAT2(a, b)

/** Scope-level span: TL_SPAN("mining.mine", "analysis"); */
#define TL_SPAN(name, category) \
    ::tracelens::Span TL_TELEMETRY_CONCAT(tlSpan_, \
                                          __LINE__)(name, category)

/** Process-wide span recording control and the Chrome-trace sink. */
class Telemetry
{
  public:
    /** Whether spans record (off by default; --trace-out enables). */
    static bool enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    static void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** Drop every recorded span (buffers stay registered). */
    static void reset();

    /** Spans recorded so far, across all threads. */
    static std::size_t spanCount();

    /**
     * The recording as Chrome trace_event JSON: one "X" (complete)
     * event per span with ts/dur in microseconds, thread CPU time and
     * nesting depth as args, sorted by (tid, ts) so per-thread
     * timestamps are monotonic. Loads in Perfetto / chrome://tracing.
     */
    static std::string renderChromeTrace();

    /**
     * Merge several nodes' span buffers into one Chrome trace. Every
     * node renders under its own pid with `process_name` /
     * `thread_name` metadata events (so two nodes' thread ids can
     * never alias), timestamps are rebased onto one wall-clock
     * timeline via each node's epoch, and a flow arrow is emitted for
     * every cross-node parent edge — a distributed gather renders as
     * one causal tree.
     */
    static std::string
    renderChromeTraceMerged(const std::vector<NodeSpans> &nodes);

    /** Detached copies of every recorded span, across all threads. */
    static std::vector<SpanSnapshot> snapshotSpans();

    /** Write renderChromeTrace() to @p path; false on I/O failure. */
    static bool writeChromeTrace(const std::string &path);

    /**
     * The wall-clock time (unix microseconds) of the process's
     * telemetry epoch — span startUs values are relative to this.
     */
    static std::uint64_t epochUnixUs();

    /** A fresh process-unique-ish 64-bit trace id (never 0). */
    static std::uint64_t newTraceId();

    /**
     * The context to propagate to a downstream call made from the
     * calling thread: the current trace id and sampling flag (from
     * the innermost TraceContextScope), with the innermost span
     * opened inside that scope as the parent — or the scope's own
     * propagated parent until the first span is opened inside it.
     */
    static SpanContext currentContext();

  private:
    static std::atomic<bool> enabled_;
};

} // namespace tracelens

#endif // TRACELENS_UTIL_TELEMETRY_H
