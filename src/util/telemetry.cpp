/**
 * @file
 * Telemetry implementation: log-scale histograms, the metrics
 * registry, per-thread span buffers, and the Chrome trace_event JSON
 * writer.
 *
 * Span recording layout: every thread lazily registers one
 * ThreadBuffer in a process-wide list and appends finished spans to
 * it. The buffer's mutex is only ever contended by a flush
 * (renderChromeTrace / reset), so steady-state recording touches no
 * shared cache line except the enabled flag. Buffers are shared_ptr's
 * held by both the thread (thread_local) and the registry, so spans
 * recorded by pool workers survive the worker's exit and still appear
 * in the flush.
 */

#include "src/util/telemetry.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <ctime>
#include <fstream>
#include <unordered_map>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "src/util/hash.h"

namespace tracelens
{

// ------------------------------------------------------------- Histogram

std::uint32_t
Histogram::bucketOf(std::uint64_t value)
{
    if (value < kSubBuckets)
        return static_cast<std::uint32_t>(value);
    const int msb = 63 - std::countl_zero(value);
    const auto sub = static_cast<std::uint32_t>(
        (value >> (msb - 3)) & (kSubBuckets - 1));
    return static_cast<std::uint32_t>(msb - 2) * kSubBuckets + sub;
}

std::uint64_t
Histogram::bucketValue(std::uint32_t bucket)
{
    if (bucket < kSubBuckets)
        return bucket;
    const std::uint32_t msb = bucket / kSubBuckets + 2;
    const std::uint64_t sub = bucket % kSubBuckets;
    const std::uint64_t width = std::uint64_t{1} << (msb - 3);
    return (std::uint64_t{1} << msb) + sub * width + width / 2;
}

void
Histogram::record(std::uint64_t value)
{
    buckets_[bucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
}

std::uint64_t
Histogram::percentile(double q) const
{
    const std::uint64_t total = count();
    if (total == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total - 1));
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        cumulative += buckets_[b].load(std::memory_order_relaxed);
        if (cumulative > rank) {
            return std::min(bucketValue(static_cast<std::uint32_t>(b)),
                            max());
        }
    }
    return max();
}

Histogram::State
Histogram::state() const
{
    State state;
    state.count = count();
    state.sum = sum();
    state.max = max();
    for (std::size_t b = 0; b < kBuckets; ++b) {
        const std::uint64_t n =
            buckets_[b].load(std::memory_order_relaxed);
        if (n > 0)
            state.buckets.emplace_back(static_cast<std::uint32_t>(b),
                                       n);
    }
    return state;
}

void
Histogram::mergeState(const State &other)
{
    for (const auto &[bucket, n] : other.buckets) {
        if (bucket < kBuckets && n > 0)
            buckets_[bucket].fetch_add(n, std::memory_order_relaxed);
    }
    count_.fetch_add(other.count, std::memory_order_relaxed);
    sum_.fetch_add(other.sum, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (other.max > seen &&
           !max_.compare_exchange_weak(seen, other.max,
                                       std::memory_order_relaxed)) {
    }
}

// ------------------------------------------------------- MetricsRegistry

Counter &
MetricsRegistry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = cells_.try_emplace(std::string(name));
    if (inserted)
        it->second.counter = std::make_unique<Counter>();
    TL_ASSERT(it->second.counter != nullptr,
              "metric '", std::string(name), "' is not a counter");
    return *it->second.counter;
}

Gauge &
MetricsRegistry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = cells_.try_emplace(std::string(name));
    if (inserted)
        it->second.gauge = std::make_unique<Gauge>();
    TL_ASSERT(it->second.gauge != nullptr,
              "metric '", std::string(name), "' is not a gauge");
    return *it->second.gauge;
}

Histogram &
MetricsRegistry::histogram(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = cells_.try_emplace(std::string(name));
    if (inserted)
        it->second.histogram = std::make_unique<Histogram>();
    TL_ASSERT(it->second.histogram != nullptr,
              "metric '", std::string(name), "' is not a histogram");
    return *it->second.histogram;
}

const Counter *
MetricsRegistry::findCounter(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cells_.find(name);
    return it == cells_.end() ? nullptr : it->second.counter.get();
}

namespace
{

/** Minimal JSON string escaping (quotes, backslashes, controls). */
std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snapshot;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, cell] : cells_) {
        if (cell.counter != nullptr)
            snapshot.counters.emplace_back(name,
                                           cell.counter->value());
        if (cell.gauge != nullptr)
            snapshot.gauges.emplace_back(name, cell.gauge->value());
        if (cell.histogram != nullptr)
            snapshot.histograms.emplace_back(name,
                                             cell.histogram->state());
    }
    return snapshot;
}

void
MetricsRegistry::merge(const MetricsSnapshot &snapshot)
{
    for (const auto &[name, value] : snapshot.counters)
        counter(name).add(value);
    for (const auto &[name, value] : snapshot.gauges)
        gauge(name).set(value);
    for (const auto &[name, state] : snapshot.histograms)
        histogram(name).mergeState(state);
}

namespace
{

/** Prometheus metric name: "tracelens_" + name with every character
 *  outside [a-zA-Z0-9_] replaced by '_'. */
std::string
prometheusName(std::string_view name)
{
    std::string out = "tracelens_";
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

/** Render one label set `{k="v",...}` (empty string for no labels). */
std::string
prometheusLabels(
    const std::vector<std::pair<std::string, std::string>> &labels,
    const std::string &extraKey = {}, const std::string &extraValue = {})
{
    if (labels.empty() && extraKey.empty())
        return {};
    std::string out = "{";
    bool first = true;
    auto append = [&](const std::string &key, const std::string &value) {
        if (!first)
            out += ",";
        first = false;
        out += key;
        out += "=\"";
        for (const char c : value) {
            if (c == '\\' || c == '"')
                out += '\\';
            if (c == '\n') {
                out += "\\n";
                continue;
            }
            out += c;
        }
        out += "\"";
    };
    for (const auto &[key, value] : labels)
        append(key, value);
    if (!extraKey.empty())
        append(extraKey, extraValue);
    out += "}";
    return out;
}

} // namespace

std::string
renderPrometheus(
    const MetricsSnapshot &snapshot,
    const std::vector<std::pair<std::string, std::string>> &labels)
{
    std::ostringstream out;
    const std::string labelSet = prometheusLabels(labels);
    for (const auto &[name, value] : snapshot.counters) {
        const std::string metric = prometheusName(name);
        out << "# TYPE " << metric << " counter\n"
            << metric << labelSet << " " << value << "\n";
    }
    for (const auto &[name, value] : snapshot.gauges) {
        const std::string metric = prometheusName(name);
        out << "# TYPE " << metric << " gauge\n"
            << metric << labelSet << " " << value << "\n";
    }
    for (const auto &[name, state] : snapshot.histograms) {
        // Reconstruct a histogram from the state so quantiles come
        // from the same bucket math every other consumer uses.
        Histogram scratch;
        scratch.mergeState(state);
        const std::string metric = prometheusName(name);
        out << "# TYPE " << metric << " summary\n";
        for (const auto &[q, label] :
             {std::pair<double, const char *>{0.5, "0.5"},
              {0.9, "0.9"},
              {0.99, "0.99"}}) {
            out << metric << prometheusLabels(labels, "quantile", label)
                << " " << scratch.percentile(q) << "\n";
        }
        out << metric << "_sum" << labelSet << " " << state.sum << "\n"
            << metric << "_count" << labelSet << " " << state.count
            << "\n";
    }
    return out.str();
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    cells_.clear();
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

// ----------------------------------------------------------------- spans

namespace
{

/** One finished span as recorded in a thread's buffer. */
struct SpanRecord
{
    const char *name;
    const char *category;
    std::uint64_t startUs;
    std::uint64_t durUs;
    std::uint64_t cpuNs;
    std::uint64_t traceId;
    std::uint64_t spanId;
    std::uint64_t parentSpanId;
    std::uint32_t depth;
    std::vector<std::pair<const char *, std::string>> args;
};

struct ThreadBuffer
{
    std::mutex mutex; //!< Contended only by flush/reset.
    std::vector<SpanRecord> records;
    std::uint32_t tid = 0;
    /** Current nesting depth; owner-thread only. */
    std::uint32_t depth = 0;
    /** Ids of the active (open) spans, innermost last; owner-thread
     *  only. The innermost id is the parent of the next span opened
     *  on this thread. */
    std::vector<std::uint64_t> activeSpans;
};

/** The calling thread's propagated trace context (TraceContextScope)
 *  and the active-span depth at which it was installed. A span opened
 *  at that depth is the first inside the scope and takes the context's
 *  parent, whatever spans already enclose the thread. */
struct ThreadContext
{
    SpanContext context;
    std::size_t depth = 0;
};

ThreadContext &
threadContext()
{
    thread_local ThreadContext context;
    return context;
}

struct BufferRegistry
{
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

BufferRegistry &
bufferRegistry()
{
    static BufferRegistry registry;
    return registry;
}

ThreadBuffer &
threadBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
        auto fresh = std::make_shared<ThreadBuffer>();
        BufferRegistry &registry = bufferRegistry();
        std::lock_guard<std::mutex> lock(registry.mutex);
        fresh->tid =
            static_cast<std::uint32_t>(registry.buffers.size() + 1);
        registry.buffers.push_back(fresh);
        return fresh;
    }();
    return *buffer;
}

/** The process's telemetry epoch: one steady-clock anchor for span
 *  timestamps plus the wall-clock time it corresponds to, captured
 *  together so multi-process merges can rebase onto one timeline. */
struct TelemetryEpoch
{
    std::chrono::steady_clock::time_point steady;
    std::uint64_t unixUs;
};

const TelemetryEpoch &
telemetryEpoch()
{
    static const TelemetryEpoch epoch = [] {
        TelemetryEpoch fresh;
        fresh.steady = std::chrono::steady_clock::now();
        fresh.unixUs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count());
        return fresh;
    }();
    return epoch;
}

/** Microseconds since the process's telemetry epoch (steady clock). */
std::uint64_t
nowUs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - telemetryEpoch().steady)
            .count());
}

/** Process-unique-ish 64-bit id: a splitmix64 walk seeded from the
 *  epoch wall clock and the pid, so two nodes' span ids do not
 *  collide in a stitched trace (they would under a bare counter). */
std::uint64_t
nextTelemetryId()
{
    static const std::uint64_t salt = [] {
        std::uint64_t pid = 0;
#ifndef _WIN32
        pid = static_cast<std::uint64_t>(::getpid());
#endif
        return telemetryEpoch().unixUs ^ (pid << 40);
    }();
    static std::atomic<std::uint64_t> serial{0};
    const std::uint64_t id = splitmix64(
        salt + serial.fetch_add(1, std::memory_order_relaxed));
    return id == 0 ? 1 : id;
}

/** Calling thread's CPU time in nanoseconds (0 where unsupported). */
std::uint64_t
threadCpuNs()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
        return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
               static_cast<std::uint64_t>(ts.tv_nsec);
    }
#endif
    return 0;
}

} // namespace

std::atomic<bool> Telemetry::enabled_{false};

TraceContextScope::TraceContextScope(const SpanContext &context)
    : saved_(threadContext().context), savedDepth_(threadContext().depth)
{
    threadContext() = {context, threadBuffer().activeSpans.size()};
}

TraceContextScope::~TraceContextScope()
{
    threadContext() = {saved_, savedDepth_};
}

Span::Span(const char *name, const char *category)
    : name_(name), category_(category)
{
    if (!Telemetry::enabled())
        return;
    active_ = true;
    ThreadBuffer &buffer = threadBuffer();
    buffer.depth++;
    const ThreadContext &scope = threadContext();
    traceId_ = scope.context.traceId;
    parentSpanId_ = buffer.activeSpans.size() > scope.depth
                        ? buffer.activeSpans.back()
                        : scope.context.parentSpanId;
    spanId_ = nextTelemetryId();
    buffer.activeSpans.push_back(spanId_);
    startUs_ = nowUs();
    cpuStartNs_ = threadCpuNs();
}

Span::~Span()
{
    if (!active_)
        return;
    const std::uint64_t endUs = nowUs();
    const std::uint64_t cpuEndNs = threadCpuNs();
    ThreadBuffer &buffer = threadBuffer();
    // Spans are strictly scoped objects, so destruction order is LIFO
    // per thread and the top of the active stack is this span.
    if (!buffer.activeSpans.empty())
        buffer.activeSpans.pop_back();
    SpanRecord record;
    record.name = name_;
    record.category = category_;
    record.startUs = startUs_;
    record.durUs = endUs > startUs_ ? endUs - startUs_ : 0;
    record.cpuNs = cpuEndNs > cpuStartNs_ ? cpuEndNs - cpuStartNs_ : 0;
    record.traceId = traceId_;
    record.spanId = spanId_;
    record.parentSpanId = parentSpanId_;
    record.depth = --buffer.depth;
    record.args = std::move(args_);
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.records.push_back(std::move(record));
}

void
Span::arg(const char *key, std::string value)
{
    if (active_)
        args_.emplace_back(key, std::move(value));
}

void
Span::arg(const char *key, std::uint64_t value)
{
    if (active_)
        args_.emplace_back(key, std::to_string(value));
}

void
Telemetry::reset()
{
    BufferRegistry &registry = bufferRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    for (const auto &buffer : registry.buffers) {
        std::lock_guard<std::mutex> bufferLock(buffer->mutex);
        buffer->records.clear();
    }
}

std::size_t
Telemetry::spanCount()
{
    BufferRegistry &registry = bufferRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    std::size_t total = 0;
    for (const auto &buffer : registry.buffers) {
        std::lock_guard<std::mutex> bufferLock(buffer->mutex);
        total += buffer->records.size();
    }
    return total;
}

std::vector<SpanSnapshot>
Telemetry::snapshotSpans()
{
    std::vector<SpanSnapshot> spans;
    BufferRegistry &registry = bufferRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    for (const auto &buffer : registry.buffers) {
        std::lock_guard<std::mutex> bufferLock(buffer->mutex);
        for (const SpanRecord &record : buffer->records) {
            SpanSnapshot span;
            span.name = record.name;
            span.category = record.category;
            span.tid = buffer->tid;
            span.depth = record.depth;
            span.startUs = record.startUs;
            span.durUs = record.durUs;
            span.cpuNs = record.cpuNs;
            span.traceId = record.traceId;
            span.spanId = record.spanId;
            span.parentSpanId = record.parentSpanId;
            span.args.reserve(record.args.size());
            for (const auto &[key, value] : record.args)
                span.args.emplace_back(key, value);
            spans.push_back(std::move(span));
        }
    }
    return spans;
}

namespace
{
} // namespace

std::string
hexId(std::uint64_t id)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(id));
    return buf;
}

std::uint64_t
parseHexId(std::string_view text)
{
    if (text.empty() || text.size() > 16)
        return 0;
    std::uint64_t id = 0;
    for (const char c : text) {
        id <<= 4;
        if (c >= '0' && c <= '9')
            id |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            id |= static_cast<std::uint64_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            id |= static_cast<std::uint64_t>(c - 'A' + 10);
        else
            return 0;
    }
    return id;
}

std::string
Telemetry::renderChromeTraceMerged(const std::vector<NodeSpans> &nodes)
{
    // Rebase every node onto the earliest node epoch, so one merged
    // timeline lines up wall-clock-wise across processes. Nodes with
    // an unknown epoch (0) keep their raw timestamps.
    std::uint64_t baseEpoch = 0;
    for (const NodeSpans &node : nodes) {
        if (node.epochUnixUs != 0 &&
            (baseEpoch == 0 || node.epochUnixUs < baseEpoch))
            baseEpoch = node.epochUnixUs;
    }

    // Where every span id lives, for cross-node flow arrows.
    struct SpanSite
    {
        std::size_t node;
        std::uint32_t tid;
        std::uint64_t ts;
    };
    std::unordered_map<std::uint64_t, SpanSite> sites;
    std::vector<std::vector<const SpanSnapshot *>> ordered(nodes.size());
    std::vector<std::uint64_t> shifts(nodes.size(), 0);
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        const NodeSpans &node = nodes[n];
        shifts[n] = node.epochUnixUs != 0 ? node.epochUnixUs - baseEpoch
                                          : 0;
        ordered[n].reserve(node.spans.size());
        for (const SpanSnapshot &span : node.spans)
            ordered[n].push_back(&span);
        // Sort by (tid, ts, -dur) so each thread's timeline is
        // monotonic and parents precede children at equal timestamps —
        // what trace viewers and the nesting validator in
        // tests/telemetry_test.cpp expect.
        std::sort(ordered[n].begin(), ordered[n].end(),
                  [](const SpanSnapshot *a, const SpanSnapshot *b) {
                      if (a->tid != b->tid)
                          return a->tid < b->tid;
                      if (a->startUs != b->startUs)
                          return a->startUs < b->startUs;
                      return a->durUs > b->durUs;
                  });
        for (const SpanSnapshot &span : node.spans) {
            if (span.spanId != 0) {
                sites.emplace(span.spanId,
                              SpanSite{n, span.tid,
                                       span.startUs + shifts[n]});
            }
        }
    }

    std::ostringstream out;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    auto sep = [&]() -> std::ostream & {
        if (!first)
            out << ",\n";
        first = false;
        return out;
    };
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        const NodeSpans &node = nodes[n];
        sep() << "{\"ph\": \"M\", \"pid\": " << node.pid
              << ", \"name\": \"process_name\", \"args\": {\"name\": \""
              << jsonEscape(node.node) << "\"}}";
        std::uint32_t lastTid = 0;
        bool haveTid = false;
        for (const SpanSnapshot *span : ordered[n]) {
            if (haveTid && span->tid == lastTid)
                continue;
            haveTid = true;
            lastTid = span->tid;
            sep() << "{\"ph\": \"M\", \"pid\": " << node.pid
                  << ", \"tid\": " << span->tid
                  << ", \"name\": \"thread_name\", \"args\": "
                     "{\"name\": \""
                  << jsonEscape(node.node) << " thread " << span->tid
                  << "\"}}";
        }
    }
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        const NodeSpans &node = nodes[n];
        for (const SpanSnapshot *span : ordered[n]) {
            const std::uint64_t ts = span->startUs + shifts[n];
            sep() << "{\"name\": \"" << jsonEscape(span->name)
                  << "\", \"cat\": \"" << jsonEscape(span->category)
                  << "\", \"ph\": \"X\", \"pid\": " << node.pid
                  << ", \"tid\": " << span->tid << ", \"ts\": " << ts
                  << ", \"dur\": " << span->durUs
                  << ", \"args\": {\"cpu_us\": " << span->cpuNs / 1000
                  << ", \"depth\": " << span->depth;
            if (span->traceId != 0) {
                out << ", \"trace_id\": \"" << hexId(span->traceId)
                    << "\", \"span_id\": \"" << hexId(span->spanId)
                    << "\", \"parent_span_id\": \""
                    << hexId(span->parentSpanId) << "\"";
            }
            for (const auto &[key, value] : span->args) {
                out << ", \"" << jsonEscape(key) << "\": \""
                    << jsonEscape(value) << "\"";
            }
            out << "}}";
        }
    }
    // Flow arrows for cross-node parent edges: the parent's node
    // "starts" the flow, the child's node "finishes" it, which is how
    // one gather renders as a causal tree across machines.
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        for (const SpanSnapshot *span : ordered[n]) {
            if (span->parentSpanId == 0 || span->spanId == 0)
                continue;
            const auto parent = sites.find(span->parentSpanId);
            if (parent == sites.end() || parent->second.node == n)
                continue;
            const std::string id = hexId(span->spanId);
            sep() << "{\"ph\": \"s\", \"id\": \"" << id
                  << "\", \"name\": \"request\", \"cat\": \"trace\", "
                     "\"pid\": "
                  << nodes[parent->second.node].pid
                  << ", \"tid\": " << parent->second.tid
                  << ", \"ts\": " << parent->second.ts << "}";
            sep() << "{\"ph\": \"f\", \"bp\": \"e\", \"id\": \"" << id
                  << "\", \"name\": \"request\", \"cat\": \"trace\", "
                     "\"pid\": "
                  << nodes[n].pid << ", \"tid\": " << span->tid
                  << ", \"ts\": " << span->startUs + shifts[n] << "}";
        }
    }
    out << "\n]}\n";
    return out.str();
}

std::string
Telemetry::renderChromeTrace()
{
    std::vector<NodeSpans> nodes(1);
    nodes[0].node = "tracelens";
    nodes[0].pid = 1;
    nodes[0].epochUnixUs = 0;
    nodes[0].spans = snapshotSpans();
    return renderChromeTraceMerged(nodes);
}

bool
Telemetry::writeChromeTrace(const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    const std::string json = renderChromeTrace();
    out.write(json.data(), static_cast<std::streamsize>(json.size()));
    return static_cast<bool>(out);
}

std::uint64_t
Telemetry::epochUnixUs()
{
    return telemetryEpoch().unixUs;
}

std::uint64_t
Telemetry::newTraceId()
{
    return nextTelemetryId();
}

SpanContext
Telemetry::currentContext()
{
    const ThreadContext &scope = threadContext();
    SpanContext context = scope.context;
    const ThreadBuffer &buffer = threadBuffer();
    if (buffer.activeSpans.size() > scope.depth)
        context.parentSpanId = buffer.activeSpans.back();
    return context;
}

} // namespace tracelens
