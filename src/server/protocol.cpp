/**
 * @file
 * Method/error vocabulary, typed request params, and the shared
 * payload codecs of the analysis-service protocol
 * (src/server/protocol.h).
 */

#include "src/server/protocol.h"

#include <array>

namespace tracelens
{
namespace server
{

// ------------------------------------------------------------ methods

namespace
{

/** Wire names, indexed by Method. */
constexpr std::array<std::string_view, kMethodCount> kMethodNames = {
    "health",          "stats",          "shutdown",
    "analyze",         "impact",         "mine",
    "ingest",          "sleep",          "analyze_partial",
    "impact_partial",  "mine_partial",   "cluster_status",
    "telemetry_pull",  "metrics",        "flight_recorder",
    "cluster_trace",   "ingest_push",    "window_summary",
    "alerts",
};

} // namespace

std::string_view
methodName(Method method)
{
    return kMethodNames[static_cast<std::size_t>(method)];
}

std::optional<Method>
parseMethod(std::string_view name)
{
    for (std::size_t i = 0; i < kMethodNames.size(); ++i) {
        if (kMethodNames[i] == name)
            return static_cast<Method>(i);
    }
    return std::nullopt;
}

std::uint8_t
methodWireByte(Method method)
{
    return static_cast<std::uint8_t>(method);
}

std::optional<Method>
methodFromWireByte(std::uint8_t byte)
{
    if (byte >= kMethodCount)
        return std::nullopt;
    return static_cast<Method>(byte);
}

// -------------------------------------------------------- error codes

std::string_view
errorCodeName(ErrorCode code)
{
    switch (code) {
    case ErrorCode::BadRequest:
        return "bad_request";
    case ErrorCode::Overloaded:
        return "overloaded";
    case ErrorCode::DeadlineExceeded:
        return "deadline_exceeded";
    case ErrorCode::NotFound:
        return "not_found";
    case ErrorCode::ShuttingDown:
        return "shutting_down";
    case ErrorCode::ProtocolError:
        return "protocol_error";
    case ErrorCode::Internal:
        return "internal";
    }
    return "internal";
}

std::optional<ErrorCode>
parseErrorCode(std::string_view name)
{
    static constexpr ErrorCode kAll[] = {
        ErrorCode::BadRequest,    ErrorCode::Overloaded,
        ErrorCode::DeadlineExceeded, ErrorCode::NotFound,
        ErrorCode::ShuttingDown,  ErrorCode::ProtocolError,
        ErrorCode::Internal};
    for (const ErrorCode code : kAll) {
        if (errorCodeName(code) == name)
            return code;
    }
    return std::nullopt;
}

// ------------------------------------------------- typed request params

JsonValue
AnalyzeRequest::toParams() const
{
    JsonValue params = JsonValue::makeObject();
    params.set("corpus", JsonValue(corpus));
    params.set("scenario", JsonValue(scenario));
    if (tfastMs)
        params.set("tfast_ms", JsonValue(*tfastMs));
    if (tslowMs)
        params.set("tslow_ms", JsonValue(*tslowMs));
    if (top)
        params.set("top", JsonValue(*top));
    if (knowledgeFilter)
        params.set("knowledge_filter", JsonValue(*knowledgeFilter));
    if (!components.empty()) {
        JsonValue list = JsonValue::makeArray();
        for (const std::string &glob : components)
            list.push(JsonValue(glob));
        params.set("components", std::move(list));
    }
    return params;
}

JsonValue
ImpactRequest::toParams() const
{
    JsonValue params = JsonValue::makeObject();
    params.set("corpus", JsonValue(corpus));
    if (!components.empty()) {
        JsonValue list = JsonValue::makeArray();
        for (const std::string &glob : components)
            list.push(JsonValue(glob));
        params.set("components", std::move(list));
    }
    return params;
}

JsonValue
MineRequest::toParams() const
{
    JsonValue params = JsonValue::makeObject();
    params.set("corpus", JsonValue(corpus));
    params.set("scenario", JsonValue(scenario));
    if (tfastMs)
        params.set("tfast_ms", JsonValue(*tfastMs));
    if (tslowMs)
        params.set("tslow_ms", JsonValue(*tslowMs));
    if (maxPatterns)
        params.set("max_patterns", JsonValue(*maxPatterns));
    return params;
}

JsonValue
IngestRequest::toParams() const
{
    JsonValue params = JsonValue::makeObject();
    params.set("corpus", JsonValue(corpus));
    return params;
}

JsonValue
SleepRequest::toParams() const
{
    JsonValue params = JsonValue::makeObject();
    params.set("ms", JsonValue(ms));
    return params;
}

JsonValue
AnalyzePartialRequest::toParams() const
{
    JsonValue params = JsonValue::makeObject();
    params.set("corpus", JsonValue(corpus));
    params.set("scenario", JsonValue(scenario));
    params.set("tfast_ms", JsonValue(tfastMs));
    params.set("tslow_ms", JsonValue(tslowMs));
    if (!components.empty()) {
        JsonValue list = JsonValue::makeArray();
        for (const std::string &glob : components)
            list.push(JsonValue(glob));
        params.set("components", std::move(list));
    }
    return params;
}

JsonValue
ImpactPartialRequest::toParams() const
{
    JsonValue params = JsonValue::makeObject();
    params.set("corpus", JsonValue(corpus));
    if (!components.empty()) {
        JsonValue list = JsonValue::makeArray();
        for (const std::string &glob : components)
            list.push(JsonValue(glob));
        params.set("components", std::move(list));
    }
    return params;
}

JsonValue
IngestPushRequest::toParams() const
{
    JsonValue params = JsonValue::makeObject();
    params.set("name", JsonValue(name));
    params.set("payload", JsonValue(payloadBase64));
    params.set("fleet_revision", JsonValue(fleetRevision));
    if (timestampMs)
        params.set("timestamp_ms", JsonValue(*timestampMs));
    return params;
}

JsonValue
WindowSummaryRequest::toParams() const
{
    JsonValue params = JsonValue::makeObject();
    params.set("scenario", JsonValue(scenario));
    if (tfastMs)
        params.set("tfast_ms", JsonValue(*tfastMs));
    if (tslowMs)
        params.set("tslow_ms", JsonValue(*tslowMs));
    if (!windows.empty())
        params.set("windows", JsonValue(windows));
    if (trailing)
        params.set("trailing", JsonValue(*trailing));
    if (top)
        params.set("top", JsonValue(*top));
    if (knowledgeFilter)
        params.set("knowledge_filter", JsonValue(*knowledgeFilter));
    return params;
}

JsonValue
AlertsRequest::toParams() const
{
    JsonValue params = JsonValue::makeObject();
    if (afterSeq != 0)
        params.set("after_seq", JsonValue(afterSeq));
    if (waitMs)
        params.set("wait_ms", JsonValue(*waitMs));
    return params;
}

// ------------------------------------------------- error payloads

std::string
renderErrorObject(const ErrorInfo &error)
{
    JsonValue object = JsonValue::makeObject();
    object.set("code", JsonValue(errorCodeName(error.code)));
    object.set("message", JsonValue(error.message));
    if (error.offset != 0)
        object.set("offset", JsonValue(error.offset));
    return object.render();
}

// ------------------------------------ observability payload codecs

JsonValue
metricsSnapshotJson(const MetricsSnapshot &snapshot)
{
    JsonValue counters = JsonValue::makeObject();
    for (const auto &[name, value] : snapshot.counters)
        counters.set(name, JsonValue(value));
    JsonValue gauges = JsonValue::makeObject();
    for (const auto &[name, value] : snapshot.gauges)
        gauges.set(name, JsonValue(value));
    JsonValue histograms = JsonValue::makeObject();
    for (const auto &[name, state] : snapshot.histograms) {
        JsonValue entry = JsonValue::makeObject();
        entry.set("count", JsonValue(state.count));
        entry.set("sum", JsonValue(state.sum));
        entry.set("max", JsonValue(state.max));
        JsonValue buckets = JsonValue::makeArray();
        for (const auto &[index, occupancy] : state.buckets) {
            JsonValue pair = JsonValue::makeArray();
            pair.push(JsonValue(index));
            pair.push(JsonValue(occupancy));
            buckets.push(std::move(pair));
        }
        entry.set("buckets", std::move(buckets));
        histograms.set(name, std::move(entry));
    }
    JsonValue json = JsonValue::makeObject();
    json.set("counters", std::move(counters));
    json.set("gauges", std::move(gauges));
    json.set("histograms", std::move(histograms));
    return json;
}

namespace
{

std::uint64_t
u64Member(const JsonValue &object, std::string_view key)
{
    const JsonValue *value = object.find(key);
    if (value == nullptr || !value->isNumber() ||
        value->asNumber() < 0)
        return 0;
    return static_cast<std::uint64_t>(value->asNumber());
}

} // namespace

MetricsSnapshot
parseMetricsSnapshot(const JsonValue &json)
{
    MetricsSnapshot snapshot;
    if (const JsonValue *counters = json.find("counters");
        counters != nullptr && counters->isObject()) {
        for (const auto &[name, value] : counters->asObject()) {
            if (value.isNumber() && value.asNumber() >= 0)
                snapshot.counters.emplace_back(
                    name,
                    static_cast<std::uint64_t>(value.asNumber()));
        }
    }
    if (const JsonValue *gauges = json.find("gauges");
        gauges != nullptr && gauges->isObject()) {
        for (const auto &[name, value] : gauges->asObject()) {
            if (value.isNumber())
                snapshot.gauges.emplace_back(name, value.asNumber());
        }
    }
    if (const JsonValue *histograms = json.find("histograms");
        histograms != nullptr && histograms->isObject()) {
        for (const auto &[name, entry] : histograms->asObject()) {
            if (!entry.isObject())
                continue;
            Histogram::State state;
            state.count = u64Member(entry, "count");
            state.sum = u64Member(entry, "sum");
            state.max = u64Member(entry, "max");
            if (const JsonValue *buckets = entry.find("buckets");
                buckets != nullptr && buckets->isArray()) {
                for (const JsonValue &pair : buckets->asArray()) {
                    if (!pair.isArray() ||
                        pair.asArray().size() != 2 ||
                        !pair.asArray()[0].isNumber() ||
                        !pair.asArray()[1].isNumber())
                        continue;
                    state.buckets.emplace_back(
                        static_cast<std::uint32_t>(
                            pair.asArray()[0].asNumber()),
                        static_cast<std::uint64_t>(
                            pair.asArray()[1].asNumber()));
                }
            }
            snapshot.histograms.emplace_back(name, std::move(state));
        }
    }
    return snapshot;
}

JsonValue
nodeSpansJson(const NodeSpans &node)
{
    JsonValue spans = JsonValue::makeArray();
    for (const SpanSnapshot &span : node.spans) {
        JsonValue entry = JsonValue::makeObject();
        entry.set("name", JsonValue(span.name));
        entry.set("category", JsonValue(span.category));
        entry.set("tid", JsonValue(span.tid));
        entry.set("depth", JsonValue(span.depth));
        entry.set("start_us", JsonValue(span.startUs));
        entry.set("dur_us", JsonValue(span.durUs));
        entry.set("cpu_ns", JsonValue(span.cpuNs));
        if (span.traceId != 0) {
            entry.set("trace_id", JsonValue(hexId(span.traceId)));
            entry.set("span_id", JsonValue(hexId(span.spanId)));
            entry.set("parent_span_id",
                      JsonValue(hexId(span.parentSpanId)));
        }
        if (!span.args.empty()) {
            JsonValue args = JsonValue::makeObject();
            for (const auto &[key, value] : span.args)
                args.set(key, JsonValue(value));
            entry.set("args", std::move(args));
        }
        spans.push(std::move(entry));
    }
    JsonValue json = JsonValue::makeObject();
    json.set("node", JsonValue(node.node));
    json.set("epoch_unix_us", JsonValue(node.epochUnixUs));
    json.set("spans", std::move(spans));
    return json;
}

NodeSpans
parseNodeSpans(const JsonValue &json)
{
    NodeSpans node;
    if (const JsonValue *name = json.find("node");
        name != nullptr && name->isString())
        node.node = name->asString();
    node.epochUnixUs = u64Member(json, "epoch_unix_us");
    const JsonValue *spans = json.find("spans");
    if (spans == nullptr || !spans->isArray())
        return node;
    for (const JsonValue &entry : spans->asArray()) {
        if (!entry.isObject())
            continue;
        const JsonValue *name = entry.find("name");
        if (name == nullptr || !name->isString())
            continue;
        SpanSnapshot span;
        span.name = name->asString();
        if (const JsonValue *category = entry.find("category");
            category != nullptr && category->isString())
            span.category = category->asString();
        span.tid = static_cast<std::uint32_t>(u64Member(entry, "tid"));
        span.depth =
            static_cast<std::uint32_t>(u64Member(entry, "depth"));
        span.startUs = u64Member(entry, "start_us");
        span.durUs = u64Member(entry, "dur_us");
        span.cpuNs = u64Member(entry, "cpu_ns");
        if (const JsonValue *id = entry.find("trace_id");
            id != nullptr && id->isString())
            span.traceId = parseHexId(id->asString());
        if (const JsonValue *id = entry.find("span_id");
            id != nullptr && id->isString())
            span.spanId = parseHexId(id->asString());
        if (const JsonValue *id = entry.find("parent_span_id");
            id != nullptr && id->isString())
            span.parentSpanId = parseHexId(id->asString());
        if (const JsonValue *args = entry.find("args");
            args != nullptr && args->isObject()) {
            for (const auto &[key, value] : args->asObject()) {
                if (value.isString())
                    span.args.emplace_back(key, value.asString());
            }
        }
        node.spans.push_back(std::move(span));
    }
    return node;
}

ErrorInfo
parseErrorObject(const JsonValue &error)
{
    ErrorInfo info;
    if (const JsonValue *code = error.find("code");
        code != nullptr && code->isString()) {
        if (const auto parsed = parseErrorCode(code->asString()))
            info.code = *parsed;
    }
    if (const JsonValue *message = error.find("message");
        message != nullptr && message->isString())
        info.message = message->asString();
    if (const JsonValue *offset = error.find("offset");
        offset != nullptr && offset->isNumber())
        info.offset = static_cast<std::uint64_t>(offset->asNumber());
    return info;
}

} // namespace server
} // namespace tracelens
