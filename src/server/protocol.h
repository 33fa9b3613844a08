/**
 * @file
 * The wire vocabulary of the TraceLens analysis service
 * (docs/SERVER.md). This module is transport-free — parse/serialize
 * only — so the daemon, the client Session, and the tests share one
 * implementation of methods, error codes, and message shapes.
 *
 * A connection opens with the preface line (wire::kPreface + "\n");
 * the server answers a binary SETTINGS frame, and from then on both
 * sides exchange length-prefixed frames with per-stream ids,
 * flow-control windows, priorities, and a shared per-session symbol
 * dictionary (src/server/wire.h). A request frame carries a method
 * byte (Method), the params object, a deadline, and a priority; a
 * response frame carries the result object or an error object
 * (renderErrorObject). A peer that opens with anything but the
 * preface is sent a GOAWAY and closed.
 */

#ifndef TRACELENS_SERVER_PROTOCOL_H
#define TRACELENS_SERVER_PROTOCOL_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/expected.h"
#include "src/util/json.h"
#include "src/util/telemetry.h"

namespace tracelens
{
namespace server
{

/** Multiplexed binary framing + symbol dictionary. */
inline constexpr std::uint32_t kProtocolVersionV2 = 2;
/** The one revision this build speaks (`health`, `version`). */
inline constexpr std::uint32_t kProtocolVersion = kProtocolVersionV2;

// ------------------------------------------------------------ methods

/**
 * The service's method vocabulary — the single source of truth shared
 * by the server's method table, the typed client API, the CLI, and
 * the tests. Wire names come from methodName(); nothing outside the
 * codec layer should spell a method as a string literal.
 */
enum class Method : std::uint8_t
{
    // Enumerator values are the v2 wire bytes — do not renumber.
    Health = 0,   //!< Liveness + protocol revisions; answered inline.
    Stats = 1,    //!< Server counters; answered inline.
    Shutdown = 2, //!< Begin graceful drain; answered inline.
    Analyze = 3,  //!< Scenario classification + pattern mining.
    Impact = 4,   //!< Component impact, overall and per scenario.
    Mine = 5,     //!< Raw contrast patterns (no knowledge filter).
    Ingest = 6,   //!< Corpus ingestion summary.
    Sleep = 7,    //!< Test-only worker occupancy (enableTestMethods).
    // Coordinator-mode worker methods (docs/SERVER.md): each returns
    // a base64 TLP1 partial-result payload instead of a finished
    // report, for the coordinator's scatter/gather.
    AnalyzePartial = 8, //!< One shard's scenario partial.
    ImpactPartial = 9,  //!< One shard's corpus-wide impact partial.
    MinePartial = 10,   //!< Alias of AnalyzePartial for mine gathers.
    ClusterStatus = 11, //!< Coordinator topology + worker health.
    // Observability methods (docs/TELEMETRY.md, "Distributed tracing
    // & metrics"): answered inline so they stay usable exactly when
    // the data plane is saturated — the moment you need them.
    TelemetryPull = 12,  //!< This node's recorded span buffer.
    Metrics = 13,        //!< Metrics-registry snapshot (with buckets).
    FlightRecorder = 14, //!< Recent completed-request ring.
    /** Coordinator-side span stitching: pull every worker's spans via
     *  telemetry_pull, merge with the coordinator's own buffer, and
     *  return one Chrome trace (queued — it fans out over TCP). */
    ClusterTrace = 15,
    // Continuous fleet mode (docs/FLEET.md): only served when the
    // daemon runs with --watch; rejected with BadRequest otherwise.
    IngestPush = 16,    //!< Stream one TLC1 shard into the live spool.
    WindowSummary = 17, //!< Rolling-window scenario summary.
    Alerts = 18,        //!< Sentinel alerts, optionally long-polled.
};

/** Number of methods; enumerators run 0 .. kMethodCount - 1. */
inline constexpr std::size_t kMethodCount =
    static_cast<std::size_t>(Method::Alerts) + 1;

/** Stable wire name of @p method ("analyze", ...). */
std::string_view methodName(Method method);

/** Inverse of methodName(); nullopt for unknown names. */
std::optional<Method> parseMethod(std::string_view name);

/** The v2 wire byte of @p method (the enumerator value). */
std::uint8_t methodWireByte(Method method);

/** Inverse of methodWireByte(); nullopt for unknown bytes. */
std::optional<Method> methodFromWireByte(std::uint8_t byte);

// ----------------------------------------------------------- priority

/** Per-request priorities (the request frame's scheduling class). */
inline constexpr std::uint8_t kPriorityInteractive = 0;
inline constexpr std::uint8_t kPriorityNormal = 1;
inline constexpr std::uint8_t kPriorityBulk = 2;
inline constexpr std::uint8_t kPriorityLevels = 3;

// -------------------------------------------------------- error codes

/** Machine-readable failure classes (the "error.code" field). */
enum class ErrorCode
{
    BadRequest,       //!< Malformed JSON / missing or invalid params.
    Overloaded,       //!< Bounded queue full — retry later (429-style).
    DeadlineExceeded, //!< The request's deadline elapsed in the server.
    NotFound,         //!< Unknown corpus path / scenario / method.
    ShuttingDown,     //!< Daemon is draining; no new work accepted.
    ProtocolError,    //!< Framing violation (oversized or bad frame,
                      //!< dictionary desync); carries a byte offset.
    Internal,         //!< Unexpected server-side failure.
};

/** Stable wire name of @p code ("bad_request", ...). */
std::string_view errorCodeName(ErrorCode code);

/** Inverse of errorCodeName(); nullopt for unknown names. */
std::optional<ErrorCode> parseErrorCode(std::string_view name);

/** One decoded protocol error (the "error" response member). */
struct ErrorInfo
{
    ErrorCode code = ErrorCode::Internal;
    std::string message;
    /**
     * For ProtocolError: the connection byte offset at which the
     * violation was detected (0 = not applicable / unknown). Rendered
     * as "error.offset" when nonzero.
     */
    std::uint64_t offset = 0;
};

// ----------------------------------------------------------- requests

/** One decoded request frame. */
struct Request
{
    Method method = Method::Health;
    /** The "params" object (empty object when absent). */
    JsonValue params = JsonValue::makeObject();
    /** 0 = no explicit deadline (server default applies). */
    std::uint64_t deadlineMs = 0;
    /** Scheduling class (kPriority*). */
    std::uint8_t priority = kPriorityNormal;
    /** Propagated span context (tracing negotiated; traceId 0 = the
     *  request carried none). */
    SpanContext context;
};

/**
 * Typed request structs — the client-facing shape of each method's
 * params, one place instead of hand-built JSON at every call site.
 * toParams() renders exactly the params object the server validates.
 */
struct AnalyzeRequest
{
    std::string corpus;
    std::string scenario;
    std::optional<double> tfastMs;
    std::optional<double> tslowMs;
    std::optional<std::size_t> top;
    std::optional<bool> knowledgeFilter;
    std::vector<std::string> components;
    JsonValue toParams() const;
};

struct ImpactRequest
{
    std::string corpus;
    std::vector<std::string> components;
    JsonValue toParams() const;
};

struct MineRequest
{
    std::string corpus;
    std::string scenario;
    std::optional<double> tfastMs;
    std::optional<double> tslowMs;
    std::optional<std::size_t> maxPatterns;
    JsonValue toParams() const;
};

struct IngestRequest
{
    std::string corpus;
    JsonValue toParams() const;
};

struct SleepRequest
{
    double ms = 10.0;
    JsonValue toParams() const;
};

/**
 * One shard's scenario partial (coordinator scatter). Unlike
 * AnalyzeRequest, the thresholds are mandatory: the coordinator
 * resolves catalog defaults once and ships explicit values so every
 * worker classifies identically.
 */
struct AnalyzePartialRequest
{
    std::string corpus; //!< One shard file, not a directory.
    std::string scenario;
    double tfastMs = 0;
    double tslowMs = 0;
    std::vector<std::string> components;
    JsonValue toParams() const;
};

/** One shard's corpus-wide impact partial (coordinator scatter). */
struct ImpactPartialRequest
{
    std::string corpus; //!< One shard file, not a directory.
    std::vector<std::string> components;
    JsonValue toParams() const;
};

/**
 * Stream one finished TLC1 shard into a watched daemon's spool. The
 * shard lands via the rename-into-place convention and is ingested
 * synchronously: when the response arrives, the shard is in its
 * window and the sentinel has run. `fleet_revision` is mandatory so
 * mixed-version fleets fail loudly instead of mis-bucketing windows.
 */
struct IngestPushRequest
{
    /** Spool filename ("shard-0042.tlc"; no directories, no dots
     *  prefix). */
    std::string name;
    /** Raw TLC1 bytes, base64-encoded. */
    std::string payloadBase64;
    /** Pusher's fleetRevision() — checked against the daemon's. */
    std::uint32_t fleetRevision = 0;
    /** Window-bucketing override (ms since epoch); absent = daemon
     *  wall clock at ingest. */
    std::optional<std::uint64_t> timestampMs;
    JsonValue toParams() const;
};

/** Rolling-window scenario summary from a watched daemon. */
struct WindowSummaryRequest
{
    std::string scenario;
    std::optional<double> tfastMs;
    std::optional<double> tslowMs;
    /** "current" (default), "all", or a decimal window id. */
    std::string windows;
    /** Merge the N windows up to the selection (0/1 = just it). */
    std::optional<std::size_t> trailing;
    std::optional<std::size_t> top;
    std::optional<bool> knowledgeFilter;
    JsonValue toParams() const;
};

/** Sentinel alerts with seq > afterSeq; waitMs long-polls for the
 *  first new alert before answering (bounded by the deadline). */
struct AlertsRequest
{
    std::uint64_t afterSeq = 0;
    std::optional<std::uint64_t> waitMs;
    JsonValue toParams() const;
};

// ---------------------------------------------------------- responses

/** One decoded response, success or error. */
struct Response
{
    bool ok = false;
    /** The "result" object when ok. */
    JsonValue result;
    /** Populated when !ok. */
    ErrorInfo error;
};

// ------------------------------------------------- error payloads

/** Render the "error" object (an error response's payload). */
std::string renderErrorObject(const ErrorInfo &error);

/** Decode an "error" object (an error response's payload). */
ErrorInfo parseErrorObject(const JsonValue &error);

// ------------------------------------ observability payload codecs
//
// The `metrics` and `telemetry_pull` methods ship structured
// telemetry as JSON; these helpers are the single definition of
// those shapes, used by the server to render and by the coordinator
// to parse when aggregating. 64-bit ids cross as 16-hex-digit
// strings (a JSON number is a double and cannot hold them); bucket
// state crosses in full so coordinator-side histogram merges are
// exact.

/** {"counters": {...}, "gauges": {...}, "histograms": {name:
 *  {"count", "sum", "max", "buckets": [[index, count], ...]}}} */
JsonValue metricsSnapshotJson(const MetricsSnapshot &snapshot);

/** Inverse of metricsSnapshotJson(); tolerant of missing members
 *  (absent sections parse as empty). */
MetricsSnapshot parseMetricsSnapshot(const JsonValue &json);

/** {"node": ..., "epoch_unix_us": N, "spans": [{"name", "category",
 *  "tid", "depth", "start_us", "dur_us", "cpu_ns", "trace_id",
 *  "span_id", "parent_span_id", "args": {...}}, ...]} — the
 *  telemetry_pull result body (NodeSpans::pid is assigned by the
 *  stitcher, not carried on the wire). */
JsonValue nodeSpansJson(const NodeSpans &node);

/** Inverse of nodeSpansJson(); malformed span entries are skipped. */
NodeSpans parseNodeSpans(const JsonValue &json);

} // namespace server
} // namespace tracelens

#endif // TRACELENS_SERVER_PROTOCOL_H
