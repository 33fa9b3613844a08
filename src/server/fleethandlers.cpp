/**
 * @file
 * The continuous-mode handlers of the daemon (src/server/server.h,
 * docs/FLEET.md): `ingest_push`, `window_summary` and `alerts` over
 * the fleet service.
 */

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "src/core/partial.h"
#include "src/fleet/fleet.h"
#include "src/server/handlers.h"
#include "src/server/server.h"
#include "src/trace/serialize.h"
#include "src/trace/source.h"

namespace tracelens
{
namespace server
{

// ------------------------------------------ continuous-mode methods

std::string
Server::handleIngestPush(const QueuedRequest &request)
{
    checkDeadline(request.deadline);
    const JsonValue &params = request.request.params;

    const std::string name = stringParam(params, "name");
    if (!isShardFilename(name) ||
        name.find('/') != std::string::npos ||
        name.find('\\') != std::string::npos) {
        failRequest(ErrorCode::BadRequest,
                    "param \"name\" must be a plain *.tlc filename "
                    "(no directories, no dotfiles)");
    }

    // Refuse loudly on a revision mismatch rather than misrendering
    // alerts for a newer pusher — same handshake contract as the
    // cluster's partial_revision.
    const auto pushed = static_cast<std::uint32_t>(
        numberParamOr(params, "fleet_revision", 0, 0, UINT32_MAX));
    if (pushed != fleetRevision()) {
        failRequest(ErrorCode::BadRequest,
                    "fleet revision mismatch: pusher has " +
                        std::to_string(pushed) + ", daemon has " +
                        std::to_string(fleetRevision()) +
                        " (upgrade the older side)");
    }

    const std::string payload = stringParam(params, "payload");
    const std::optional<std::string> bytes = base64Decode(payload);
    if (!bytes)
        failRequest(ErrorCode::BadRequest,
                    "param \"payload\" is not valid base64");
    Expected<TraceCorpus> corpus = parseCorpus(
        std::as_bytes(std::span(bytes->data(), bytes->size())), name);
    if (!corpus)
        failRequest(ErrorCode::BadRequest,
                    "payload is not a corpus shard: " +
                        corpus.error().render());

    // At most what the windows can turn into nanoseconds.
    std::optional<std::uint64_t> timestampMs;
    if (params.find("timestamp_ms") != nullptr)
        timestampMs = static_cast<std::uint64_t>(numberParamOr(
            params, "timestamp_ms", 0, 0, UINT64_MAX / kMillisecond));
    checkDeadline(request.deadline);

    // Land the shard in the spool by the same rename-into-place
    // convention on-host writers use (docs/TRACE_FORMAT.md), so a
    // daemon restart replays it from disk.
    namespace fs = std::filesystem;
    const fs::path dir(config_.fleet.dir);
    std::error_code ec;
    fs::create_directories(dir, ec);
    const fs::path staged = dir / ("." + name + ".tmp");
    const fs::path finished = dir / name;
    {
        std::ofstream out(staged,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes->data(),
                  static_cast<std::streamsize>(bytes->size()));
        out.flush();
        if (!out) {
            fs::remove(staged, ec);
            failRequest(ErrorCode::Internal,
                        "cannot stage shard in spool " +
                            dir.string());
        }
    }
    fs::rename(staged, finished, ec);
    if (ec) {
        fs::remove(staged, ec);
        failRequest(ErrorCode::Internal,
                    "cannot finish shard rename: " + ec.message());
    }

    // The ingest retires the sessions over the spool (see start()), so
    // the next request over it opens one that holds this shard.
    const IngestOutcome outcome = fleet_->ingest(
        name, std::move(corpus.value()), timestampMs);

    JsonValue result = JsonValue::makeObject();
    result.set("fleet_revision", JsonValue(fleetRevision()));
    result.set("shard", JsonValue(name));
    result.set("window", JsonValue(outcome.window));
    result.set("alerts", JsonValue(outcome.alerts));
    result.set("evicted", JsonValue(outcome.evicted));
    result.set("ingested_total",
               JsonValue(fleet_->ingestedShards()));
    return result.render();
}

std::string
Server::handleWindowSummary(const QueuedRequest &request)
{
    checkDeadline(request.deadline);
    const JsonValue &params = request.request.params;

    const std::string scenario = stringParam(params, "scenario");
    DurationNs tFast = 0;
    DurationNs tSlow = 0;
    resolveThresholds(params, scenario, tFast, tSlow);

    std::string windowsSel;
    if (const JsonValue *sel = params.find("windows");
        sel != nullptr) {
        if (!sel->isString())
            failRequest(ErrorCode::BadRequest,
                        "param \"windows\" must be \"current\", "
                        "\"all\", or a window id");
        windowsSel = sel->asString();
    }
    std::uint64_t windowId = 0;
    const char *selEnd = windowsSel.data() + windowsSel.size();
    const auto [idEnd, idError] =
        std::from_chars(windowsSel.data(), selEnd, windowId);
    const bool isWindowId = idError == std::errc{} && idEnd == selEnd;
    if (!windowsSel.empty() && windowsSel != "current" &&
        windowsSel != "all" && !isWindowId) {
        failRequest(ErrorCode::BadRequest,
                    "param \"windows\" must be \"current\", "
                    "\"all\", or a window id");
    }
    // A ring holds at most --max-windows (100,000) windows.
    const auto trailing = static_cast<std::size_t>(
        numberParamOr(params, "trailing", 0, 0, 100000));
    const auto top = static_cast<std::size_t>(
        numberParamOr(params, "top", 5, 0, 10000));
    const bool applyFilter =
        boolParamOr(params, "knowledge_filter", true);

    checkDeadline(request.deadline);
    return fleet_
        ->windowSummary(scenario, tFast, tSlow, windowsSel, trailing, top,
                        applyFilter)
        .render();
}

std::string
Server::handleAlerts(const QueuedRequest &request)
{
    checkDeadline(request.deadline);
    const JsonValue &params = request.request.params;

    // Sequence numbers past 2^53 are not exact JSON numbers; a
    // long-poll waits at most an hour.
    const auto afterSeq = static_cast<std::uint64_t>(
        numberParamOr(params, "after_seq", 0, 0, std::uint64_t{1} << 53));
    auto waitMs = static_cast<std::uint64_t>(
        numberParamOr(params, "wait_ms", 0, 0, 3600000));
    if (waitMs != 0 && request.deadline) {
        // The long-poll must resolve inside the request deadline or
        // the client times out with nothing.
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                *request.deadline - Clock::now())
                .count();
        if (remaining <= 0)
            waitMs = 0;
        else
            waitMs = std::min(
                waitMs, static_cast<std::uint64_t>(remaining));
    }

    AlertSink &sink = fleet_->alerts();
    const std::vector<Alert> alerts =
        waitMs != 0 ? sink.waitFor(afterSeq, waitMs)
                    : sink.since(afterSeq);

    JsonValue result = JsonValue::makeObject();
    result.set("fleet_revision", JsonValue(fleetRevision()));
    JsonValue list = JsonValue::makeArray();
    for (const Alert &alert : alerts)
        list.push(alertJson(alert));
    result.set("alerts", std::move(list));
    result.set("last_seq", JsonValue(sink.lastSeq()));
    return result.render();
}

} // namespace server
} // namespace tracelens
