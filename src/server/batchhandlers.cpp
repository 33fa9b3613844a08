/**
 * @file
 * The batch handlers of the daemon (src/server/server.h): `analyze`,
 * `impact`, `mine` and `ingest` over a warm corpus session, the
 * test-only `sleep`, and the param readers every handler shares
 * (src/server/handlers.h).
 */

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/core/resultjson.h"
#include "src/server/handlers.h"
#include "src/server/server.h"
#include "src/workload/scenarios.h"

namespace tracelens
{
namespace server
{

namespace
{

const JsonValue &
requireParam(const JsonValue &params, std::string_view key)
{
    const JsonValue *value = params.find(key);
    if (value == nullptr)
        failRequest(ErrorCode::BadRequest,
                    "missing required param \"" + std::string(key) +
                        "\"");
    return *value;
}

} // namespace

std::string
stringParam(const JsonValue &params, std::string_view key)
{
    const JsonValue &value = requireParam(params, key);
    if (!value.isString() || value.asString().empty())
        failRequest(ErrorCode::BadRequest,
                    "param \"" + std::string(key) +
                        "\" must be a non-empty string");
    return value.asString();
}

/**
 * Number param @p key in [@p lo, @p hi], or @p fallback when absent.
 * Every number a handler casts to an integer type reads through here,
 * so no cast sees a value its type cannot hold.
 */
double
numberParamOr(const JsonValue &params, std::string_view key,
              double fallback, std::uint64_t lo, std::uint64_t hi)
{
    const JsonValue *value = params.find(key);
    if (value == nullptr)
        return fallback;
    if (!value->isNumber() || !std::isfinite(value->asNumber()))
        failRequest(ErrorCode::BadRequest,
                    "param \"" + std::string(key) +
                        "\" must be a finite number");
    const double number = value->asNumber();
    if (number < static_cast<double>(lo) ||
        number > static_cast<double>(hi))
        failRequest(ErrorCode::BadRequest,
                    "param \"" + std::string(key) + "\" must be in [" +
                        std::to_string(lo) + ", " + std::to_string(hi) +
                        "]");
    return number;
}

/** The largest threshold in ms that fromMs() turns into a DurationNs. */
constexpr std::uint64_t kMaxThresholdMs = INT64_MAX / kMillisecond;

/** A threshold param in ms, as nanoseconds. */
DurationNs
thresholdParamOr(const JsonValue &params, std::string_view key,
                 double fallbackMs)
{
    return fromMs(
        numberParamOr(params, key, fallbackMs, 0, kMaxThresholdMs));
}

bool
boolParamOr(const JsonValue &params, std::string_view key,
            bool fallback)
{
    const JsonValue *value = params.find(key);
    if (value == nullptr)
        return fallback;
    if (!value->isBool())
        failRequest(ErrorCode::BadRequest,
                    "param \"" + std::string(key) +
                        "\" must be a boolean");
    return value->asBool();
}

std::vector<std::string>
stringListParam(const JsonValue &params, std::string_view key)
{
    std::vector<std::string> out;
    const JsonValue *value = params.find(key);
    if (value == nullptr)
        return out;
    if (!value->isArray())
        failRequest(ErrorCode::BadRequest,
                    "param \"" + std::string(key) +
                        "\" must be an array of strings");
    for (const JsonValue &item : value->asArray()) {
        if (!item.isString())
            failRequest(ErrorCode::BadRequest,
                        "param \"" + std::string(key) +
                            "\" must be an array of strings");
        out.push_back(item.asString());
    }
    return out;
}

/** Scenario thresholds: catalog defaults, params override. */
void
resolveThresholds(const JsonValue &params, const std::string &scenario,
                  DurationNs &tFast, DurationNs &tSlow)
{
    tFast = 0;
    tSlow = 0;
    for (const ScenarioSpec &spec : scenarioCatalog()) {
        if (spec.name == scenario) {
            tFast = spec.tFast;
            tSlow = spec.tSlow;
        }
    }
    tFast = thresholdParamOr(params, "tfast_ms", toMs(tFast));
    tSlow = thresholdParamOr(params, "tslow_ms", toMs(tSlow));
    if (tFast <= 0 || tSlow <= tFast) {
        failRequest(ErrorCode::BadRequest,
                    "need tfast_ms < tslow_ms (required for scenarios "
                    "outside the catalog)");
    }
}

std::string
Server::handleAnalyze(const QueuedRequest &request)
{
    const JsonValue &params = request.request.params;
    const std::string corpusPath = stringParam(params, "corpus");
    const std::string scenario = stringParam(params, "scenario");
    DurationNs tFast = 0, tSlow = 0;
    resolveThresholds(params, scenario, tFast, tSlow);
    const auto top = static_cast<std::size_t>(
        numberParamOr(params, "top", 5, 0, 10000));
    const bool applyFilter =
        boolParamOr(params, "knowledge_filter", true);
    const std::vector<std::string> components =
        stringListParam(params, "components");

    const SessionRegistry::Handle session = openSession(
        registry_, corpusPath, components, request.deadline);

    Digest keyParams;
    keyParams.mix(scenario)
        .mix(static_cast<std::uint64_t>(tFast))
        .mix(static_cast<std::uint64_t>(tSlow))
        .mix(static_cast<std::uint64_t>(top))
        .mix(static_cast<std::uint64_t>(applyFilter));
    CorpusSession &warm = *session;
    return cachedAnswer(warm, Method::Analyze, keyParams, [&] {
        Analyzer &analyzer = warm.analyzer();
        const TraceCorpus &corpus = analyzer.corpus();
        if (corpus.findScenario(scenario) == UINT32_MAX)
            failRequest(ErrorCode::NotFound,
                        "scenario \"" + scenario +
                            "\" not present in corpus");
        const ScenarioAnalysis analysis =
            analyzer.analyzeScenario(scenario, tFast, tSlow);
        checkDeadline(request.deadline);

        PartialClasses classes;
        classes.fast = analysis.classes.fast.size();
        classes.middle = analysis.classes.middle.size();
        classes.slow = analysis.classes.slow.size();
        classes.slowDuration = analysis.slowDuration;
        return scenarioJson(scenario, tFast, tSlow, classes,
                            analysis.slowImpact, *analysis.mining,
                            analysis.coverage, corpus.symbols(), top,
                            applyFilter)
            .render();
    });
}

std::string
Server::handleImpact(const QueuedRequest &request)
{
    const JsonValue &params = request.request.params;
    const std::string corpusPath = stringParam(params, "corpus");
    const std::vector<std::string> components =
        stringListParam(params, "components");

    const SessionRegistry::Handle session = openSession(
        registry_, corpusPath, components, request.deadline);

    CorpusSession &warm = *session;
    return cachedAnswer(warm, Method::Impact, Digest{}, [&] {
        Analyzer &analyzer = warm.analyzer();
        const TraceCorpus &corpus = analyzer.corpus();
        const ImpactResult all = analyzer.impactAll();
        checkDeadline(request.deadline);
        std::map<std::string, ImpactResult> perScenario;
        for (const auto &[scenarioId, impact] :
             analyzer.impactPerScenario())
            perScenario.emplace(corpus.scenarioName(scenarioId), impact);
        return impactAnswerJson(analyzer.components().patterns(), all,
                                perScenario)
            .render();
    });
}

std::string
Server::handleMine(const QueuedRequest &request)
{
    const JsonValue &params = request.request.params;
    const std::string corpusPath = stringParam(params, "corpus");
    const std::string scenario = stringParam(params, "scenario");
    DurationNs tFast = 0, tSlow = 0;
    resolveThresholds(params, scenario, tFast, tSlow);
    const auto maxPatterns = static_cast<std::size_t>(
        numberParamOr(params, "max_patterns", 100, 1, 10000));

    const SessionRegistry::Handle session = openSession(
        registry_, corpusPath, {}, request.deadline);

    Digest keyParams;
    keyParams.mix(scenario)
        .mix(static_cast<std::uint64_t>(tFast))
        .mix(static_cast<std::uint64_t>(tSlow))
        .mix(static_cast<std::uint64_t>(maxPatterns));
    CorpusSession &warm = *session;
    return cachedAnswer(warm, Method::Mine, keyParams, [&] {
        Analyzer &analyzer = warm.analyzer();
        const TraceCorpus &corpus = analyzer.corpus();
        if (corpus.findScenario(scenario) == UINT32_MAX)
            failRequest(ErrorCode::NotFound,
                        "scenario \"" + scenario +
                            "\" not present in corpus");
        const ScenarioAnalysis analysis =
            analyzer.analyzeScenario(scenario, tFast, tSlow);
        checkDeadline(request.deadline);

        return mineJson(scenario, tSlow, *analysis.mining,
                        analysis.coverage, corpus.symbols(), maxPatterns)
            .render();
    });
}

std::string
Server::handleIngest(const QueuedRequest &request)
{
    const JsonValue &params = request.request.params;
    const std::string corpusPath = stringParam(params, "corpus");

    const SessionRegistry::Handle session = openSession(
        registry_, corpusPath, {}, request.deadline);

    const SessionIngestInfo &info = session->ingestInfo();
    JsonValue result = JsonValue::makeObject();
    result.set("source", JsonValue(info.describe));
    result.set("shards", JsonValue(info.shards));
    result.set("loaded_shards", JsonValue(info.loadedShards));
    result.set("skipped_shards", JsonValue(info.skippedShards));
    result.set("ingest_bytes", JsonValue(info.ingestBytes));
    result.set("events", JsonValue(info.events));
    result.set("instances", JsonValue(info.instances));
    JsonValue scenarios = JsonValue::makeObject();
    for (const ScenarioTally &tally : info.scenarios) {
        JsonValue entry = JsonValue::makeObject();
        entry.set("instances", JsonValue(tally.instances));
        entry.set("mean_ms", JsonValue(tally.meanMs));
        scenarios.set(tally.name, std::move(entry));
    }
    result.set("scenarios", std::move(scenarios));
    return result.render();
}

std::string
Server::handleSleep(const QueuedRequest &request)
{
    // Test-only: occupy a worker for a bounded time, checking the
    // deadline cooperatively — the determinism hook for the
    // backpressure and deadline tests and the load bench.
    const double ms =
        numberParamOr(request.request.params, "ms", 10, 0, 60000);
    const auto until =
        Clock::now() +
        std::chrono::microseconds(static_cast<std::int64_t>(ms * 1e3));
    while (Clock::now() < until) {
        checkDeadline(request.deadline);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    JsonValue result = JsonValue::makeObject();
    result.set("slept_ms", JsonValue(ms));
    return result.render();
}

} // namespace server
} // namespace tracelens
