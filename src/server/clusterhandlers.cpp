/**
 * @file
 * The cluster handlers of the daemon (src/server/server.h): a
 * worker's `analyze_partial`, `mine_partial` and `impact_partial`,
 * and a coordinator's scatter/gather `analyze`, `impact` and `mine`,
 * `cluster_status` and `cluster_trace` (src/server/coordinator.h).
 */

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/partial.h"
#include "src/core/resultjson.h"
#include "src/server/coordinator.h"
#include "src/server/handlers.h"
#include "src/server/server.h"

namespace tracelens
{
namespace server
{

// ------------------------------------ worker-side partial handlers

std::string
Server::handleAnalyzePartial(const QueuedRequest &request)
{
    const JsonValue &params = request.request.params;
    const std::string corpusPath = stringParam(params, "corpus");
    const std::string scenario = stringParam(params, "scenario");
    // Unlike `analyze`, the thresholds are mandatory: the coordinator
    // resolves catalog defaults once and ships explicit values so
    // every worker classifies identically.
    const DurationNs tFast = thresholdParamOr(params, "tfast_ms", 0.0);
    const DurationNs tSlow = thresholdParamOr(params, "tslow_ms", 0.0);
    if (tFast <= 0 || tSlow <= tFast) {
        failRequest(ErrorCode::BadRequest,
                    "need 0 < tfast_ms < tslow_ms (partial requests "
                    "carry explicit thresholds)");
    }
    const std::vector<std::string> components =
        stringListParam(params, "components");

    const SessionRegistry::Handle session = openSession(
        registry_, corpusPath, components, request.deadline);

    Digest keyParams;
    keyParams.mix(scenario)
        .mix(static_cast<std::uint64_t>(tFast))
        .mix(static_cast<std::uint64_t>(tSlow));
    CorpusSession &warm = *session;
    return cachedAnswer(warm, Method::AnalyzePartial, keyParams, [&] {
        Analyzer &analyzer = warm.analyzer();
        const bool found =
            analyzer.corpus().findScenario(scenario) != UINT32_MAX;
        const ScenarioPartial partial =
            analyzer.scenarioPartial(scenario, tFast, tSlow);
        checkDeadline(request.deadline);

        JsonValue result = JsonValue::makeObject();
        result.set("encoding_revision",
                   JsonValue(partialEncodingRevision()));
        result.set("scenario_found", JsonValue(found));
        result.set("partial", JsonValue(base64Encode(
                                  encodeScenarioPartial(partial))));
        return result.render();
    });
}

std::string
Server::handleImpactPartial(const QueuedRequest &request)
{
    const JsonValue &params = request.request.params;
    const std::string corpusPath = stringParam(params, "corpus");
    const std::vector<std::string> components =
        stringListParam(params, "components");

    const SessionRegistry::Handle session = openSession(
        registry_, corpusPath, components, request.deadline);

    CorpusSession &warm = *session;
    return cachedAnswer(warm, Method::ImpactPartial, Digest{}, [&] {
        const ImpactPartial partial = warm.analyzer().impactPartial();
        checkDeadline(request.deadline);

        JsonValue result = JsonValue::makeObject();
        result.set("encoding_revision",
                   JsonValue(partialEncodingRevision()));
        result.set("partial", JsonValue(base64Encode(
                                  encodeImpactPartial(partial))));
        return result.render();
    });
}

// ------------------------------------------- coordinator handlers

namespace
{

/** Degradation markers — ABSENT on a full result, so a non-degraded
 *  coordinator response stays byte-identical to single-node. */
void
attachGatherReport(JsonValue &result, const GatherReport &report)
{
    if (!report.degraded())
        return;
    result.set("partial_results", JsonValue(true));
    JsonValue missing = JsonValue::makeArray();
    for (const ShardFailure &failure : report.missing) {
        JsonValue entry = JsonValue::makeObject();
        entry.set("shard", JsonValue(failure.shard));
        entry.set("worker", JsonValue(failure.worker));
        entry.set("reason", JsonValue(failure.reason));
        missing.push(std::move(entry));
    }
    result.set("missing_shards", std::move(missing));
}

} // namespace

std::string
Server::handleCoordAnalyze(const QueuedRequest &request)
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

    ScenarioGather gather;
    if (auto error = coordinator_->gatherScenario(
            Method::AnalyzePartial, corpusPath, scenario, toMs(tFast),
            toMs(tSlow), components, request.deadline, gather))
        failRequest(error->code, error->message);
    checkDeadline(request.deadline);

    const ImpactResult slowImpact = gather.slowImpact.finalize();
    const AggregatedWaitGraph awgFast =
        std::move(gather.awgFast).finalize(true);
    const AggregatedWaitGraph awgSlow =
        std::move(gather.awgSlow).finalize(true);
    checkDeadline(request.deadline);
    ScenarioSummary summary = summarizeScenario(
        scenario, tFast, tSlow, gather.classes, slowImpact, awgFast,
        awgSlow, gather.symbols, top, applyFilter);
    checkDeadline(request.deadline);

    JsonValue result = std::move(summary.json);
    attachGatherReport(result, gather.report);
    return result.render();
}

std::string
Server::handleCoordImpact(const QueuedRequest &request)
{
    const JsonValue &params = request.request.params;
    const std::string corpusPath = stringParam(params, "corpus");
    const std::vector<std::string> components =
        stringListParam(params, "components");

    ImpactGather gather;
    if (auto error = coordinator_->gatherImpact(
            corpusPath, components, request.deadline, gather))
        failRequest(error->code, error->message);
    checkDeadline(request.deadline);

    // The resolved component filter, exactly as a worker session
    // resolves it (SessionRegistry: empty = analyzer default).
    const std::vector<std::string> &resolved =
        components.empty() ? AnalyzerConfig{}.components : components;

    std::map<std::string, ImpactResult> perScenario;
    for (const auto &[name, accumulator] : gather.perScenario)
        perScenario.emplace(name, accumulator.finalize());
    JsonValue result =
        impactAnswerJson(resolved, gather.all.finalize(), perScenario);
    attachGatherReport(result, gather.report);
    return result.render();
}

std::string
Server::handleCoordMine(const QueuedRequest &request)
{
    const JsonValue &params = request.request.params;
    const std::string corpusPath = stringParam(params, "corpus");
    const std::string scenario = stringParam(params, "scenario");
    DurationNs tFast = 0, tSlow = 0;
    resolveThresholds(params, scenario, tFast, tSlow);
    const auto maxPatterns = static_cast<std::size_t>(
        numberParamOr(params, "max_patterns", 100, 1, 10000));

    ScenarioGather gather;
    if (auto error = coordinator_->gatherScenario(
            Method::MinePartial, corpusPath, scenario, toMs(tFast),
            toMs(tSlow), {}, request.deadline, gather))
        failRequest(error->code, error->message);
    checkDeadline(request.deadline);

    const AggregatedWaitGraph awgFast =
        std::move(gather.awgFast).finalize(true);
    const AggregatedWaitGraph awgSlow =
        std::move(gather.awgSlow).finalize(true);
    const ScenarioMining mined =
        mineScenario(awgFast, awgSlow, tFast, tSlow);
    checkDeadline(request.deadline);

    JsonValue result = mineJson(scenario, tSlow, mined.mining,
                                mined.coverage, gather.symbols,
                                maxPatterns);
    attachGatherReport(result, gather.report);
    return result.render();
}

std::string
Server::handleClusterStatus(const QueuedRequest &request)
{
    checkDeadline(request.deadline);
    JsonValue result = coordinator_->clusterStatus();
    if (boolParamOr(request.request.params, "metrics", false)) {
        // Aggregate the coordinator's own registry plus every
        // worker's, bucket-exact (Histogram::State merges).
        MetricsRegistry aggregate;
        aggregate.merge(MetricsRegistry::global().snapshot());
        JsonValue pulls = coordinator_->clusterMetrics(aggregate);
        checkDeadline(request.deadline);
        result.set("metrics",
                   metricsSnapshotJson(aggregate.snapshot()));
        result.set("metrics_pulls", std::move(pulls));
    }
    return result.render();
}

std::string
Server::handleClusterTrace(const QueuedRequest &request)
{
    checkDeadline(request.deadline);
    // The coordinator's own buffer renders as pid 1; workers get
    // pids 2+ in topology order. Distinct pids per node are what
    // keep two nodes' tid 0 from aliasing in the merged trace.
    std::vector<NodeSpans> nodes;
    NodeSpans own;
    own.node = nodeName();
    own.pid = 1;
    own.epochUnixUs = Telemetry::epochUnixUs();
    own.spans = Telemetry::snapshotSpans();
    nodes.push_back(std::move(own));
    for (NodeSpans &node : coordinator_->pullWorkerSpans()) {
        node.pid = static_cast<std::uint32_t>(nodes.size() + 1);
        nodes.push_back(std::move(node));
    }
    checkDeadline(request.deadline);

    std::size_t spanCount = 0;
    for (const NodeSpans &node : nodes)
        spanCount += node.spans.size();

    JsonValue result = JsonValue::makeObject();
    result.set("nodes", JsonValue(nodes.size()));
    result.set("spans", JsonValue(spanCount));
    result.set("trace",
               JsonValue(Telemetry::renderChromeTraceMerged(nodes)));
    return result.render();
}

} // namespace server
} // namespace tracelens
