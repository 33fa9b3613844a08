/**
 * @file
 * Shared finalize-and-render path for merged scenario results (see
 * src/core/resultjson.h for the byte-identity contract).
 */

#include "src/core/resultjson.h"

#include <algorithm>

#include "src/core/analyzer.h"
#include "src/mining/knowledge.h"

namespace tracelens
{

JsonValue
impactJson(const ImpactResult &impact)
{
    JsonValue out = JsonValue::makeObject();
    out.set("instances", JsonValue(impact.instances));
    out.set("d_scn_ms", JsonValue(toMs(impact.dScn)));
    out.set("d_wait_ms", JsonValue(toMs(impact.dWait)));
    out.set("d_run_ms", JsonValue(toMs(impact.dRun)));
    out.set("d_waitdist_ms", JsonValue(toMs(impact.dWaitDist)));
    out.set("ia_run", JsonValue(impact.iaRun()));
    out.set("ia_wait", JsonValue(impact.iaWait()));
    out.set("ia_opt", JsonValue(impact.iaOpt()));
    return out;
}

JsonValue
impactAnswerJson(const std::vector<std::string> &components,
                 const ImpactResult &all,
                 const std::map<std::string, ImpactResult> &perScenario)
{
    JsonValue result = JsonValue::makeObject();
    JsonValue componentsJson = JsonValue::makeArray();
    for (const std::string &glob : components)
        componentsJson.push(JsonValue(glob));
    result.set("components", std::move(componentsJson));
    result.set("all", impactJson(all));
    JsonValue perScenarioJson = JsonValue::makeObject();
    for (const auto &[name, impact] : perScenario)
        perScenarioJson.set(name, impactJson(impact));
    result.set("per_scenario", std::move(perScenarioJson));
    return result;
}

JsonValue
patternJson(const ContrastPattern &pattern, DurationNs tSlow,
            const SymbolTable &symbols, std::size_t rank)
{
    JsonValue out = JsonValue::makeObject();
    out.set("rank", JsonValue(rank));
    out.set("impact_ms",
            JsonValue(toMs(static_cast<DurationNs>(pattern.impact()))));
    out.set("count", JsonValue(pattern.count));
    out.set("high_impact", JsonValue(pattern.highImpact(tSlow)));
    out.set("tuple", JsonValue(pattern.tuple.renderCompact(symbols)));
    return out;
}

MiningResult
mineGathered(const AggregatedWaitGraph &fast,
             const AggregatedWaitGraph &slow, DurationNs tFast,
             DurationNs tSlow)
{
    const AnalyzerConfig defaults;
    MiningOptions options;
    options.maxSegmentLength = defaults.maxSegmentLength;
    options.tFast = tFast;
    options.tSlow = tSlow;
    options.useMetaPatternGate = defaults.useMetaPatternGate;
    const TraceCorpus dummy;
    ContrastMiner miner(dummy, options);
    return miner.mine(fast, slow, 1);
}

ScenarioMining
mineScenario(const AggregatedWaitGraph &awgFast,
             const AggregatedWaitGraph &awgSlow, DurationNs tFast,
             DurationNs tSlow)
{
    ScenarioMining mined;
    mined.mining = mineGathered(awgFast, awgSlow, tFast, tSlow);
    mined.coverage = computeCoverage(
        mined.mining, awgSlow.reducedCost() + awgSlow.totalRootCost(),
        tSlow);
    return mined;
}

namespace
{

/** Driver time share of the slow class: (D_wait + D_run) / D_scn. */
double
driverCostShare(const PartialClasses &classes,
                const ImpactResult &slowImpact)
{
    return classes.slowDuration == 0
               ? 0.0
               : static_cast<double>(slowImpact.dWait +
                                     slowImpact.dRun) /
                     static_cast<double>(classes.slowDuration);
}

} // namespace

JsonValue
scenarioJson(const std::string &scenario, DurationNs tFast,
             DurationNs tSlow, const PartialClasses &classes,
             const ImpactResult &slowImpact, const MiningResult &mining,
             const CoverageResult &coverage, const SymbolTable &symbols,
             std::size_t top, bool applyKnowledgeFilter)
{
    // One walk: list the first @p top kept patterns and count every
    // suppressed one.
    const KnowledgeBase knowledge = KnowledgeBase::defaults();
    std::size_t suppressed = 0;
    JsonValue list = JsonValue::makeArray();
    std::size_t listed = 0;
    for (const ContrastPattern &pattern : mining.patterns) {
        if (applyKnowledgeFilter &&
            knowledge.matches(pattern.tuple, symbols)) {
            ++suppressed;
        } else if (listed < top) {
            list.push(patternJson(pattern, tSlow, symbols, ++listed));
        } else if (!applyKnowledgeFilter) {
            break;
        }
    }

    JsonValue result = JsonValue::makeObject();
    result.set("scenario", JsonValue(scenario));
    result.set("tfast_ms", JsonValue(toMs(tFast)));
    result.set("tslow_ms", JsonValue(toMs(tSlow)));
    JsonValue classesJson = JsonValue::makeObject();
    classesJson.set("fast", JsonValue(classes.fast));
    classesJson.set("middle", JsonValue(classes.middle));
    classesJson.set("slow", JsonValue(classes.slow));
    result.set("classes", std::move(classesJson));
    result.set("slow_impact", impactJson(slowImpact));
    result.set("driver_cost_share",
               JsonValue(driverCostShare(classes, slowImpact)));
    result.set("coverage", JsonValue(coverage.render()));
    result.set("mining_stats", JsonValue(mining.stats.render()));
    result.set("suppressed", JsonValue(suppressed));
    result.set("patterns", std::move(list));
    return result;
}

JsonValue
mineJson(const std::string &scenario, DurationNs tSlow,
         const MiningResult &mining, const CoverageResult &coverage,
         const SymbolTable &symbols, std::size_t maxPatterns)
{
    JsonValue result = JsonValue::makeObject();
    result.set("scenario", JsonValue(scenario));
    result.set("mining_stats", JsonValue(mining.stats.render()));
    result.set("coverage", JsonValue(coverage.render()));
    JsonValue list = JsonValue::makeArray();
    const auto &patterns = mining.patterns;
    for (std::size_t i = 0; i < std::min(maxPatterns, patterns.size());
         ++i)
        list.push(patternJson(patterns[i], tSlow, symbols, i + 1));
    result.set("patterns", std::move(list));
    result.set("total_patterns", JsonValue(patterns.size()));
    return result;
}

ScenarioSummary
summarizeScenario(const std::string &scenario, DurationNs tFast,
                  DurationNs tSlow, const PartialClasses &classes,
                  const ImpactResult &slowImpact,
                  const AggregatedWaitGraph &awgFast,
                  const AggregatedWaitGraph &awgSlow,
                  const SymbolTable &symbols, std::size_t top,
                  bool applyKnowledgeFilter)
{
    ScenarioMining mined = mineScenario(awgFast, awgSlow, tFast, tSlow);
    ScenarioSummary summary;
    summary.json = scenarioJson(scenario, tFast, tSlow, classes,
                                slowImpact, mined.mining, mined.coverage,
                                symbols, top, applyKnowledgeFilter);
    summary.driverCostShare = driverCostShare(classes, slowImpact);
    summary.mining = std::move(mined.mining);
    summary.coverage = std::move(mined.coverage);
    return summary;
}

} // namespace tracelens
