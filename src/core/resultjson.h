/**
 * @file
 * Shared JSON renderers for merged scenario results.
 *
 * The server's `analyze`/`coord-analyze` handlers and the fleet
 * layer's rolling-window summaries (src/fleet/windows.h) must emit
 * *byte-identical* JSON for the same underlying shards — that is the
 * acceptance contract tested by tests/fleet_test.cpp and
 * scripts/smoke_fleet.sh. Rather than keeping two renderers in sync
 * by convention, the finalize-and-render path lives here once:
 * impact/pattern JSON shapes, the gathered-AWG miner, and one
 * renderer per answer shape (`impact`, `analyze` and `mine`), each
 * taking already-computed results so a single node, a coordinator and
 * a rolling window all render through the same code.
 */

#ifndef TRACELENS_CORE_RESULTJSON_H
#define TRACELENS_CORE_RESULTJSON_H

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/awg/awg.h"
#include "src/core/partial.h"
#include "src/impact/impact.h"
#include "src/mining/coverage.h"
#include "src/mining/miner.h"
#include "src/trace/symbols.h"
#include "src/util/json.h"
#include "src/util/types.h"

namespace tracelens
{

/** The `slow_impact` / `impact` JSON object shape. */
JsonValue impactJson(const ImpactResult &impact);

/**
 * The `impact` answer object: the resolved component globs, the
 * corpus-wide impact (`all`) and one impact per scenario name
 * (`per_scenario`). A single node and a coordinator both render it
 * here.
 */
JsonValue
impactAnswerJson(const std::vector<std::string> &components,
                 const ImpactResult &all,
                 const std::map<std::string, ImpactResult> &perScenario);

/** One ranked pattern entry of a `patterns` array. */
JsonValue patternJson(const ContrastPattern &pattern, DurationNs tSlow,
                      const SymbolTable &symbols, std::size_t rank);

/**
 * Mine two merged AWGs exactly as a single-node analyzer would
 * (AnalyzerConfig mining defaults; thread count never changes the
 * ranked result). The miner only reads the AWGs, not the corpus.
 */
MiningResult mineGathered(const AggregatedWaitGraph &fast,
                          const AggregatedWaitGraph &slow,
                          DurationNs tFast, DurationNs tSlow);

/** A scenario's mined patterns and their coverage of the slow class. */
struct ScenarioMining
{
    MiningResult mining;
    CoverageResult coverage;
};

/**
 * The mining step of a merged scenario: mineGathered() over the two
 * finalized, reduced AWGs, and the patterns' coverage of the slow
 * AWG's time (its graph cost plus the non-optimizable time ReduceAWG
 * removed), exactly as the Analyzer computes it.
 */
ScenarioMining mineScenario(const AggregatedWaitGraph &awgFast,
                            const AggregatedWaitGraph &awgSlow,
                            DurationNs tFast, DurationNs tSlow);

/**
 * The `analyze` answer object for an already-mined scenario, keys in
 * `analyze` order (scenario, tfast_ms, tslow_ms, classes, slow_impact,
 * driver_cost_share, coverage, mining_stats, suppressed, patterns).
 * The knowledge filter, when requested, drops known-benign patterns
 * before the top @p top are listed. @p symbols resolves the pattern
 * frames.
 */
JsonValue scenarioJson(const std::string &scenario, DurationNs tFast,
                       DurationNs tSlow, const PartialClasses &classes,
                       const ImpactResult &slowImpact,
                       const MiningResult &mining,
                       const CoverageResult &coverage,
                       const SymbolTable &symbols, std::size_t top,
                       bool applyKnowledgeFilter);

/**
 * The `mine` answer object (scenario, mining_stats, coverage, the
 * first @p maxPatterns patterns unfiltered, total_patterns).
 */
JsonValue mineJson(const std::string &scenario, DurationNs tSlow,
                   const MiningResult &mining,
                   const CoverageResult &coverage,
                   const SymbolTable &symbols, std::size_t maxPatterns);

/**
 * A scenario summary finalized from merged partial state: the mined
 * patterns plus the rendered JSON object — the exact shape `analyze`
 * returns, so callers can byte-compare across batch, coordinator,
 * and rolling-window paths.
 */
struct ScenarioSummary
{
    MiningResult mining;
    CoverageResult coverage;
    double driverCostShare = 0.0;
    JsonValue json;
};

/**
 * Finalize merged scenario partials into the canonical summary:
 * mineScenario() and then scenarioJson().
 *
 * @p awgFast / @p awgSlow must already be finalized *reduced* graphs;
 * @p slowImpact must already be finalized. @p symbols is the merged
 * table the partial frames were interned into.
 */
ScenarioSummary
summarizeScenario(const std::string &scenario, DurationNs tFast,
                  DurationNs tSlow, const PartialClasses &classes,
                  const ImpactResult &slowImpact,
                  const AggregatedWaitGraph &awgFast,
                  const AggregatedWaitGraph &awgSlow,
                  const SymbolTable &symbols, std::size_t top,
                  bool applyKnowledgeFilter);

} // namespace tracelens

#endif // TRACELENS_CORE_RESULTJSON_H
