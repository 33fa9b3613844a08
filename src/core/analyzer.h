/**
 * @file
 * The TraceLens pipeline facade: the full two-step analysis of the
 * paper over a trace corpus.
 *
 * Step 1 (impact analysis, Section 3): corpus-wide and per-scenario
 * IA_run / IA_wait / IA_opt for a chosen component filter.
 *
 * Step 2 (causality analysis, Section 4): per scenario — classify
 * instances into fast/slow classes by the scenario's thresholds, build
 * the two Aggregated Wait Graphs, mine ranked contrast patterns, and
 * compute the RQ1 coverage figures.
 *
 * The Analyzer keeps two things, neither of which depends on the
 * thresholds:
 *
 *  - each instance's AWG fragment (Algorithm 1 steps 1-2) and impact
 *    contribution (the Section 3 scan). Construction computes both in
 *    one pass over the streams: it builds each instance's wait graph,
 *    summarizes it and drops it, so no wait graph is kept;
 *  - per scenario, one path trie (src/mining/pathtrie.h), grown from
 *    the fragments of the class members that queries asked about, and
 *    each mapped instance's node ids in it.
 *
 * Every answer is a fold of those. The corpus-wide and per-scenario
 * impact and the per-component split fold every instance's
 * contribution. A scenario query is one straight pass: classify, fold
 * the slow members' contributions, fold the two class columns over
 * the scenario's trie by index from the members' node maps, and mine
 * the columns. Answers themselves are not kept: a daemon answers exact
 * repeats from its response cache (docs/SERVER.md).
 *
 * The corpus is fixed at construction: an Analyzer never takes more
 * trace data, so a changed corpus is a new Analyzer (the daemon
 * retires its sessions over a spool when a shard arrives,
 * src/server/registry.h).
 *
 * What the Analyzer computes is counted in MetricsRegistry::global():
 * analyzer.graph_builds (shards whose wait graphs were built),
 * analyzer.contributions and analyzer.fragments (per-instance
 * summaries computed), all at construction.
 *
 * Every fold merges per-shard results deterministically, so analysis
 * output is bit-identical for every thread count (see
 * docs/ARCHITECTURE.md for the threading model and the stage graph).
 */

#ifndef TRACELENS_CORE_ANALYZER_H
#define TRACELENS_CORE_ANALYZER_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/awg/awg.h"
#include "src/core/partial.h"
#include "src/impact/impact.h"
#include "src/mining/coverage.h"
#include "src/mining/miner.h"
#include "src/mining/pathtrie.h"
#include "src/trace/source.h"
#include "src/trace/stream.h"
#include "src/waitgraph/waitgraph.h"

namespace tracelens
{

/** Pipeline configuration. */
struct AnalyzerConfig
{
    /** Component filter; the paper's study uses all drivers. */
    std::vector<std::string> components = {"*.sys"};
    WaitGraphOptions waitGraph;
    AwgOptions awg;
    /** k and the meta-pattern gate; thresholds come per scenario. */
    std::uint32_t maxSegmentLength = 5;
    bool useMetaPatternGate = true;
    /**
     * Worker threads for the parallel stages (TLC1 decode, when the
     * caller opens its source with this count, as the CLI and the
     * daemon do; the construction pass that builds and summarizes
     * each stream's wait graphs; and the analyzeScenarios fan-out;
     * mining runs serially within a scenario): 0 = all hardware
     * threads (default), 1 = fully serial. Every stage merges
     * per-shard results deterministically, so analysis output is
     * bit-identical for every thread count.
     */
    unsigned threads = 0;
    /**
     * Read by nothing: the on-disk artifact cache it named is gone. It
     * remains because existing callers (the repository benchmark's
     * probes and checks) still set the field.
     */
    std::string artifactCacheDir;
};

/** A scenario name with its developer-specified thresholds. */
struct ScenarioThresholds
{
    std::string name;
    DurationNs tFast = 0;
    DurationNs tSlow = 0;
};

/** Instance classification for one scenario. */
struct ContrastClasses
{
    std::vector<std::uint32_t> fast;   //!< duration < T_fast.
    std::vector<std::uint32_t> slow;   //!< duration > T_slow.
    std::vector<std::uint32_t> middle; //!< between thresholds (unused).
};

/** Full causality-analysis output for one scenario. */
struct ScenarioAnalysis
{
    std::string name;
    DurationNs tFast = 0;
    DurationNs tSlow = 0;
    ContrastClasses classes;

    /** Impact metrics over the slow class only. */
    ImpactResult slowImpact;
    /** Total instance time of the slow class (D_scn of the class). */
    DurationNs slowDuration = 0;

    /** Slow-class AWG time removed as non-optimizable (ReduceAWG). */
    DurationNs slowReducedCost = 0;
    /** Slow-class AWG time kept: the total of its roots' cost. */
    DurationNs slowRootCost = 0;

    /** The ranked patterns; copies of an analysis share one list. */
    std::shared_ptr<const MiningResult> mining;
    CoverageResult coverage;

    /** Driver time share of the slow class: (D_wait+D_run)/D_scn. */
    double driverCostShare() const;
    /**
     * Share of slow-class AWG time removed as non-optimizable direct
     * hardware service (ReduceAWG).
     */
    double nonOptimizableShare() const;
};

/** The fast- and slow-class AWGs of one scenario query. */
struct ClassAwgs
{
    AggregatedWaitGraph fast;
    AggregatedWaitGraph slow;
};

/** The pipeline facade. */
class Analyzer
{
  public:
    /**
     * Analyze the corpus served by @p source: the source decides how
     * trace bytes reach memory (in-memory corpus, file, sharded
     * directory) and isolates corrupt shards; the analyzer ingests the
     * usable shards one at a time, so construction decodes every
     * shard, then summarizes every instance. @p source must outlive
     * the analyzer.
     */
    explicit Analyzer(TraceSource &source, AnalyzerConfig config = {});

    /** Corpus-wide impact analysis (the Section 5.1 headline). */
    ImpactResult impactAll() const;

    /** Impact per scenario id. */
    std::unordered_map<std::uint32_t, ImpactResult>
    impactPerScenario() const;

    /**
     * The corpus-wide component time split by module, heaviest first:
     * every instance's kept contribution folded by a ComponentSplit,
     * so it walks no wait graph the impact scan did not.
     */
    std::vector<ComponentImpact> impactByComponent() const;

    /**
     * Classify one scenario's instances against thresholds: a sweep
     * over the instance columns, neither kept nor counted.
     */
    ContrastClasses classify(std::uint32_t scenario, DurationNs t_fast,
                             DurationNs t_slow) const;

    /**
     * Run the full causality analysis for one scenario: classify, then
     * fold the members' per-instance summaries and mine. Nothing of
     * the answer is kept.
     */
    ScenarioAnalysis analyzeScenario(std::string_view name,
                                     DurationNs t_fast,
                                     DurationNs t_slow) const;

    /**
     * The fast- and slow-class AWGs of @p name at these thresholds,
     * for callers that draw or compare AWG layouts: the members'
     * fragments folded in instance order, then finalized, so the
     * layout is Algorithm 1's. analyzeScenario() does not build them.
     */
    ClassAwgs scenarioAwgs(std::string_view name, DurationNs t_fast,
                           DurationNs t_slow) const;

    /**
     * Analyze several scenarios, fanning the independent analyses out
     * over the configured thread count. Results are returned in input
     * order and are identical to calling analyzeScenario once per
     * entry. Fatal if any named scenario is not in the corpus — filter
     * with TraceCorpus::findScenario first.
     */
    std::vector<ScenarioAnalysis>
    analyzeScenarios(std::span<const ScenarioThresholds> scenarios) const;

    /**
     * This corpus's contribution to a scatter/gathered scenario
     * analysis (the worker side of coordinator mode, docs/SERVER.md):
     * classification tally, slow-class impact accumulator, and the
     * two unreduced AWG fragments, plus the frame table and stream
     * count that let the coordinator rebuild global identity. A
     * scenario absent from this corpus yields empty partials (still
     * carrying the frame table — the coordinator interns every
     * shard's frames, present or not, to reproduce single-node
     * interning order).
     */
    ScenarioPartial scenarioPartial(std::string_view name,
                                    DurationNs t_fast,
                                    DurationNs t_slow) const;

    /** This corpus's corpus-wide + per-scenario impact partials. */
    ImpactPartial impactPartial() const;

    /**
     * The per-instance wait graphs, in instance order, built anew on
     * every call: the Analyzer keeps none. For callers that measure or
     * inspect the graphs themselves.
     */
    std::vector<WaitGraph> graphs() const;

    /** The merged analysis corpus over all ingested shards. */
    const TraceCorpus &corpus() const { return *corpus_; }
    /** The ingestion source feeding this analyzer. */
    TraceSource &source() const { return *source_; }
    const AnalyzerConfig &config() const { return config_; }
    const NameFilter &components() const { return components_; }

  private:
    /**
     * Ingest @p shard as the next shard. The first is adopted directly
     * as the analysis corpus (no copy); a second forces the switch to
     * an owned merged corpus.
     */
    void absorb(CorpusPtr shard);

    /** Switch from an aliased single shard to an owned copy. */
    void ensureOwned();

    /**
     * Build each instance's wait graph, one builder per stream, keep
     * the graph's summaries and drop it.
     */
    void summarizeInstances();

    /** One instance's threshold-independent summaries. */
    struct InstanceSummaries
    {
        AwgFragment fragment;
        ImpactContribution contribution;
        /** The scenario trie's node for each fragment node, and
         *  whether they are set; guarded by that trie's mutex. */
        std::vector<std::uint32_t> trieNodes;
        bool mapped = false;
    };

    /**
     * One scenario's path trie. Growing it is exclusive; folding a
     * column and mining read it under the shared lock, so no reader
     * sees its vectors reallocate, and queries on different scenarios
     * never share a lock.
     */
    struct ScenarioTrie
    {
        explicit ScenarioTrie(std::uint32_t k) : trie(k) {}

        std::shared_mutex mutex;
        PathTrie trie;
    };

    /** @p scenario's path trie, created on first use. */
    ScenarioTrie &scenarioTrie(std::uint32_t scenario) const;

    /** Every instance's contribution, folded in instance order. */
    PartialImpact corpusImpactPartial() const;

    /** Every instance's contribution, folded in instance order into
     *  one accumulator per scenario id, ascending. */
    std::vector<std::pair<std::uint32_t, PartialImpact>>
    scenarioImpactPartials() const;

    /** Slow-class impact: @p members' contributions folded in order. */
    PartialImpact
    classImpact(const std::vector<std::uint32_t> &members) const;

    /** A class's unreduced AWG: @p members' fragments folded in order. */
    PartialAwg classAwg(const std::vector<std::uint32_t> &members) const;

    /** Map every member of @p members the trie has no nodes for. */
    void growTrie(ScenarioTrie &scenario,
                  const std::vector<std::uint32_t> &members) const;

    /** A class's column over its scenario's trie, finalized. */
    AwgColumn classColumn(ScenarioTrie &scenario,
                          const std::vector<std::uint32_t> &members) const;

    TraceSource *source_;
    AnalyzerConfig config_;
    NameFilter components_;

    /** Non-null while the corpus aliases a single source shard. */
    CorpusPtr aliasShard_;
    /** The merged corpus once a second shard forced a copy. */
    TraceCorpus ownedCorpus_;
    const TraceCorpus *corpus_ = &ownedCorpus_;

    /** Shards ingested. */
    std::size_t shards_ = 0;

    /** One entry per instance, filled at construction; a query
     *  writes only the trie fields. */
    mutable std::vector<InstanceSummaries> summaries_;

    /** Per scenario id, created on first use. */
    mutable std::mutex triesMutex_;
    mutable std::unordered_map<std::uint32_t, std::unique_ptr<ScenarioTrie>>
        tries_;
};

} // namespace tracelens

#endif // TRACELENS_CORE_ANALYZER_H
