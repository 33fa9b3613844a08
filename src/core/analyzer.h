/**
 * @file
 * The TraceLens pipeline facade: the full two-step analysis of the
 * paper over a trace corpus, as an explicit stage graph.
 *
 * Step 1 (impact analysis, Section 3): corpus-wide and per-scenario
 * IA_run / IA_wait / IA_opt for a chosen component filter.
 *
 * Step 2 (causality analysis, Section 4): per scenario — classify
 * instances into fast/slow classes by the scenario's thresholds, build
 * the two Aggregated Wait Graphs, mine ranked contrast patterns, and
 * compute the RQ1 coverage figures.
 *
 * The per-instance wait graphs are built once per shard and held in
 * one vector. Each instance's AWG fragment (Algorithm 1 steps 1-2)
 * and impact contribution (the Section 3 scan) depend on neither the
 * thresholds nor the other instances, so the Analyzer computes them
 * the first time a query needs that instance and keeps them: the
 * slow-class impact folds its members' kept contributions in instance
 * order, and the corpus-wide and per-scenario impact fold every
 * instance's. Per scenario the Analyzer keeps one path trie
 * (src/mining/pathtrie.h), grown from the fragments of the class
 * members that queries asked about, and each mapped instance's node
 * ids in it: a class AWG is a column over the trie, folded by index
 * from its members' node maps, and mining runs over two columns. On
 * top of those the Analyzer keeps two things:
 *
 *  - the corpus-wide and per-scenario impact and the per-component
 *    split, computed once;
 *  - per scenario, one slot holding the classes, slow-class impact,
 *    both class columns and the mining result at the thresholds the
 *    scenario was last asked at. A query at those thresholds shares
 *    the slot; a query at other thresholds replaces it, so a daemon
 *    exploring thresholds does not pile results up.
 *
 * Incrementality: addStreams() appends trace data and keeps the
 * existing shards' wait graphs, per-instance summaries and the path
 * tries — only the new shard's wait graphs are built, and the
 * whole-corpus results (impact, slots) are dropped and rebuilt on
 * demand. The results are bit-identical to a cold analysis of the
 * merged corpus (asserted by tests/incremental_test.cpp).
 *
 * Every stage merges per-shard results deterministically, so analysis
 * output is bit-identical for every thread count (see
 * docs/ARCHITECTURE.md for the threading model and the stage graph).
 */

#ifndef TRACELENS_CORE_ANALYZER_H
#define TRACELENS_CORE_ANALYZER_H

#include <atomic>
#include <cstdint>
#include <deque>
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
#include "src/util/telemetry.h"
#include "src/waitgraph/waitgraph.h"

namespace tracelens
{

/** The stages of the analysis pipeline, as traced and counted. */
enum class Stage : std::uint8_t
{
    WaitGraphs = 0, //!< Per-shard wait graphs.
    Classes = 1,    //!< Per-scenario fast/slow contrast classes.
    Impact = 2,     //!< Corpus / per-scenario / slow-class impact.
    Awg = 3,        //!< Fast and slow class AWG columns.
    Mining = 4,     //!< Per-scenario contrast-mining results.
};

/** Number of pipeline stages (array sizing). */
inline constexpr std::size_t kStageCount = 5;

/** Human-readable stage name ("wait-graphs", ...). */
std::string_view stageName(Stage stage);

/** Counters of one pipeline stage. */
struct StageStats
{
    std::uint64_t hits = 0;   //!< Served from what the Analyzer holds.
    std::uint64_t misses = 0; //!< Built from the inputs.
    double buildMs = 0.0;     //!< Wall time spent producing values.
    /** Per-instance summaries computed for the stage's class folds
     *  (impact contributions, AWG fragments); not rendered. */
    std::uint64_t summaries = 0;
};

/**
 * Per-stage counters of one Analyzer: a snapshot view over its
 * MetricsRegistry ("pipeline.<stage>.<name>" counters), rendered by
 * the CLI's --pipeline-stats.
 */
struct PipelineStats
{
    StageStats stages[kStageCount];

    const StageStats &of(Stage stage) const
    {
        return stages[static_cast<std::size_t>(stage)];
    }

    /** Multi-line human-readable rendering (CLI --pipeline-stats). */
    std::string render() const;
};

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
     * Worker threads for the parallel stages (wait-graph
     * construction, impact contributions, AWG fragments, and the
     * analyzeScenarios fan-out; mining runs serially): 0 = all
     * hardware threads (default), 1 = fully serial. Every stage
     * merges per-shard results deterministically, so analysis output
     * is bit-identical for every thread count.
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

    /** The ranked patterns, shared with the Analyzer that mined them. */
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
     * shard. @p source must outlive the analyzer.
     */
    explicit Analyzer(TraceSource &source, AnalyzerConfig config = {});

    /** Folds this analyzer's stage counters into
     *  MetricsRegistry::global(), so --metrics-out reports
     *  process-wide pipeline totals. */
    ~Analyzer();

    /**
     * Append @p part's streams and instances to the analysis corpus
     * as one additional shard. The existing shards' wait graphs and
     * per-instance summaries stay as they are; only the new shard's
     * wait graphs are built, and the whole-corpus results (impact,
     * classes, AWGs, mining) are dropped and rebuilt when next asked.
     * Results are bit-identical to analyzing the merged corpus cold.
     *
     * Not thread-safe against concurrent analysis calls; references
     * previously returned by corpus() and graphs() are invalidated.
     */
    void addStreams(const TraceCorpus &part);

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
     * Run the full causality analysis for one scenario. Its class
     * stages fold the members' per-instance summaries, computing those
     * no earlier query needed; its results replace those of the
     * scenario's previous thresholds in the scenario's slot.
     */
    ScenarioAnalysis analyzeScenario(std::string_view name,
                                     DurationNs t_fast,
                                     DurationNs t_slow) const;

    /**
     * The fast- and slow-class AWGs of @p name at these thresholds,
     * for callers that draw or compare AWG layouts: the members'
     * fragments folded in instance order, then finalized, so the
     * layout is Algorithm 1's. analyzeScenario() does not build them.
     * Neither kept nor counted as a stage.
     */
    ClassAwgs scenarioAwgs(std::string_view name, DurationNs t_fast,
                           DurationNs t_slow) const;

    /**
     * Analyze several scenarios, fanning the independent analyses out
     * over the configured thread count (each analysis then runs its
     * own stages serially to avoid oversubscription). Results are
     * returned in input order and are identical to calling
     * analyzeScenario once per entry. Fatal if any named scenario is
     * not in the corpus — filter with TraceCorpus::findScenario first.
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
     * The per-instance wait graphs, in instance order. Built per
     * shard on first use; after addStreams only the new shards' graphs
     * are built and appended. Thread-safe, so concurrent analyses
     * share one build.
     */
    const std::vector<WaitGraph> &graphs() const;

    /** The merged analysis corpus over all ingested shards. */
    const TraceCorpus &corpus() const { return *corpus_; }
    /** The ingestion source feeding this analyzer. */
    TraceSource &source() const { return *source_; }
    const AnalyzerConfig &config() const { return config_; }
    const NameFilter &components() const { return components_; }

    /** Number of shards ingested so far (source shards + addStreams). */
    std::size_t shardCount() const { return shards_.size(); }

    /** Snapshot of the per-stage counters. */
    PipelineStats pipelineStats() const;

  private:
    /** One ingested shard's instance range in the merged corpus. */
    struct ShardRecord
    {
        std::uint32_t firstInstance = 0;
        std::uint32_t instanceCount = 0;
    };

    /**
     * Ingest @p part as the next shard. @p alias, when non-null, is a
     * handle to @p part that may be adopted directly as the analysis
     * corpus (single-shard fast path — no copy); a second shard
     * forces the copy-on-append switch to an owned merged corpus.
     */
    void absorb(const TraceCorpus &part, CorpusPtr alias);

    /** Switch from an aliased single shard to an owned copy. */
    void ensureOwned();

    /** analyzeScenario with an explicit stage-level thread count. */
    ScenarioAnalysis analyzeScenarioWithThreads(std::string_view name,
                                                DurationNs t_fast,
                                                DurationNs t_slow,
                                                unsigned threads) const;

    /** A value computed at most once, the first time it is needed. */
    template <typename T>
    struct Lazy
    {
        std::once_flag once;
        /** Set after @c value is written; lets summarize() skip a
         *  computed value without entering the once. */
        std::atomic<bool> ready{false};
        T value;
    };

    /** One instance's threshold-independent summaries. */
    struct InstanceSummaries
    {
        Lazy<AwgFragment> fragment;
        Lazy<ImpactContribution> contribution;
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

    /** The corpus-wide impact results, computed once per corpus. */
    struct CorpusImpact
    {
        Lazy<ImpactResult> all;
        Lazy<std::unordered_map<std::uint32_t, ImpactResult>> perScenario;
        Lazy<std::vector<ComponentImpact>> components;
    };

    /**
     * One scenario's results at the thresholds it was last asked at.
     * Each stage builds once even when concurrent queries at these
     * thresholds need it (the others wait in its once).
     */
    struct QuerySlot
    {
        DurationNs tFast = 0;
        DurationNs tSlow = 0;
        /** The scenario's trie, which outlives every slot. */
        ScenarioTrie *trie = nullptr;
        Lazy<ContrastClasses> classes;
        Lazy<ImpactResult> slowImpact;
        Lazy<AwgColumn> fast;
        Lazy<AwgColumn> slow;
        Lazy<std::shared_ptr<const MiningResult>> mining;
    };

    /**
     * The slot of @p scenario at (t_fast, t_slow): the held one when
     * it is at those thresholds, else a new one that replaces it. A
     * query still running on a replaced slot keeps it alive. Creates
     * the scenario's trie on first use.
     */
    std::shared_ptr<QuerySlot> querySlot(std::uint32_t scenario,
                                         DurationNs t_fast,
                                         DurationNs t_slow) const;

    /**
     * Trace and count one use of @p stage under a "stage.<name>"
     * span: a hit when @p held, or else a miss that runs @p build and
     * counts its wall time.
     */
    template <typename Build>
    void runStage(Stage stage, bool held, Build &&build) const;

    /** @p lazy's value, built by @p build on first use (a miss of
     *  @p stage); every later use is a hit. */
    template <typename T, typename Build>
    const T &memo(Stage stage, Lazy<T> &lazy, Build &&build) const;

    /**
     * Compute @p slot for every instance of @p members that lacks it,
     * across @p threads workers, via @p compute(instance). A slot is
     * computed once even when concurrent queries need it (the others
     * wait in its once). Returns how many this call computed.
     */
    template <typename T, typename Compute>
    std::uint64_t summarize(std::span<const std::uint32_t> members,
                            Lazy<T> InstanceSummaries::*slot,
                            unsigned threads, Compute &&compute) const;

    /** Compute the impact contributions @p members lack; returns how
     *  many it computed. */
    std::uint64_t contributions(std::span<const std::uint32_t> members,
                                unsigned threads) const;

    /** Every instance's contribution, folded in instance order. */
    PartialImpact corpusImpactPartial() const;

    /** Every instance's contribution, folded in instance order into
     *  one accumulator per scenario id, ascending. */
    std::vector<std::pair<std::uint32_t, PartialImpact>>
    scenarioImpactPartials() const;

    /** Slow-class impact: @p members' contributions folded in order. */
    PartialImpact classImpact(const std::vector<std::uint32_t> &members,
                              unsigned threads) const;

    /** Compute the AWG fragments @p members lack; returns how many it
     *  computed. */
    std::uint64_t fragments(std::span<const std::uint32_t> members,
                            unsigned threads) const;

    /** A class's unreduced AWG: @p members' fragments folded in order. */
    PartialAwg classAwg(const std::vector<std::uint32_t> &members,
                        unsigned threads) const;

    /** Map every member of @p members the trie has no nodes for. */
    void growTrie(ScenarioTrie &scenario,
                  const std::vector<std::uint32_t> &members) const;

    /** A class's column over its scenario's trie, finalized. */
    AwgColumn classColumn(ScenarioTrie &scenario,
                          const std::vector<std::uint32_t> &members,
                          unsigned threads) const;

    TraceSource *source_;
    AnalyzerConfig config_;
    NameFilter components_;

    /** Non-null while the corpus aliases a single source shard. */
    CorpusPtr aliasShard_;
    /** The merged corpus once >1 shard (or addStreams) forced a copy. */
    TraceCorpus ownedCorpus_;
    const TraceCorpus *corpus_ = &ownedCorpus_;

    std::vector<ShardRecord> shards_;

    mutable std::mutex graphsMutex_;
    mutable std::vector<WaitGraph> graphs_;
    /** Shards whose graphs graphs_ holds (the rest are built next). */
    mutable std::size_t graphsShards_ = 0;

    /**
     * One entry per instance, grown only by absorb(); a deque, so the
     * slots never move while queries fill them.
     */
    mutable std::deque<InstanceSummaries> summaries_;

    /** Replaced by absorb(), so a grown corpus computes it afresh. */
    std::unique_ptr<CorpusImpact> corpusImpact_;

    /** Per scenario id; absorb() clears slots_ and keeps tries_. */
    mutable std::mutex slotsMutex_;
    mutable std::unordered_map<std::uint32_t, std::shared_ptr<QuerySlot>>
        slots_;
    mutable std::unordered_map<std::uint32_t, std::unique_ptr<ScenarioTrie>>
        tries_;

    /** Counter handles into metrics_, one set per stage. */
    struct StageCounters
    {
        Counter *hits = nullptr;
        Counter *misses = nullptr;
        Counter *buildNs = nullptr;
        Counter *summaries = nullptr;
    };
    MetricsRegistry metrics_;
    StageCounters counters_[kStageCount];
};

} // namespace tracelens

#endif // TRACELENS_CORE_ANALYZER_H
