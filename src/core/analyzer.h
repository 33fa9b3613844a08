/**
 * @file
 * The TraceLens pipeline facade: the full two-step analysis of the
 * paper over a trace corpus, restructured as an explicit stage graph
 * over an artifact store.
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
 * the first time a query needs that instance and keeps them: a
 * per-class stage (slow-class impact, fast and slow AWGs) folds its
 * class members' kept values in instance order. Every result derived
 * from a class is an *artifact* in an ArtifactStore
 * (src/core/artifacts.h), keyed by a content hash of its inputs: the
 * digest chain of the ingested shards plus a fingerprint of the
 * relevant configuration. Per scenario, the store keeps only the
 * per-query artifacts (classes, slow impact, AWGs, mining) of the
 * coordinates the scenario was last asked at — chain tip, T_fast,
 * T_slow — so a daemon exploring thresholds does not pile them up.
 * Two consequences of content keys:
 *
 *  - Incrementality: addStreams() appends trace data and invalidates
 *    nothing that was derived from the existing shards — only the new
 *    shard's wait graphs (and whole-corpus aggregates) are built. The
 *    results are bit-identical to a cold analysis of the merged
 *    corpus (asserted by tests/incremental_test.cpp).
 *  - Warm starts: with AnalyzerConfig::artifactCacheDir set, AWGs
 *    persist to disk and a later process reuses them. Wait graphs do
 *    not: rebuilding them is faster than reloading them.
 *
 * Keys exclude the thread count: every stage merges per-shard results
 * deterministically, so analysis output is bit-identical for every
 * thread count (see docs/ARCHITECTURE.md for the threading model and
 * the stage-graph key derivation).
 */

#ifndef TRACELENS_CORE_ANALYZER_H
#define TRACELENS_CORE_ANALYZER_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/awg/awg.h"
#include "src/core/artifacts.h"
#include "src/core/partial.h"
#include "src/impact/impact.h"
#include "src/mining/coverage.h"
#include "src/mining/miner.h"
#include "src/trace/source.h"
#include "src/trace/stream.h"
#include "src/util/hash.h"
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
     * Worker threads for every pipeline stage (wait-graph
     * construction, impact accumulation, AWG aggregation, mining, and
     * the analyzeScenarios fan-out): 0 = all hardware threads
     * (default), 1 = fully serial. Every stage merges per-shard
     * results deterministically, so analysis output is bit-identical
     * for every thread count — which is also why artifact keys exclude
     * the thread count.
     */
    unsigned threads = 0;
    /**
     * Directory for the on-disk artifact cache (AWGs survive the
     * process; CLI: --artifact-cache DIR). Empty (default) = in-memory
     * memoization only.
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

    AggregatedWaitGraph awgFast;
    AggregatedWaitGraph awgSlow;
    MiningResult mining;
    CoverageResult coverage;

    /** Driver time share of the slow class: (D_wait+D_run)/D_scn. */
    double driverCostShare() const;
    /**
     * Share of slow-class AWG time removed as non-optimizable direct
     * hardware service (ReduceAWG).
     */
    double nonOptimizableShare() const;
};

/** The pipeline facade. */
class Analyzer
{
  public:
    /**
     * Analyze the corpus served by @p source: the source decides how
     * trace bytes reach memory (eager load, mmap, sharded directory)
     * and isolates corrupt shards; the analyzer ingests the usable
     * shards one at a time, recording each shard's content digest for
     * artifact keying, so construction may materialize. @p source
     * must outlive the analyzer.
     */
    explicit Analyzer(TraceSource &source, AnalyzerConfig config = {});

    /**
     * Append @p part's streams and instances to the analysis corpus
     * as one additional shard. The existing shards' wait graphs stay
     * as they are, and artifacts derived from them keep their keys and
     * are served from the store; only the new shard's wait graphs and
     * the whole-corpus aggregates (impact, classes, AWGs, mining)
     * rebuild. Results are
     * bit-identical to analyzing the merged corpus cold.
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
     * Classify one scenario's instances against thresholds. Like
     * every per-query stage, this makes (t_fast, t_slow) the
     * scenario's current coordinates: the store drops the scenario's
     * per-query artifacts of other thresholds.
     */
    ContrastClasses classify(std::uint32_t scenario, DurationNs t_fast,
                             DurationNs t_slow) const;

    /**
     * Run the full causality analysis for one scenario. Its class
     * stages fold the members' per-instance summaries, computing those
     * no earlier query needed; its per-query artifacts replace those
     * of the scenario's previous thresholds in the store.
     */
    ScenarioAnalysis analyzeScenario(std::string_view name,
                                     DurationNs t_fast,
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

    /**
     * Content digest of the whole ingested corpus (the shard-chain
     * tip every whole-corpus artifact key hashes). Two analyzers over
     * identical shard sequences report equal digests, which is what
     * the analysis service keys its response cache on.
     */
    const Digest &corpusDigest() const { return chainTip(); }

    /** Snapshot of the per-stage artifact-cache counters. */
    PipelineStats pipelineStats() const { return store_.stats(); }

  private:
    /**
     * One ingested shard: its content digest, the running chain
     * digest over all shards up to and including it (artifact keys
     * hash the chain, so a change anywhere in the prefix invalidates
     * every later shard's artifacts), and its instance range in the
     * merged corpus.
     */
    struct ShardRecord
    {
        Digest digest;
        Digest chain;
        std::uint32_t firstInstance = 0;
        std::uint32_t instanceCount = 0;
    };

    /** Derive the per-stage config fingerprints (constructor). */
    void computeFingerprints();

    /**
     * Ingest @p part as the next shard. @p alias, when non-null, is a
     * handle to @p part that may be adopted directly as the analysis
     * corpus (single-shard fast path — no copy); a second shard
     * forces the copy-on-append switch to an owned merged corpus.
     */
    void absorb(const TraceCorpus &part, CorpusPtr alias);

    /** Switch from an aliased single shard to an owned copy. */
    void ensureOwned();

    /** Chain digest over all ingested shards (seed when none). */
    const Digest &chainTip() const;

    /** fingerprint + stage salt + input digest -> artifact key. */
    static Digest stageKey(const Digest &fingerprint,
                           std::string_view salt, const Digest &input);

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
        /** Set after @c value is written; lets a query skip a slot
         *  without entering the once. */
        std::atomic<bool> ready{false};
        T value;
    };

    /** One instance's threshold-independent summaries. */
    struct InstanceSummaries
    {
        Lazy<AwgFragment> fragment;
        Lazy<ImpactContribution> contribution;
    };

    /**
     * Compute @p slot for every instance of @p members that lacks it,
     * across @p threads workers, via @p compute(instance). A slot is
     * computed once even when concurrent queries need it (the others
     * wait in its once). Returns how many this call computed.
     */
    template <typename T, typename Compute>
    std::uint64_t summarize(const std::vector<std::uint32_t> &members,
                            Lazy<T> InstanceSummaries::*slot,
                            unsigned threads, Compute &&compute) const;

    /** Slow-class impact: @p members' contributions folded in order. */
    PartialImpact classImpact(const std::vector<std::uint32_t> &members,
                              unsigned threads) const;

    /** A class's unreduced AWG: @p members' fragments folded in order. */
    PartialAwg classAwg(const std::vector<std::uint32_t> &members,
                        unsigned threads) const;

    /** Chain tip + scenario + thresholds: a query's coordinates. */
    Digest queryCoords(std::uint32_t scenario, DurationNs t_fast,
                       DurationNs t_slow) const;

    /**
     * Record @p key, just fetched from the store, as a per-query
     * artifact of @p scenario at @p coords. When @p coords differ from
     * those of the keys recorded so far (a new query, or one still in
     * flight that another query overtook), erase those keys from the
     * store first: per scenario, the store holds the per-query
     * artifacts of one set of coordinates.
     */
    void keepQueryKey(std::uint32_t scenario, const Digest &coords,
                      const Digest &key) const;

    TraceSource *source_;
    AnalyzerConfig config_;
    NameFilter components_;

    /** Non-null while the corpus aliases a single source shard. */
    CorpusPtr aliasShard_;
    /** The merged corpus once >1 shard (or addStreams) forced a copy. */
    TraceCorpus ownedCorpus_;
    const TraceCorpus *corpus_ = &ownedCorpus_;

    std::vector<ShardRecord> shards_;
    static constexpr std::uint64_t kSchemaVersion = 1;
    Digest fpWaitGraph_; //!< components + wait-graph options.
    Digest fpClasses_;   //!< thresholds-only stage (no components).
    Digest fpAwg_;       //!< fpWaitGraph_ + AWG options.
    Digest fpMining_;    //!< fpAwg_ + mining options.

    mutable ArtifactStore store_;
    mutable std::mutex graphsMutex_;
    mutable std::vector<WaitGraph> graphs_;
    /** Shards whose graphs graphs_ holds (the rest are built next). */
    mutable std::size_t graphsShards_ = 0;

    /**
     * One entry per instance, grown only by absorb(); a deque, so the
     * slots never move while queries fill them.
     */
    mutable std::deque<InstanceSummaries> summaries_;

    /** The per-query artifact keys of one scenario. */
    struct QueryKeys
    {
        Digest coords; //!< Coordinates the scenario was last asked at.
        std::vector<Digest> keys; //!< Stored under those coordinates.
    };
    mutable std::mutex queryKeysMutex_;
    mutable std::unordered_map<std::uint32_t, QueryKeys> queryKeys_;
};

} // namespace tracelens

#endif // TRACELENS_CORE_ANALYZER_H
