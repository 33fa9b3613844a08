/**
 * @file
 * Analyzer: per-shard ingestion, the construction pass that turns
 * each wait graph into per-instance summaries, the per-scenario path
 * tries, the folds every answer is made of (per-instance summaries ->
 * classes/impact -> class columns over the scenario's path trie ->
 * mining), and the multi-scenario fan-out.
 */

#include "src/core/analyzer.h"

#include <iterator>
#include <map>
#include <numeric>
#include <utility>

#include "src/trace/merge.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/telemetry.h"

namespace tracelens
{

namespace
{

/** What every Analyzer computes, counted process-wide. */
struct AnalyzerCounters
{
    /** Shards whose wait graphs were built. */
    Counter &graphBuilds =
        MetricsRegistry::global().counter("analyzer.graph_builds");
    /** Per-instance impact contributions computed. */
    Counter &contributions =
        MetricsRegistry::global().counter("analyzer.contributions");
    /** Per-instance AWG fragments computed. */
    Counter &fragments =
        MetricsRegistry::global().counter("analyzer.fragments");
};

/** The counters, resolved once. */
AnalyzerCounters &
counters()
{
    static AnalyzerCounters counters;
    return counters;
}

} // namespace

double
ScenarioAnalysis::driverCostShare()
 const
{
    if (slowDuration == 0)
        return 0.0;
    return static_cast<double>(slowImpact.dWait + slowImpact.dRun) /
           static_cast<double>(slowDuration);
}

double
ScenarioAnalysis::nonOptimizableShare() const
{
    const DurationNs total = slowReducedCost + slowRootCost;
    if (total == 0)
        return 0.0;
    return static_cast<double>(slowReducedCost) /
           static_cast<double>(total);
}

Analyzer::Analyzer(TraceSource &source, AnalyzerConfig config)
    : source_(&source), config_(std::move(config)),
      components_(config_.components)
{
    const std::size_t count = source.shardCount();
    for (std::size_t i = 0; i < count; ++i) {
        Expected<CorpusPtr> shard = source.shard(i);
        if (!shard)
            continue; // isolated and recorded in source.stats()
        absorb(std::move(shard.value()));
    }
    summarizeInstances();
}

void
Analyzer::absorb(CorpusPtr shard)
{
    Span span("analyzer.ingest-shard", "analysis");
    if (span.active()) {
        span.arg("shard", static_cast<std::uint64_t>(shards_));
        span.arg("instances",
                 static_cast<std::uint64_t>(shard->instances().size()));
    }

    if (shards_ == 0) {
        // Single-shard fast path: adopt the shard as the analysis
        // corpus without a merge copy (copy-on-append later).
        aliasShard_ = std::move(shard);
        corpus_ = aliasShard_.get();
    } else {
        ensureOwned();
        appendCorpus(ownedCorpus_, *shard);
    }
    ++shards_;

    // (Re-)prime the symbol table's per-filter match cache: the
    // parallel stages consult it concurrently, which is safe only
    // once the entry covers every interned frame.
    corpus_->symbols().primeFilter(components_);
}

void
Analyzer::ensureOwned()
{
    if (aliasShard_ == nullptr)
        return;
    // appendCorpus re-interns in id order, so the copy is structurally
    // identical to the alias (same ids, same instance order).
    ownedCorpus_ = TraceCorpus{};
    appendCorpus(ownedCorpus_, *aliasShard_);
    aliasShard_.reset();
    corpus_ = &ownedCorpus_;
}

void
Analyzer::summarizeInstances()
{
    const std::vector<ScenarioInstance> &instances = corpus_->instances();
    Span span("analyzer.graphs", "analysis");
    if (span.active()) {
        span.arg("shards", static_cast<std::uint64_t>(shards_));
        span.arg("instances", static_cast<std::uint64_t>(instances.size()));
    }

    std::vector<std::vector<std::uint32_t>> byStream(corpus_->streamCount());
    for (std::uint32_t i = 0; i < instances.size(); ++i)
        byStream[instances[i].stream].push_back(i);

    // A summary depends only on its own graph, so the pass may run in
    // any order. One builder per stream keeps that stream's index only
    // while its instances are built, and each graph only until it is
    // summarized.
    summaries_ = std::vector<InstanceSummaries>(instances.size());
    const ImpactAnalysis impact(*corpus_, components_);
    const AwgBuilder awg(*corpus_, components_, config_.awg);
    parallelFor(config_.threads, 0, byStream.size(),
                [&](std::size_t stream) {
                    const WaitGraphBuilder builder(*corpus_,
                                                   config_.waitGraph);
                    for (std::uint32_t i : byStream[stream]) {
                        const WaitGraph graph = builder.build(instances[i]);
                        summaries_[i].fragment = awg.summarize(graph);
                        summaries_[i].contribution = impact.collect(graph);
                    }
                });
    counters().graphBuilds.add(shards_);
    counters().contributions.add(instances.size());
    counters().fragments.add(instances.size());
}

std::vector<WaitGraph>
Analyzer::graphs() const
{
    return WaitGraphBuilder(*corpus_, config_.waitGraph)
        .buildAllParallel(resolveThreads(config_.threads));
}

ImpactResult
Analyzer::impactAll() const
{
    return corpusImpactPartial().finalize();
}

std::unordered_map<std::uint32_t, ImpactResult>
Analyzer::impactPerScenario() const
{
    // Inserted in ascending id order, as ImpactAnalysis does, so the
    // map iterates alike.
    std::unordered_map<std::uint32_t, ImpactResult> results;
    for (const auto &[scenario, partial] : scenarioImpactPartials())
        results.emplace(scenario, partial.finalize());
    return results;
}

std::vector<ComponentImpact>
Analyzer::impactByComponent() const
{
    Span span("impact.analyze", "analysis");
    ComponentSplit split;
    for (const InstanceSummaries &summaries : summaries_)
        split.absorb(summaries.contribution);
    if (span.active())
        span.arg("graphs", static_cast<std::uint64_t>(summaries_.size()));
    return split.finalize(corpus_->symbols());
}

Analyzer::ScenarioTrie &
Analyzer::scenarioTrie(std::uint32_t scenario) const
{
    const std::lock_guard<std::mutex> lock(triesMutex_);
    std::unique_ptr<ScenarioTrie> &trie = tries_[scenario];
    if (trie == nullptr)
        trie = std::make_unique<ScenarioTrie>(config_.maxSegmentLength);
    return *trie;
}

ContrastClasses
Analyzer::classify(std::uint32_t scenario, DurationNs t_fast,
                   DurationNs t_slow) const
{
    TL_ASSERT(t_fast > 0 && t_slow > t_fast, "bad thresholds");
    ContrastClasses result;
    // T_fast/T_slow classification as a sweep over the instance
    // columns — two small arrays instead of the full records.
    const auto scenarios = corpus_->instanceScenarios();
    const auto durations = corpus_->instanceDurations();
    for (std::uint32_t i = 0; i < scenarios.size(); ++i) {
        if (scenarios[i] != scenario)
            continue;
        const DurationNs duration = durations[i];
        if (duration < t_fast)
            result.fast.push_back(i);
        else if (duration > t_slow)
            result.slow.push_back(i);
        else
            result.middle.push_back(i);
    }
    return result;
}

PartialImpact
Analyzer::classImpact(const std::vector<std::uint32_t> &members) const
{
    Span span("impact.analyze", "analysis");
    // The D_waitdist dedup is order-sensitive: fold in instance order.
    PartialImpact partial;
    for (std::uint32_t i : members)
        partial.absorbInstance(summaries_[i].contribution);
    if (span.active())
        span.arg("graphs", static_cast<std::uint64_t>(members.size()));
    return partial;
}

PartialImpact
Analyzer::corpusImpactPartial() const
{
    std::vector<std::uint32_t> all(corpus_->instances().size());
    std::iota(all.begin(), all.end(), 0u);
    return classImpact(all);
}

std::vector<std::pair<std::uint32_t, PartialImpact>>
Analyzer::scenarioImpactPartials() const
{
    Span span("impact.analyze", "analysis");
    const auto scenarios = corpus_->instanceScenarios();
    std::map<std::uint32_t, PartialImpact> partials;
    for (std::uint32_t i = 0; i < scenarios.size(); ++i)
        partials[scenarios[i]].absorbInstance(summaries_[i].contribution);
    if (span.active())
        span.arg("graphs", static_cast<std::uint64_t>(scenarios.size()));
    return {std::make_move_iterator(partials.begin()),
            std::make_move_iterator(partials.end())};
}

PartialAwg
Analyzer::classAwg(const std::vector<std::uint32_t> &members) const
{
    Span span("awg.aggregate", "analysis");
    // The trie's node layout follows absorb order: fold in instance
    // order.
    PartialAwg partial;
    for (std::uint32_t i : members)
        partial.absorb(summaries_[i].fragment);
    if (span.active())
        span.arg("graphs", static_cast<std::uint64_t>(members.size()));
    return partial;
}

void
Analyzer::growTrie(ScenarioTrie &scenario,
                   const std::vector<std::uint32_t> &members) const
{
    std::vector<std::uint32_t> missing;
    {
        const std::shared_lock lock(scenario.mutex);
        for (std::uint32_t i : members)
            if (!summaries_[i].mapped)
                missing.push_back(i);
    }
    if (missing.empty())
        return;

    Span span("awg.grow-trie", "analysis");
    const std::unique_lock lock(scenario.mutex);
    const std::uint32_t before = scenario.trie.size();
    std::uint64_t mapped = 0;
    for (std::uint32_t i : missing) {
        InstanceSummaries &summaries = summaries_[i];
        if (summaries.mapped)
            continue; // a concurrent query mapped it first
        const AwgFragment &fragment = summaries.fragment;
        summaries.trieNodes.reserve(fragment.nodes.size());
        scenario.trie.map(fragment, summaries.trieNodes);
        summaries.mapped = true;
        ++mapped;
    }
    if (span.active()) {
        span.arg("members", mapped);
        span.arg("nodes", static_cast<std::uint64_t>(scenario.trie.size() -
                                                     before));
    }
}

AwgColumn
Analyzer::classColumn(ScenarioTrie &scenario,
                      const std::vector<std::uint32_t> &members) const
{
    Span span("awg.aggregate", "analysis");
    growTrie(scenario, members);

    // Integer sums by node id: the fold order does not matter.
    const std::shared_lock lock(scenario.mutex);
    AwgColumn column(scenario.trie.size());
    for (std::uint32_t i : members)
        column.absorb(summaries_[i].fragment, summaries_[i].trieNodes);
    column.finalize(scenario.trie, config_.awg.reduceNonOptimizable);
    if (span.active())
        span.arg("graphs", static_cast<std::uint64_t>(members.size()));
    return column;
}

ScenarioPartial
Analyzer::scenarioPartial(std::string_view name, DurationNs t_fast,
                          DurationNs t_slow) const
{
    Span span("analyzer.scenario-partial", "analysis");
    if (span.active())
        span.arg("scenario", std::string(name));

    ScenarioPartial partial;
    partial.streamCount =
        static_cast<std::uint32_t>(corpus_->streamCount());
    const SymbolTable &symbols = corpus_->symbols();
    partial.frames.reserve(symbols.frameCount());
    for (FrameId f = 0; f < symbols.frameCount(); ++f)
        partial.frames.push_back(symbols.frameName(f));

    const std::uint32_t scenario = corpus_->findScenario(name);
    if (scenario == UINT32_MAX)
        return partial; // no instances here: empty, still mergeable

    const ContrastClasses classes = classify(scenario, t_fast, t_slow);
    partial.classes.fast = classes.fast.size();
    partial.classes.middle = classes.middle.size();
    partial.classes.slow = classes.slow.size();
    for (std::uint32_t i : classes.slow)
        partial.classes.slowDuration +=
            corpus_->instances()[i].duration();

    partial.slowImpact = classImpact(classes.slow);
    partial.awgFast = classAwg(classes.fast);
    partial.awgSlow = classAwg(classes.slow);
    return partial;
}

ImpactPartial
Analyzer::impactPartial() const
{
    Span span("analyzer.impact-partial", "analysis");

    ImpactPartial partial;
    partial.streamCount =
        static_cast<std::uint32_t>(corpus_->streamCount());
    partial.all = corpusImpactPartial();
    for (auto &[scenario, accumulator] : scenarioImpactPartials()) {
        partial.perScenario.emplace_back(
            corpus_->scenarioName(scenario), std::move(accumulator));
    }
    return partial;
}

std::vector<ScenarioAnalysis>
Analyzer::analyzeScenarios(
    std::span<const ScenarioThresholds> scenarios) const
{
    // Scenario analyses are independent; fan them out.
    return parallelMap<ScenarioAnalysis>(
        config_.threads, scenarios.size(), [&](std::size_t i) {
            return analyzeScenario(scenarios[i].name, scenarios[i].tFast,
                                   scenarios[i].tSlow);
        });
}

ScenarioAnalysis
Analyzer::analyzeScenario(std::string_view name, DurationNs t_fast,
                          DurationNs t_slow) const
{
    Span span("analyzer.scenario", "analysis");
    if (span.active())
        span.arg("scenario", std::string(name));

    const std::uint32_t scenario = corpus_->findScenario(name);
    if (scenario == UINT32_MAX)
        TL_FATAL("scenario '", std::string(name), "' not in corpus");

    ScenarioAnalysis analysis;
    analysis.name = std::string(name);
    analysis.tFast = t_fast;
    analysis.tSlow = t_slow;

    analysis.classes = classify(scenario, t_fast, t_slow);
    analysis.slowImpact = classImpact(analysis.classes.slow).finalize();
    for (std::uint32_t i : analysis.classes.slow)
        analysis.slowDuration += corpus_->instances()[i].duration();

    ScenarioTrie &trie = scenarioTrie(scenario);
    const AwgColumn fast = classColumn(trie, analysis.classes.fast);
    const AwgColumn slow = classColumn(trie, analysis.classes.slow);
    analysis.slowReducedCost = slow.reducedCost;
    analysis.slowRootCost = slow.rootCost;

    MiningOptions mining_options;
    mining_options.maxSegmentLength = config_.maxSegmentLength;
    mining_options.tFast = t_fast;
    mining_options.tSlow = t_slow;
    mining_options.useMetaPatternGate = config_.useMetaPatternGate;
    const ContrastMiner miner(*corpus_, mining_options);
    {
        const std::shared_lock lock(trie.mutex);
        analysis.mining = std::make_shared<const MiningResult>(
            miner.mine(trie.trie, fast, slow));
    }

    // RQ1 denominator: the total driver cost as aggregated — the kept
    // graph plus the non-optimizable portion removed by ReduceAWG
    // (Section 5.2.2 accounts exactly this way).
    analysis.coverage = computeCoverage(
        *analysis.mining, slow.reducedCost + slow.rootCost, t_slow);

    return analysis;
}

ClassAwgs
Analyzer::scenarioAwgs(std::string_view name, DurationNs t_fast,
                       DurationNs t_slow) const
{
    const std::uint32_t scenario = corpus_->findScenario(name);
    if (scenario == UINT32_MAX)
        TL_FATAL("scenario '", std::string(name), "' not in corpus");
    const ContrastClasses classes = classify(scenario, t_fast, t_slow);
    const bool reduce = config_.awg.reduceNonOptimizable;
    ClassAwgs awgs;
    awgs.fast = classAwg(classes.fast).finalize(reduce);
    awgs.slow = classAwg(classes.slow).finalize(reduce);
    return awgs;
}

} // namespace tracelens
