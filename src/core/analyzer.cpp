/**
 * @file
 * Analyzer: per-shard ingestion, the kept per-instance summaries and
 * per-scenario path tries, the folds every answer is made of (wait
 * graphs -> per-instance summaries -> classes/impact -> class columns
 * over the scenario's path trie -> mining), and the multi-scenario
 * fan-out.
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
    summaries_ = std::vector<InstanceSummaries>(corpus_->instances().size());
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

const std::vector<WaitGraph> &
Analyzer::graphs() const
{
    std::call_once(graphsOnce_, [this] {
        Span span("analyzer.graphs", "analysis");
        if (span.active()) {
            span.arg("shards", static_cast<std::uint64_t>(shards_));
            span.arg("instances", static_cast<std::uint64_t>(
                                      corpus_->instances().size()));
        }
        graphs_ = WaitGraphBuilder(*corpus_, config_.waitGraph)
                      .buildAllParallel(resolveThreads(config_.threads));
        counters().graphBuilds.add(shards_);
    });
    return graphs_;
}

ImpactResult
Analyzer::impactAll() const
{
    graphs(); // built outside the fold spans
    return corpusImpactPartial().finalize();
}

std::unordered_map<std::uint32_t, ImpactResult>
Analyzer::impactPerScenario() const
{
    graphs(); // built outside the fold spans
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
    graphs(); // built outside the fold spans
    Span span("impact.analyze", "analysis");
    std::vector<std::uint32_t> all(corpus_->instances().size());
    std::iota(all.begin(), all.end(), 0u);
    const std::uint64_t computed = contributions(all, config_.threads);
    ComponentSplit split;
    for (std::uint32_t i : all)
        split.absorb(summaries_[i].contribution.value);
    if (span.active()) {
        span.arg("graphs", static_cast<std::uint64_t>(all.size()));
        span.arg("computed", computed);
    }
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

template <typename T, typename Compute>
std::uint64_t
Analyzer::summarize(std::span<const std::uint32_t> members,
                    Lazy<T> InstanceSummaries::*slot, unsigned threads,
                    Compute &&compute) const
{
    std::vector<std::uint32_t> missing;
    for (std::uint32_t i : members)
        if (!(summaries_[i].*slot).ready.load(std::memory_order_acquire))
            missing.push_back(i);
    std::atomic<std::uint64_t> computed{0};
    parallelFor(threads, 0, missing.size(), [&](std::size_t k) {
        Lazy<T> &lazy = summaries_[missing[k]].*slot;
        std::call_once(lazy.once, [&] {
            lazy.value = compute(missing[k]);
            lazy.ready.store(true, std::memory_order_release);
            computed.fetch_add(1, std::memory_order_relaxed);
        });
    });
    return computed.load(std::memory_order_relaxed);
}

std::uint64_t
Analyzer::contributions(std::span<const std::uint32_t> members,
                        unsigned threads) const
{
    const std::vector<WaitGraph> &all = graphs();
    const ImpactAnalysis impact(*corpus_, components_);
    const std::uint64_t computed = summarize(
        members, &InstanceSummaries::contribution, threads,
        [&](std::uint32_t i) { return impact.collect(all[i]); });
    counters().contributions.add(computed);
    return computed;
}

PartialImpact
Analyzer::classImpact(const std::vector<std::uint32_t> &members,
                      unsigned threads) const
{
    Span span("impact.analyze", "analysis");
    const std::uint64_t computed = contributions(members, threads);

    // The D_waitdist dedup is order-sensitive: fold in instance order.
    PartialImpact partial;
    for (std::uint32_t i : members)
        partial.absorbInstance(summaries_[i].contribution.value);
    if (span.active()) {
        span.arg("graphs", static_cast<std::uint64_t>(members.size()));
        span.arg("computed", computed);
    }
    return partial;
}

PartialImpact
Analyzer::corpusImpactPartial() const
{
    std::vector<std::uint32_t> all(corpus_->instances().size());
    std::iota(all.begin(), all.end(), 0u);
    return classImpact(all, config_.threads);
}

std::vector<std::pair<std::uint32_t, PartialImpact>>
Analyzer::scenarioImpactPartials() const
{
    Span span("impact.analyze", "analysis");
    const auto scenarios = corpus_->instanceScenarios();
    std::vector<std::uint32_t> all(scenarios.size());
    std::iota(all.begin(), all.end(), 0u);
    const std::uint64_t computed = contributions(all, config_.threads);

    std::map<std::uint32_t, PartialImpact> partials;
    for (std::uint32_t i = 0; i < scenarios.size(); ++i)
        partials[scenarios[i]].absorbInstance(
            summaries_[i].contribution.value);
    if (span.active()) {
        span.arg("graphs", static_cast<std::uint64_t>(all.size()));
        span.arg("computed", computed);
    }
    return {std::make_move_iterator(partials.begin()),
            std::make_move_iterator(partials.end())};
}

std::uint64_t
Analyzer::fragments(std::span<const std::uint32_t> members,
                    unsigned threads) const
{
    const std::vector<WaitGraph> &all = graphs();
    const AwgBuilder builder(*corpus_, components_, config_.awg);
    const std::uint64_t computed = summarize(
        members, &InstanceSummaries::fragment, threads,
        [&](std::uint32_t i) { return builder.summarize(all[i]); });
    counters().fragments.add(computed);
    return computed;
}

PartialAwg
Analyzer::classAwg(const std::vector<std::uint32_t> &members,
                   unsigned threads) const
{
    Span span("awg.aggregate", "analysis");
    const std::uint64_t computed = fragments(members, threads);

    // The trie's node layout follows absorb order: fold in instance
    // order.
    PartialAwg partial;
    for (std::uint32_t i : members)
        partial.absorb(summaries_[i].fragment.value);
    if (span.active()) {
        span.arg("graphs", static_cast<std::uint64_t>(members.size()));
        span.arg("computed", computed);
    }
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
        const AwgFragment &fragment = summaries.fragment.value;
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
                      const std::vector<std::uint32_t> &members,
                      unsigned threads) const
{
    Span span("awg.aggregate", "analysis");
    const std::uint64_t computed = fragments(members, threads);
    growTrie(scenario, members);

    // Integer sums by node id: the fold order does not matter.
    const std::shared_lock lock(scenario.mutex);
    AwgColumn column(scenario.trie.size());
    for (std::uint32_t i : members)
        column.absorb(summaries_[i].fragment.value,
                      summaries_[i].trieNodes);
    column.finalize(scenario.trie, config_.awg.reduceNonOptimizable);
    if (span.active()) {
        span.arg("graphs", static_cast<std::uint64_t>(members.size()));
        span.arg("computed", computed);
    }
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

    graphs(); // built outside the fold spans
    partial.slowImpact = classImpact(classes.slow, config_.threads);
    partial.awgFast = classAwg(classes.fast, config_.threads);
    partial.awgSlow = classAwg(classes.slow, config_.threads);
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

ScenarioAnalysis
Analyzer::analyzeScenario(std::string_view name, DurationNs t_fast,
                          DurationNs t_slow) const
{
    return analyzeScenarioWithThreads(name, t_fast, t_slow,
                                      config_.threads);
}

std::vector<ScenarioAnalysis>
Analyzer::analyzeScenarios(
    std::span<const ScenarioThresholds> scenarios) const
{
    graphs(); // build once, up front, across all configured threads
    // Scenario analyses are independent; fan them out and keep each
    // one's inner folds serial so the machine is not oversubscribed.
    return parallelMap<ScenarioAnalysis>(
        config_.threads, scenarios.size(), [&](std::size_t i) {
            return analyzeScenarioWithThreads(
                scenarios[i].name, scenarios[i].tFast,
                scenarios[i].tSlow, 1);
        });
}

ScenarioAnalysis
Analyzer::analyzeScenarioWithThreads(std::string_view name,
                                     DurationNs t_fast,
                                     DurationNs t_slow,
                                     unsigned threads) const
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
    graphs(); // built outside the fold spans

    analysis.slowImpact =
        classImpact(analysis.classes.slow, threads).finalize();
    for (std::uint32_t i : analysis.classes.slow)
        analysis.slowDuration += corpus_->instances()[i].duration();

    ScenarioTrie &trie = scenarioTrie(scenario);
    const AwgColumn fast = classColumn(trie, analysis.classes.fast, threads);
    const AwgColumn slow = classColumn(trie, analysis.classes.slow, threads);
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
    graphs(); // built outside the fold spans
    const bool reduce = config_.awg.reduceNonOptimizable;
    ClassAwgs awgs;
    awgs.fast = classAwg(classes.fast, config_.threads).finalize(reduce);
    awgs.slow = classAwg(classes.slow, config_.threads).finalize(reduce);
    return awgs;
}

} // namespace tracelens
