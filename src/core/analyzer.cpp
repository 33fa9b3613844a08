/**
 * @file
 * Analyzer: per-shard ingestion with content digesting, the stage
 * graph (wait graphs -> per-instance summaries -> classes/impact ->
 * AWGs -> mining), the per-scenario slots of last-asked results, the
 * per-stage counters, and the multi-scenario fan-out.
 */

#include "src/core/analyzer.h"

#include <chrono>
#include <iterator>
#include <sstream>
#include <utility>

#include "src/trace/merge.h"
#include "src/trace/serialize.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/telemetry.h"

namespace tracelens
{

std::string_view
stageName(Stage stage)
{
    switch (stage) {
    case Stage::WaitGraphs:
        return "wait-graphs";
    case Stage::Classes:
        return "classes";
    case Stage::Impact:
        return "impact";
    case Stage::Awg:
        return "awg";
    case Stage::Mining:
        return "mining";
    }
    return "unknown";
}

namespace
{

/** Span name literal per stage (span names must outlive the flush). */
const char *
stageSpanName(Stage stage)
{
    switch (stage) {
    case Stage::WaitGraphs:
        return "stage.wait-graphs";
    case Stage::Classes:
        return "stage.classes";
    case Stage::Impact:
        return "stage.impact";
    case Stage::Awg:
        return "stage.awg";
    case Stage::Mining:
        return "stage.mining";
    }
    return "stage.unknown";
}

} // namespace

std::string
PipelineStats::render() const
{
    std::ostringstream oss;
    oss << "pipeline stages:\n";
    for (std::size_t i = 0; i < kStageCount; ++i) {
        const StageStats &s = stages[i];
        oss << "  " << stageName(static_cast<Stage>(i)) << ": "
            << s.hits << " hit" << (s.hits == 1 ? "" : "s") << ", "
            << s.misses << " miss" << (s.misses == 1 ? "" : "es")
            << ", " << s.buildMs << " ms build\n";
    }
    return oss.str();
}

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
    const DurationNs reduced = awgSlow.reducedCost();
    const DurationNs kept = awgSlow.totalRootCost();
    if (reduced + kept == 0)
        return 0.0;
    return static_cast<double>(reduced) /
           static_cast<double>(reduced + kept);
}

Analyzer::Analyzer(TraceSource &source, AnalyzerConfig config)
    : source_(&source), config_(std::move(config)),
      components_(config_.components)
{
    // Resolve the per-stage counter handles once; every update after
    // this is a relaxed atomic increment.
    for (std::size_t i = 0; i < kStageCount; ++i) {
        const std::string prefix =
            "pipeline." + std::string(stageName(static_cast<Stage>(i)));
        counters_[i].hits = &metrics_.counter(prefix + ".hits");
        counters_[i].misses = &metrics_.counter(prefix + ".misses");
        counters_[i].buildNs = &metrics_.counter(prefix + ".build_ns");
        counters_[i].summaries =
            &metrics_.counter(prefix + ".summaries");
    }
    const std::size_t count = source.shardCount();
    for (std::size_t i = 0; i < count; ++i) {
        Expected<CorpusPtr> shard = source.shard(i);
        if (!shard)
            continue; // isolated and recorded in source.stats()
        absorb(*shard.value(), shard.value());
    }
}

Analyzer::~Analyzer()
{
    metrics_.mergeInto(MetricsRegistry::global());
}

PipelineStats
Analyzer::pipelineStats() const
{
    PipelineStats stats;
    for (std::size_t i = 0; i < kStageCount; ++i) {
        StageStats &s = stats.stages[i];
        const StageCounters &c = counters_[i];
        s.hits = c.hits->value();
        s.misses = c.misses->value();
        s.buildMs = static_cast<double>(c.buildNs->value()) / 1e6;
        s.summaries = c.summaries->value();
    }
    return stats;
}

void
Analyzer::absorb(const TraceCorpus &part, CorpusPtr alias)
{
    Span span("analyzer.ingest-shard", "analysis");
    if (span.active()) {
        span.arg("shard", static_cast<std::uint64_t>(shards_.size()));
        span.arg("instances",
                 static_cast<std::uint64_t>(part.instances().size()));
    }

    corpusDigest_.mix(digestCorpus(part));
    ShardRecord record;
    record.firstInstance =
        static_cast<std::uint32_t>(corpus_->instances().size());
    record.instanceCount =
        static_cast<std::uint32_t>(part.instances().size());

    if (shards_.empty() && alias != nullptr) {
        // Single-shard fast path: adopt the shard as the analysis
        // corpus without a merge copy (copy-on-append later).
        aliasShard_ = std::move(alias);
        corpus_ = aliasShard_.get();
    } else {
        ensureOwned();
        appendCorpus(ownedCorpus_, part);
    }
    shards_.push_back(record);
    for (std::uint32_t i = 0; i < record.instanceCount; ++i)
        summaries_.emplace_back();
    corpusImpact_ = std::make_unique<CorpusImpact>();
    slots_.clear();

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
    // identical to the alias (same ids, same instance order) and every
    // wait graph and summary already built stays valid.
    ownedCorpus_ = TraceCorpus{};
    appendCorpus(ownedCorpus_, *aliasShard_);
    aliasShard_.reset();
    corpus_ = &ownedCorpus_;
}

void
Analyzer::addStreams(const TraceCorpus &part)
{
    ensureOwned();
    absorb(part, nullptr);
}

template <typename Build>
void
Analyzer::runStage(Stage stage, bool held, Build &&build) const
{
    const StageCounters &counters =
        counters_[static_cast<std::size_t>(stage)];
    Span span(stageSpanName(stage), "pipeline");
    if (span.active())
        span.arg("outcome", std::string(held ? "hit" : "miss"));
    if (held) {
        counters.hits->add(1);
        return;
    }
    const auto start = std::chrono::steady_clock::now();
    build();
    counters.misses->add(1);
    counters.buildNs->add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
}

template <typename T, typename Build>
const T &
Analyzer::memo(Stage stage, Lazy<T> &lazy, Build &&build) const
{
    bool built = false;
    std::call_once(lazy.once, [&] {
        runStage(stage, false, [&] { lazy.value = build(); });
        built = true;
    });
    if (!built)
        runStage(stage, true, [] {});
    return lazy.value;
}

const std::vector<WaitGraph> &
Analyzer::graphs() const
{
    std::lock_guard<std::mutex> lock(graphsMutex_);
    if (graphsShards_ != shards_.size()) {
        Span span("analyzer.graphs", "analysis");
        if (span.active()) {
            span.arg("shards",
                     static_cast<std::uint64_t>(shards_.size()));
            span.arg("instances", static_cast<std::uint64_t>(
                                      corpus_->instances().size()));
        }
        graphs_.reserve(corpus_->instances().size());
        const unsigned threads = resolveThreads(config_.threads);
        WaitGraphBuilder builder(*corpus_, config_.waitGraph);
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            // A shard's graphs depend only on the shards up to it (its
            // streams, and the ids the prefix interned), so the graphs
            // of shards already built stay as they are.
            const ShardRecord &shard = shards_[i];
            runStage(Stage::WaitGraphs, i < graphsShards_, [&] {
                std::vector<WaitGraph> built = builder.buildRangeParallel(
                    shard.firstInstance, shard.instanceCount, threads);
                graphs_.insert(graphs_.end(),
                               std::make_move_iterator(built.begin()),
                               std::make_move_iterator(built.end()));
            });
        }
        graphsShards_ = shards_.size();
    }
    return graphs_;
}

ImpactResult
Analyzer::impactAll() const
{
    return memo(Stage::Impact, corpusImpact_->all, [&] {
        ImpactAnalysis impact(*corpus_, components_);
        return impact.analyze(graphs(), config_.threads);
    });
}

std::unordered_map<std::uint32_t, ImpactResult>
Analyzer::impactPerScenario() const
{
    return memo(Stage::Impact, corpusImpact_->perScenario, [&] {
        ImpactAnalysis impact(*corpus_, components_);
        return impact.analyzePerScenario(graphs(), config_.threads);
    });
}

std::shared_ptr<Analyzer::QuerySlot>
Analyzer::querySlot(std::uint32_t scenario, DurationNs t_fast,
                    DurationNs t_slow) const
{
    std::shared_ptr<QuerySlot> replaced; // freed after the unlock
    const std::lock_guard<std::mutex> lock(slotsMutex_);
    std::shared_ptr<QuerySlot> &slot = slots_[scenario];
    if (slot == nullptr || slot->tFast != t_fast ||
        slot->tSlow != t_slow) {
        replaced = std::exchange(slot, std::make_shared<QuerySlot>());
        slot->tFast = t_fast;
        slot->tSlow = t_slow;
    }
    return slot;
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
Analyzer::summarize(const std::vector<std::uint32_t> &members,
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

PartialImpact
Analyzer::classImpact(const std::vector<std::uint32_t> &members,
                      unsigned threads) const
{
    const std::vector<WaitGraph> &all = graphs();
    Span span("impact.analyze", "analysis");
    const ImpactAnalysis impact(*corpus_, components_);
    const std::uint64_t computed = summarize(
        members, &InstanceSummaries::contribution, threads,
        [&](std::uint32_t i) { return impact.collect(all[i]); });
    counters_[static_cast<std::size_t>(Stage::Impact)].summaries->add(
        computed);

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

PartialAwg
Analyzer::classAwg(const std::vector<std::uint32_t> &members,
                   unsigned threads) const
{
    const std::vector<WaitGraph> &all = graphs();
    Span span("awg.aggregate", "analysis");
    const AwgBuilder builder(*corpus_, components_, config_.awg);
    const std::uint64_t computed = summarize(
        members, &InstanceSummaries::fragment, threads,
        [&](std::uint32_t i) { return builder.summarize(all[i]); });
    counters_[static_cast<std::size_t>(Stage::Awg)].summaries->add(
        computed);

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
    ImpactAnalysis impact(*corpus_, components_);
    partial.all = impact.analyzePartial(graphs(), config_.threads);
    for (auto &[scenario, accumulator] :
         impact.analyzePerScenarioPartial(graphs(), config_.threads)) {
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
    // one's inner stages serial so the machine is not oversubscribed.
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

    const std::shared_ptr<QuerySlot> slot =
        querySlot(scenario, t_fast, t_slow);
    analysis.classes = memo(Stage::Classes, slot->classes, [&] {
        return classify(scenario, t_fast, t_slow);
    });
    graphs(); // built outside the stage spans

    analysis.slowImpact = memo(Stage::Impact, slot->slowImpact, [&] {
        return classImpact(analysis.classes.slow, threads).finalize();
    });
    for (std::uint32_t i : analysis.classes.slow)
        analysis.slowDuration += corpus_->instances()[i].duration();

    auto classAwgAt = [&](Lazy<AggregatedWaitGraph> &awg,
                          const std::vector<std::uint32_t> &members)
        -> const AggregatedWaitGraph & {
        return memo(Stage::Awg, awg, [&] {
            return classAwg(members, threads)
                .finalize(config_.awg.reduceNonOptimizable);
        });
    };
    const AggregatedWaitGraph &awgFast =
        classAwgAt(slot->awgFast, analysis.classes.fast);
    const AggregatedWaitGraph &awgSlow =
        classAwgAt(slot->awgSlow, analysis.classes.slow);
    analysis.awgFast = awgFast;
    analysis.awgSlow = awgSlow;

    analysis.mining = memo(Stage::Mining, slot->mining, [&] {
        MiningOptions mining_options;
        mining_options.maxSegmentLength = config_.maxSegmentLength;
        mining_options.tFast = t_fast;
        mining_options.tSlow = t_slow;
        mining_options.useMetaPatternGate = config_.useMetaPatternGate;
        ContrastMiner miner(*corpus_, mining_options);
        return miner.mine(awgFast, awgSlow, threads);
    });

    // RQ1 denominator: the total driver cost as aggregated — the kept
    // graph plus the non-optimizable portion removed by ReduceAWG
    // (Section 5.2.2 accounts exactly this way). Cheap to derive, so
    // not memoized.
    analysis.coverage = computeCoverage(
        analysis.mining,
        analysis.awgSlow.reducedCost() + analysis.awgSlow.totalRootCost(),
        t_slow);

    return analysis;
}

} // namespace tracelens
