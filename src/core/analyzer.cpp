/**
 * @file
 * Analyzer: per-shard ingestion with content digesting, the artifact
 * stage graph (wait graphs -> per-instance summaries -> classes/impact
 * -> AWGs -> mining), per-scenario eviction of per-query artifacts,
 * and the multi-scenario fan-out.
 */

#include "src/core/analyzer.h"

#include <algorithm>
#include <iterator>

#include "src/trace/merge.h"
#include "src/trace/serialize.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/telemetry.h"

namespace tracelens
{

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
      components_(config_.components), store_(config_.artifactCacheDir)
{
    computeFingerprints();
    const std::size_t count = source.shardCount();
    for (std::size_t i = 0; i < count; ++i) {
        Expected<CorpusPtr> shard = source.shard(i);
        if (!shard)
            continue; // isolated and recorded in source.stats()
        absorb(*shard.value(), shard.value());
    }
}

void
Analyzer::computeFingerprints()
{
    Digest base;
    base.mix(kSchemaVersion);
    base.mix(static_cast<std::uint64_t>(config_.components.size()));
    for (const std::string &component : config_.components)
        base.mix(std::string_view(component));

    fpWaitGraph_ = base;
    fpWaitGraph_.mix(config_.waitGraph.maxDepth)
        .mix(config_.waitGraph.maxNodes)
        .mix(static_cast<std::uint64_t>(config_.waitGraph.containmentOnly))
        .mix(static_cast<std::uint64_t>(config_.waitGraph.clipToWindows));

    // Classification reads only instance durations, so its fingerprint
    // carries no component or graph options.
    fpClasses_ = Digest{};
    fpClasses_.mix(kSchemaVersion);

    fpAwg_ = fpWaitGraph_;
    fpAwg_.mix(static_cast<std::uint64_t>(
                   config_.awg.eliminateInnerIrrelevant))
        .mix(static_cast<std::uint64_t>(config_.awg.reduceNonOptimizable));

    fpMining_ = fpAwg_;
    fpMining_.mix(config_.maxSegmentLength)
        .mix(static_cast<std::uint64_t>(config_.useMetaPatternGate));
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

    ShardRecord record;
    record.digest = digestCorpus(part);
    record.chain = shards_.empty() ? Digest{} : shards_.back().chain;
    record.chain.mix(record.digest);
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
    // existing artifact stays valid.
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

const Digest &
Analyzer::chainTip() const
{
    static const Digest kEmptyChain;
    return shards_.empty() ? kEmptyChain : shards_.back().chain;
}

Digest
Analyzer::stageKey(const Digest &fingerprint, std::string_view salt,
                   const Digest &input)
{
    Digest key = fingerprint;
    key.mix(salt);
    key.mix(input);
    return key;
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
            const Digest key =
                stageKey(fpWaitGraph_, "waitgraphs", shard.chain);
            store_.track(Stage::WaitGraphs, key, i < graphsShards_, [&] {
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
    const Digest key = stageKey(fpWaitGraph_, "impact:all", chainTip());
    auto result = store_.get<ImpactResult>(Stage::Impact, key, [&] {
        ImpactAnalysis impact(*corpus_, components_);
        return impact.analyze(graphs(), config_.threads);
    });
    return *result;
}

std::unordered_map<std::uint32_t, ImpactResult>
Analyzer::impactPerScenario() const
{
    const Digest key =
        stageKey(fpWaitGraph_, "impact:per-scenario", chainTip());
    using Map = std::unordered_map<std::uint32_t, ImpactResult>;
    auto result = store_.get<Map>(Stage::Impact, key, [&] {
        ImpactAnalysis impact(*corpus_, components_);
        return impact.analyzePerScenario(graphs(), config_.threads);
    });
    return *result;
}

Digest
Analyzer::queryCoords(std::uint32_t scenario, DurationNs t_fast,
                      DurationNs t_slow) const
{
    Digest coords = chainTip();
    coords.mix(scenario)
        .mix(static_cast<std::uint64_t>(t_fast))
        .mix(static_cast<std::uint64_t>(t_slow));
    return coords;
}

void
Analyzer::keepQueryKey(std::uint32_t scenario, const Digest &coords,
                       const Digest &key) const
{
    std::lock_guard<std::mutex> lock(queryKeysMutex_);
    QueryKeys &kept = queryKeys_[scenario];
    if (!(kept.coords == coords)) {
        store_.erase(kept.keys);
        kept.keys.clear();
        kept.coords = coords;
    }
    if (std::find(kept.keys.begin(), kept.keys.end(), key) ==
        kept.keys.end())
        kept.keys.push_back(key);
}

ContrastClasses
Analyzer::classify(std::uint32_t scenario, DurationNs t_fast,
                   DurationNs t_slow) const
{
    TL_ASSERT(t_fast > 0 && t_slow > t_fast, "bad thresholds");
    const Digest coords = queryCoords(scenario, t_fast, t_slow);
    const Digest key = stageKey(fpClasses_, "classes", coords);
    auto classes = store_.get<ContrastClasses>(Stage::Classes, key, [&] {
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
    });
    keepQueryKey(scenario, coords, key);
    return *classes;
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
    store_.countSummaries(Stage::Impact, computed);

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
    store_.countSummaries(Stage::Awg, computed);

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

    // Per-scenario stage keys share this suffix: the data chain plus
    // the (scenario, thresholds) coordinates of the contrast classes.
    // Every key fetched at these coordinates is kept as the
    // scenario's per-query set, replacing the previous coordinates'.
    const Digest coords = queryCoords(scenario, t_fast, t_slow);
    analysis.classes = classify(scenario, t_fast, t_slow);
    graphs(); // built outside the stage spans

    const Digest slowImpactKey =
        stageKey(fpWaitGraph_, "impact:slow", coords);
    auto slowImpact =
        store_.get<ImpactResult>(Stage::Impact, slowImpactKey, [&] {
            return classImpact(analysis.classes.slow, threads).finalize();
        });
    keepQueryKey(scenario, coords, slowImpactKey);
    analysis.slowImpact = *slowImpact;
    for (std::uint32_t i : analysis.classes.slow)
        analysis.slowDuration += corpus_->instances()[i].duration();

    auto classAwgAt = [&](std::string_view salt,
                          const std::vector<std::uint32_t> &members) {
        const Digest key = stageKey(fpAwg_, salt, coords);
        auto awg = store_.awg(key, [&] {
            return classAwg(members, threads)
                .finalize(config_.awg.reduceNonOptimizable);
        });
        keepQueryKey(scenario, coords, key);
        return awg;
    };
    auto awgFast = classAwgAt("awg:fast", analysis.classes.fast);
    auto awgSlow = classAwgAt("awg:slow", analysis.classes.slow);
    analysis.awgFast = *awgFast;
    analysis.awgSlow = *awgSlow;

    const Digest miningKey = stageKey(fpMining_, "mining", coords);
    auto mining = store_.get<MiningResult>(
        Stage::Mining, miningKey, [&] {
            MiningOptions mining_options;
            mining_options.maxSegmentLength = config_.maxSegmentLength;
            mining_options.tFast = t_fast;
            mining_options.tSlow = t_slow;
            mining_options.useMetaPatternGate =
                config_.useMetaPatternGate;
            ContrastMiner miner(*corpus_, mining_options);
            return miner.mine(*awgFast, *awgSlow, threads);
        });
    keepQueryKey(scenario, coords, miningKey);
    analysis.mining = *mining;

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
