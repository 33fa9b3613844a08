/**
 * @file
 * Tests for the partial-result merge layer (src/core/partial.h): the
 * scatter/gather contract behind coordinator mode. Per-shard partials
 * — produced by independent analyzers, round-tripped through the TLP1
 * wire encoding, merged in shard order, and finalized once — must be
 * byte-identical to a single-node analysis of the merged corpus. Also
 * covers the hostile-input side of the codec: truncation, corruption,
 * kind confusion, and the encoding-revision handshake.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/analyzer.h"
#include "src/core/partial.h"
#include "src/mining/coverage.h"
#include "src/trace/merge.h"
#include "src/trace/source.h"
#include "src/workload/generator.h"
#include "src/workload/scenarios.h"

namespace tracelens
{
namespace
{

CorpusSpec
smallSpec()
{
    CorpusSpec spec;
    spec.machines = 12;
    spec.seed = 7171;
    return spec;
}

/** First catalog scenario present in @p corpus, with thresholds. */
ScenarioThresholds
pickScenario(const TraceCorpus &corpus)
{
    for (const ScenarioSpec &spec : scenarioCatalog()) {
        if (spec.selected &&
            corpus.findScenario(spec.name) != UINT32_MAX)
            return {spec.name, spec.tFast, spec.tSlow};
    }
    ADD_FAILURE() << "no catalog scenario in generated corpus";
    return {};
}

/** The coordinator's gather state for one scenario query. */
struct Gathered
{
    SymbolTable symbols;
    PartialClasses classes;
    PartialImpact slowImpact;
    PartialAwg awgFast;
    PartialAwg awgSlow;
    std::uint32_t streams = 0;

    /** Fold the next shard's partial, in global shard order. */
    void
    fold(ScenarioPartial partial)
    {
        partial.remapFrames(symbols);
        classes.merge(partial.classes);
        partial.slowImpact.rebaseStreams(streams);
        slowImpact.merge(partial.slowImpact);
        awgFast.merge(partial.awgFast);
        awgSlow.merge(partial.awgSlow);
        streams += partial.streamCount;
    }
};

/** One shard's scenario partial, optionally through the wire codec. */
ScenarioPartial
shardPartial(const TraceCorpus &part, const ScenarioThresholds &scn,
             unsigned threads, bool through_wire)
{
    AnalyzerConfig config;
    config.threads = threads;
    EagerSource source(part);
    Analyzer analyzer(source, config);
    ScenarioPartial partial =
        analyzer.scenarioPartial(scn.name, scn.tFast, scn.tSlow);
    if (!through_wire)
        return partial;

    // The full coordinator transport: TLP1 bytes inside base64 (the
    // JSON carrier of protocol v2 responses).
    const std::string bytes = encodeScenarioPartial(partial);
    const std::optional<std::string> raw =
        base64Decode(base64Encode(bytes));
    EXPECT_TRUE(raw.has_value());
    EXPECT_EQ(*raw, bytes);
    Expected<ScenarioPartial> decoded = decodeScenarioPartial(*raw);
    EXPECT_TRUE(decoded.ok()) << decoded.error().render();
    return std::move(decoded.value());
}

TEST(Partial, ScatterGatherMatchesSingleNodeByteForByte)
{
    const TraceCorpus corpus = generateCorpus(smallSpec());
    const ScenarioThresholds scn = pickScenario(corpus);
    const std::vector<TraceCorpus> parts = splitCorpus(corpus, 4);
    ASSERT_EQ(parts.size(), 4u);

    // The single-node reference over the merged corpus.
    TraceCorpus merged;
    for (const TraceCorpus &part : parts)
        appendCorpus(merged, part);
    AnalyzerConfig config;
    config.threads = 1;
    EagerSource source(merged);
    Analyzer single(source, config);
    const ScenarioAnalysis full =
        single.analyzeScenario(scn.name, scn.tFast, scn.tSlow);
    const ClassAwgs fullAwgs =
        single.scenarioAwgs(scn.name, scn.tFast, scn.tSlow);

    for (const bool through_wire : {false, true}) {
        for (const unsigned threads : {1u, 3u}) {
            Gathered g;
            for (const TraceCorpus &part : parts)
                g.fold(shardPartial(part, scn, threads, through_wire));

            EXPECT_EQ(g.classes.fast, full.classes.fast.size());
            EXPECT_EQ(g.classes.middle, full.classes.middle.size());
            EXPECT_EQ(g.classes.slow, full.classes.slow.size());
            EXPECT_EQ(g.classes.slowDuration, full.slowDuration);

            const ImpactResult impact = g.slowImpact.finalize();
            EXPECT_EQ(impact.render(), full.slowImpact.render());
            EXPECT_EQ(impact.dWaitDist, full.slowImpact.dWaitDist);
            EXPECT_EQ(impact.instances, full.slowImpact.instances);

            const AggregatedWaitGraph awgFast =
                g.awgFast.finalize(true);
            const AggregatedWaitGraph awgSlow =
                g.awgSlow.finalize(true);
            EXPECT_EQ(awgFast.renderText(g.symbols),
                      fullAwgs.fast.renderText(merged.symbols()));
            EXPECT_EQ(awgSlow.renderText(g.symbols),
                      fullAwgs.slow.renderText(merged.symbols()));
            EXPECT_EQ(awgSlow.reducedCost(),
                      fullAwgs.slow.reducedCost());
            EXPECT_EQ(awgSlow.reducedCost(), full.slowReducedCost);
            EXPECT_EQ(awgSlow.totalRootCost(), full.slowRootCost);
            EXPECT_EQ(awgSlow.reducedNodes(),
                      fullAwgs.slow.reducedNodes());
            EXPECT_EQ(awgSlow.sourceGraphs(),
                      fullAwgs.slow.sourceGraphs());

            // Mining + coverage, exactly as the coordinator runs them
            // over the gathered AWGs.
            MiningOptions mining_options;
            mining_options.tFast = scn.tFast;
            mining_options.tSlow = scn.tSlow;
            TraceCorpus dummy;
            ContrastMiner miner(dummy, mining_options);
            const MiningResult mining = miner.mine(awgFast, awgSlow, 1);
            ASSERT_EQ(mining.patterns.size(),
                      full.mining->patterns.size());
            for (std::size_t i = 0; i < mining.patterns.size(); ++i) {
                const ContrastPattern &a = mining.patterns[i];
                const ContrastPattern &b = full.mining->patterns[i];
                EXPECT_EQ(a.cost, b.cost) << "pattern " << i;
                EXPECT_EQ(a.count, b.count) << "pattern " << i;
                EXPECT_EQ(a.maxExec, b.maxExec) << "pattern " << i;
                EXPECT_EQ(a.tuple.waits, b.tuple.waits);
                EXPECT_EQ(a.tuple.unwaits, b.tuple.unwaits);
                EXPECT_EQ(a.tuple.runnings, b.tuple.runnings);
            }
            EXPECT_EQ(mining.stats.render(),
                      full.mining->stats.render());

            const CoverageResult coverage = computeCoverage(
                mining,
                awgSlow.reducedCost() + awgSlow.totalRootCost(),
                scn.tSlow);
            EXPECT_EQ(coverage.render(), full.coverage.render());
        }
    }
}

TEST(Partial, MergeIsAssociativeAcrossGroupings)
{
    const TraceCorpus corpus = generateCorpus(smallSpec());
    const ScenarioThresholds scn = pickScenario(corpus);
    const std::vector<TraceCorpus> parts = splitCorpus(corpus, 3);
    ASSERT_EQ(parts.size(), 3u);

    std::vector<ScenarioPartial> partials;
    for (const TraceCorpus &part : parts)
        partials.push_back(shardPartial(part, scn, 1, false));

    // (A + B) + C.
    Gathered left;
    for (const ScenarioPartial &p : partials)
        left.fold(p);

    // A + (B + C): pre-merge the tail pair's AWG fragments before the
    // final fold. (Frame remapping still happens in global shard
    // order, which is the coordinator's contract.)
    Gathered right;
    right.fold(partials[0]);
    ScenarioPartial tail = partials[1];
    ScenarioPartial last = partials[2];
    // Bring the last shard onto the tail's frame/stream numbering
    // first, exactly as a two-level gather tree would.
    SymbolTable tail_symbols;
    for (const std::string &name : tail.frames)
        tail_symbols.internFrame(name);
    ScenarioPartial pair;
    pair.classes = tail.classes;
    pair.classes.merge(last.classes);
    pair.slowImpact = tail.slowImpact;
    last.slowImpact.rebaseStreams(tail.streamCount);
    pair.slowImpact.merge(last.slowImpact);
    pair.awgFast = tail.awgFast;
    pair.awgSlow = tail.awgSlow;
    last.remapFrames(tail_symbols);
    pair.awgFast.merge(last.awgFast);
    pair.awgSlow.merge(last.awgSlow);
    pair.streamCount = tail.streamCount + last.streamCount;
    pair.frames.clear();
    for (FrameId f = 0; f < tail_symbols.frameCount(); ++f)
        pair.frames.push_back(tail_symbols.frameName(f));
    right.fold(std::move(pair));

    EXPECT_EQ(left.classes.slow, right.classes.slow);
    EXPECT_EQ(left.slowImpact.finalize().render(),
              right.slowImpact.finalize().render());
    EXPECT_EQ(left.awgSlow.finalize(true).renderText(left.symbols),
              right.awgSlow.finalize(true).renderText(right.symbols));
}

TEST(Partial, AbsentScenarioYieldsAnEmptyMergeablePartial)
{
    const TraceCorpus corpus = generateCorpus(smallSpec());
    const ScenarioThresholds scn = pickScenario(corpus);

    AnalyzerConfig config;
    config.threads = 1;
    EagerSource source(corpus);
    Analyzer analyzer(source, config);

    ScenarioPartial absent =
        analyzer.scenarioPartial("no-such-scenario", scn.tFast,
                                 scn.tSlow);
    EXPECT_EQ(absent.classes.fast + absent.classes.middle +
                  absent.classes.slow,
              0u);
    // The frame table still rides along: the coordinator interns every
    // shard's frames to reproduce single-node interning order.
    EXPECT_EQ(absent.frames.size(), corpus.symbols().frameCount());
    EXPECT_GT(absent.streamCount, 0u);

    // Folding an empty partial is a no-op on the analysis content.
    ScenarioPartial present =
        analyzer.scenarioPartial(scn.name, scn.tFast, scn.tSlow);
    Gathered with, without;
    without.fold(present);
    with.fold(absent);
    with.fold(std::move(present));
    EXPECT_EQ(with.classes.slow, without.classes.slow);
    EXPECT_EQ(with.awgSlow.finalize(true).renderText(with.symbols),
              without.awgSlow.finalize(true).renderText(
                  without.symbols));
}

TEST(Partial, ImpactGatherMatchesSingleNode)
{
    const TraceCorpus corpus = generateCorpus(smallSpec());
    const std::vector<TraceCorpus> parts = splitCorpus(corpus, 3);
    ASSERT_EQ(parts.size(), 3u);

    TraceCorpus merged;
    for (const TraceCorpus &part : parts)
        appendCorpus(merged, part);
    AnalyzerConfig config;
    config.threads = 1;
    EagerSource source(merged);
    Analyzer single(source, config);
    const ImpactResult all = single.impactAll();
    const auto per_scenario = single.impactPerScenario();

    PartialImpact gathered_all;
    std::vector<std::pair<std::string, PartialImpact>> gathered_scn;
    std::uint32_t streams = 0;
    for (const TraceCorpus &part : parts) {
        EagerSource part_source(part);
        Analyzer analyzer(part_source, config);
        ImpactPartial partial = analyzer.impactPartial();

        // Through the wire, as the coordinator receives it.
        Expected<ImpactPartial> decoded =
            decodeImpactPartial(encodeImpactPartial(partial));
        ASSERT_TRUE(decoded.ok()) << decoded.error().render();
        ImpactPartial wire = std::move(decoded.value());

        wire.rebaseStreams(streams);
        streams += wire.streamCount;
        gathered_all.merge(wire.all);
        for (auto &[name, acc] : wire.perScenario) {
            auto it = std::find_if(
                gathered_scn.begin(), gathered_scn.end(),
                [&](const auto &e) { return e.first == name; });
            if (it == gathered_scn.end())
                gathered_scn.emplace_back(name, std::move(acc));
            else
                it->second.merge(acc);
        }
    }

    EXPECT_EQ(gathered_all.finalize().render(), all.render());
    EXPECT_EQ(gathered_scn.size(), per_scenario.size());
    for (const auto &[name, acc] : gathered_scn) {
        const std::uint32_t id = merged.findScenario(name);
        ASSERT_NE(id, UINT32_MAX) << name;
        const auto it = per_scenario.find(id);
        ASSERT_NE(it, per_scenario.end()) << name;
        EXPECT_EQ(acc.finalize().render(), it->second.render())
            << name;
    }
}

TEST(Partial, DecodeRejectsHostileInput)
{
    const TraceCorpus corpus = generateCorpus(smallSpec());
    const ScenarioThresholds scn = pickScenario(corpus);
    AnalyzerConfig config;
    config.threads = 1;
    EagerSource source(corpus);
    Analyzer analyzer(source, config);
    const ScenarioPartial partial =
        analyzer.scenarioPartial(scn.name, scn.tFast, scn.tSlow);
    const std::string good = encodeScenarioPartial(partial);

    // Sanity: the good bytes round-trip.
    ASSERT_TRUE(decodeScenarioPartial(good).ok());

    // Garbage and empty input.
    EXPECT_FALSE(decodeScenarioPartial("").ok());
    EXPECT_FALSE(decodeScenarioPartial("hello, world").ok());

    // Wrong magic.
    std::string bad_magic = good;
    bad_magic[0] = 'X';
    EXPECT_FALSE(decodeScenarioPartial(bad_magic).ok());

    // Foreign revision: the mixed-version backstop, with a message
    // that names both sides.
    std::string future = good;
    future[4] = static_cast<char>(0xEE);
    const Expected<ScenarioPartial> mismatch =
        decodeScenarioPartial(future);
    ASSERT_FALSE(mismatch.ok());
    EXPECT_NE(mismatch.error().reason.find("revision mismatch"),
              std::string::npos)
        << mismatch.error().reason;

    // Kind confusion: an impact envelope is not a scenario envelope.
    const std::string impact_bytes =
        encodeImpactPartial(ImpactPartial{});
    EXPECT_FALSE(decodeScenarioPartial(impact_bytes).ok());
    EXPECT_FALSE(decodeImpactPartial(good).ok());

    // Every truncation of a valid encoding must fail cleanly, never
    // crash or mis-decode (sampled for speed).
    const std::size_t step = std::max<std::size_t>(good.size() / 64, 1);
    for (std::size_t len = 0; len < good.size(); len += step)
        EXPECT_FALSE(decodeScenarioPartial(good.substr(0, len)).ok())
            << "truncated at " << len;

    // Trailing junk after a valid payload is rejected too.
    EXPECT_FALSE(decodeScenarioPartial(good + "x").ok());
}

TEST(Partial, Base64RoundTripsArbitraryBytes)
{
    std::string bytes;
    for (int i = 0; i < 300; ++i)
        bytes.push_back(static_cast<char>((i * 37 + 11) & 0xFF));
    for (std::size_t len = 0; len <= 8; ++len) {
        const std::string sub = bytes.substr(0, len);
        const std::optional<std::string> back =
            base64Decode(base64Encode(sub));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, sub);
    }
    const std::optional<std::string> full =
        base64Decode(base64Encode(bytes));
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(*full, bytes);

    EXPECT_FALSE(base64Decode("!!!!").has_value());
    EXPECT_FALSE(base64Decode("AB").has_value());
    EXPECT_FALSE(base64Decode("A===").has_value());
    EXPECT_EQ(base64Encode(""), "");
    ASSERT_TRUE(base64Decode("").has_value());
}

} // namespace
} // namespace tracelens
