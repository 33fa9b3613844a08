/**
 * @file
 * Tests for mining-result diffing (regression tracking) and the
 * generator's fleet-distribution knobs.
 */

#include <gtest/gtest.h>

#include "src/core/analyzer.h"
#include "src/mining/diff.h"
#include "src/workload/generator.h"

namespace tracelens
{
namespace
{

ContrastPattern
pattern(SymbolTable &sym, std::initializer_list<std::string_view> waits,
        DurationNs cost, std::uint64_t count)
{
    ContrastPattern p;
    for (auto w : waits)
        p.tuple.waits.push_back(sym.internFrame(w));
    p.tuple.normalize();
    p.cost = cost;
    p.count = count;
    p.maxExec = cost;
    return p;
}

TEST(MiningDiff, ClassifiesAppearedDisappearedChangedStable)
{
    // Two corpora intern the same names in different orders.
    SymbolTable before_sym, after_sym;
    after_sym.internFrame("zzz!pad"); // shift ids

    MiningResult before, after;
    before.patterns.push_back(
        pattern(before_sym, {"fs.sys!Read"}, 1000, 1)); // stays stable
    before.patterns.push_back(
        pattern(before_sym, {"net.sys!Send"}, 400, 1)); // disappears
    before.patterns.push_back(
        pattern(before_sym, {"fv.sys!Query"}, 100, 1)); // gets 5x worse

    after.patterns.push_back(
        pattern(after_sym, {"fs.sys!Read"}, 1100, 1)); // ~stable
    after.patterns.push_back(
        pattern(after_sym, {"fv.sys!Query"}, 500, 1)); // changed
    after.patterns.push_back(
        pattern(after_sym, {"graphics.sys!Flip"}, 900, 1)); // new

    const MiningDiff diff = diffMiningResults(before, before_sym,
                                              after, after_sym, 1.5);
    ASSERT_EQ(diff.appeared.size(), 1u);
    EXPECT_EQ(after_sym.frameName(diff.appeared[0].tuple.waits[0]),
              "graphics.sys!Flip");
    ASSERT_EQ(diff.disappeared.size(), 1u);
    EXPECT_EQ(
        before_sym.frameName(diff.disappeared[0].tuple.waits[0]),
        "net.sys!Send");
    ASSERT_EQ(diff.changed.size(), 1u);
    EXPECT_NEAR(diff.changed[0].impactRatio(), 5.0, 1e-9);
    EXPECT_EQ(diff.stable, 1u);

    const std::string text = diff.render(after_sym);
    EXPECT_NE(text.find("appeared=1"), std::string::npos);
    EXPECT_NE(text.find("graphics.sys!Flip"), std::string::npos);
}

TEST(MiningDiff, IdenticalResultsAreAllStable)
{
    SymbolTable sym;
    MiningResult result;
    result.patterns.push_back(pattern(sym, {"a.sys!X"}, 100, 2));
    result.patterns.push_back(pattern(sym, {"b.sys!Y"}, 50, 1));

    const MiningDiff diff =
        diffMiningResults(result, sym, result, sym);
    EXPECT_TRUE(diff.appeared.empty());
    EXPECT_TRUE(diff.disappeared.empty());
    EXPECT_TRUE(diff.changed.empty());
    EXPECT_EQ(diff.stable, 2u);
}

TEST(MiningDiff, MultiSetTuplesMatchAcrossIdSpaces)
{
    SymbolTable a, b;
    // Intern in opposite orders so the sorted-by-id tuples differ.
    const FrameId a1 = a.internFrame("x.sys!P");
    const FrameId a2 = a.internFrame("y.sys!Q");
    const FrameId b2 = b.internFrame("y.sys!Q");
    const FrameId b1 = b.internFrame("x.sys!P");

    ContrastPattern pa;
    pa.tuple.waits = {a1, a2};
    pa.tuple.normalize();
    pa.cost = 100;
    pa.count = 1;
    ContrastPattern pb;
    pb.tuple.waits = {b1, b2};
    pb.tuple.normalize();
    pb.cost = 110;
    pb.count = 1;

    MiningResult before, after;
    before.patterns.push_back(pa);
    after.patterns.push_back(pb);
    const MiningDiff diff = diffMiningResults(before, a, after, b);
    EXPECT_EQ(diff.stable, 1u);
    EXPECT_TRUE(diff.appeared.empty());
}

TEST(GeneratorDistribution, FleetKnobsShapeTheCorpus)
{
    // All-encrypted fleet: every stream mentions se.sys.
    CorpusSpec all_encrypted;
    all_encrypted.machines = 8;
    all_encrypted.seed = 3;
    all_encrypted.encryptedFraction = 1.0;
    const TraceCorpus encrypted = generateCorpus(all_encrypted);
    bool saw_se = false;
    for (FrameId f = 0; f < encrypted.symbols().frameCount(); ++f) {
        saw_se = saw_se ||
                 encrypted.symbols().componentName(f) == "se.sys";
    }
    EXPECT_TRUE(saw_se);

    // No-encryption fleet: se.sys never appears.
    CorpusSpec none;
    none.machines = 8;
    none.seed = 3;
    none.encryptedFraction = 0.0;
    const TraceCorpus plain = generateCorpus(none);
    for (FrameId f = 0; f < plain.symbols().frameCount(); ++f)
        EXPECT_NE(plain.symbols().componentName(f), "se.sys");
}

TEST(MiningDiff, TwoSeedsOfSameWorkloadAreMostlyStable)
{
    // The same fleet spec under two seeds should share most behaviour
    // (patterns), with some churn — the realistic regression baseline.
    auto analyze = [](std::uint64_t seed) {
        CorpusSpec spec;
        spec.machines = 25;
        spec.seed = seed;
        spec.onlyScenarios = {"BrowserTabCreate"};
        return generateCorpus(spec);
    };
    const TraceCorpus a = analyze(100);
    const TraceCorpus b = analyze(200);

    EagerSource source_a(a), source_b(b);
    Analyzer ana_a(source_a), ana_b(source_b);
    const ScenarioAnalysis ra = ana_a.analyzeScenario(
        "BrowserTabCreate", fromMs(300), fromMs(500));
    const ScenarioAnalysis rb = ana_b.analyzeScenario(
        "BrowserTabCreate", fromMs(300), fromMs(500));

    const MiningDiff diff = diffMiningResults(
        *ra.mining, a.symbols(), *rb.mining, b.symbols(), 3.0);
    // Shared structure exists: at least some patterns match exactly.
    EXPECT_GT(diff.stable + diff.changed.size(), 0u);
}

} // namespace
} // namespace tracelens
