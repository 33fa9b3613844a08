/**
 * @file
 * Tests for the Analyzer facade: classification, per-scenario
 * pipeline, and end-to-end behaviour on generated corpora.
 */

#include <gtest/gtest.h>

#include "src/core/analyzer.h"
#include "src/trace/builder.h"
#include "src/workload/generator.h"
#include "src/workload/motivating.h"

namespace tracelens
{
namespace
{

TEST(Analyzer, ClassifySplitsByThresholds)
{
    TraceCorpus corpus;
    StreamBuilder b(corpus, "s");
    const CallstackId st = b.stack({"app!X"});
    b.running(1, 0, 10, st);
    b.instance("S", 1, 0, fromMs(100));   // fast (< 300)
    b.instance("S", 1, 0, fromMs(400));   // middle
    b.instance("S", 1, 0, fromMs(700));   // slow (> 500)
    b.instance("T", 1, 0, fromMs(700));   // other scenario
    b.finish();

    EagerSource analyzer_source(corpus);

    Analyzer analyzer(analyzer_source);
    const auto classes = analyzer.classify(corpus.findScenario("S"),
                                           fromMs(300), fromMs(500));
    EXPECT_EQ(classes.fast.size(), 1u);
    EXPECT_EQ(classes.middle.size(), 1u);
    EXPECT_EQ(classes.slow.size(), 1u);
}

TEST(Analyzer, MotivatingExampleEndToEnd)
{
    TraceCorpus corpus;
    buildMotivatingExample(corpus);

    // Add a fast BrowserTabCreate instance so there is a fast class.
    {
        SimKernel sim(corpus, "fast-machine");
        const auto scn = sim.scenario("BrowserTabCreate");
        sim.spawnThread({actPush(sim.frame("browser.exe!TabCreate")),
                         actBeginInstance(scn),
                         actCompute(fromMs(40)), actEndInstance(),
                         actPop()});
        sim.run();
    }

    EagerSource analyzer_source(corpus);

    Analyzer analyzer(analyzer_source);
    const ScenarioAnalysis analysis = analyzer.analyzeScenario(
        "BrowserTabCreate", fromMs(300), fromMs(500));

    EXPECT_EQ(analysis.classes.fast.size(), 1u);
    EXPECT_EQ(analysis.classes.slow.size(), 1u);
    ASSERT_FALSE(analysis.mining->patterns.empty());

    // The top pattern must be the paper's Signature Set Tuple: fv/fs
    // waits fed by the se.sys + DiskService running set.
    const SymbolTable &sym = corpus.symbols();
    const std::string top =
        analysis.mining->patterns[0].tuple.render(sym);
    EXPECT_NE(top.find("fv.sys!QueryFileTable"), std::string::npos);
    EXPECT_NE(top.find("fs.sys!AcquireMDU"), std::string::npos);
    EXPECT_NE(top.find("se.sys!ReadDecrypt"), std::string::npos);
    EXPECT_NE(top.find("DiskService"), std::string::npos);

    // That pattern is high impact (one execution beyond T_slow).
    EXPECT_TRUE(analysis.mining->patterns[0].highImpact(fromMs(500)));
    EXPECT_GT(analysis.coverage.itc(), 0.0);
    EXPECT_GE(analysis.coverage.ttc(), analysis.coverage.itc());
}

TEST(Analyzer, GeneratedCorpusPipelineProducesSaneMetrics)
{
    CorpusSpec spec;
    spec.machines = 12;
    spec.seed = 7;
    const TraceCorpus corpus = generateCorpus(spec);

    EagerSource analyzer_source(corpus);

    Analyzer analyzer(analyzer_source);
    const ImpactResult impact = analyzer.impactAll();

    EXPECT_GT(impact.instances, 0u);
    EXPECT_GT(impact.dScn, 0);
    EXPECT_GE(impact.dWait, impact.dWaitDist);
    EXPECT_GE(impact.iaOpt(), 0.0);
    EXPECT_LE(impact.iaWait(), 1.0);
    EXPECT_GT(impact.iaWait(), 0.0);

    // Per-scenario metrics partition the corpus totals.
    const auto per = analyzer.impactPerScenario();
    DurationNs scn_sum = 0;
    std::size_t inst_sum = 0;
    for (const auto &[id, result] : per) {
        scn_sum += result.dScn;
        inst_sum += result.instances;
    }
    EXPECT_EQ(scn_sum, impact.dScn);
    EXPECT_EQ(inst_sum, impact.instances);
}

TEST(Analyzer, ScenarioAnalysisOnGeneratedCorpus)
{
    CorpusSpec spec;
    spec.machines = 10;
    spec.seed = 99;
    spec.onlyScenarios = {"BrowserTabCreate"};
    const TraceCorpus corpus = generateCorpus(spec);

    EagerSource analyzer_source(corpus);

    Analyzer analyzer(analyzer_source);
    const ScenarioSpec &scn = scenarioByName("BrowserTabCreate");
    const ScenarioAnalysis analysis =
        analyzer.analyzeScenario("BrowserTabCreate", scn.tFast,
                                 scn.tSlow);

    EXPECT_GT(analysis.classes.fast.size() +
                  analysis.classes.middle.size() +
                  analysis.classes.slow.size(),
              0u);
    EXPECT_GE(analysis.driverCostShare(), 0.0);
    EXPECT_LE(analysis.nonOptimizableShare(), 1.0);
    EXPECT_LE(analysis.coverage.itc(), analysis.coverage.ttc());
}

TEST(Analyzer, UnknownScenarioIsFatal)
{
    TraceCorpus corpus;
    EagerSource analyzer_source(corpus);
    Analyzer analyzer(analyzer_source);
    EXPECT_DEATH(
        { analyzer.analyzeScenario("Nope", fromMs(1), fromMs(2)); },
        "not in corpus");
}

} // namespace
} // namespace tracelens
