/**
 * @file
 * Baseline comparison on the Figure-1 incident: what each analysis
 * family reveals about an 800 ms propagated stall.
 *
 *  - gprof-style call-graph CPU profiling sees a few milliseconds of
 *    CPU and nothing else (drivers are ~1.6 % CPU);
 *  - single-lock contention analysis sees each lock hop in isolation
 *    but cannot connect the cross-lock chain to the root cause;
 *  - TraceLens's impact + causality analysis surfaces the full
 *    propagation pattern with the se.sys+disk root cause.
 */

#include <iostream>

#include "src/baseline/callgraph.h"
#include "src/baseline/lockcontention.h"
#include "src/baseline/stackmine.h"
#include "src/core/analyzer.h"
#include "src/simkernel/kernel.h"
#include "src/workload/motivating.h"

int
main()
{
    using namespace tracelens;

    TraceCorpus corpus;
    const CaseHandles handles = buildMotivatingExample(corpus);
    const ScenarioInstance &instance =
        corpus.instances()[handles.instance];

    std::cout << "incident: BrowserTabCreate took "
              << toMs(instance.duration()) << "ms\n\n";

    std::cout << "== Baseline 1: call-graph CPU profile (gprof-style) "
                 "==\n";
    CallGraphProfiler profiler(corpus);
    std::cout << "total sampled CPU: " << toMs(profiler.totalCpu())
              << "ms (vs " << toMs(instance.duration())
              << "ms wall) — the stall is invisible to a CPU "
                 "profiler\n";
    std::cout << profiler.renderTop(6) << "\n";

    std::cout << "== Baseline 2: per-callsite lock contention "
                 "(Tallent-style) ==\n";
    LockContentionAnalyzer contention(corpus);
    std::cout << contention.renderTop(6);
    std::cout << "each row is one hop; the fv->fs->se chain is not "
                 "connected\n\n";

    std::cout << "== Baseline 3: costly stack patterns "
                 "(StackMine-style) ==\n";
    StackMineAnalyzer stackmine(corpus);
    std::cout << stackmine.renderTop(5);
    std::cout << "within-thread hotspots only; the cross-thread chain "
                 "is still invisible\n\n";

    std::cout << "== TraceLens: impact + causality ==\n";
    {
        // Add a fast instance to enable contrast mining.
        SimKernel sim(corpus, "fast-machine");
        const auto scn = sim.scenario("BrowserTabCreate");
        sim.spawnThread({actPush(sim.frame("browser.exe!TabCreate")),
                         actBeginInstance(scn), actCompute(fromMs(40)),
                         actEndInstance(), actPop()});
        sim.run();
    }
    EagerSource analyzer_source(corpus);
    Analyzer analyzer(analyzer_source);
    const ImpactResult impact = analyzer.impactAll();
    std::cout << "impact: " << impact.render() << "\n";

    const ScenarioAnalysis analysis = analyzer.analyzeScenario(
        "BrowserTabCreate", fromMs(300), fromMs(500));
    if (!analysis.mining->patterns.empty()) {
        std::cout << "top contrast pattern (connects the whole chain):\n"
                  << analysis.mining->patterns[0].tuple.render(
                         corpus.symbols());
    }
    return 0;
}
