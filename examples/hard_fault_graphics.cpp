/**
 * @file
 * Case study: a hard fault inside graphics.sys (paper Section 5.2.4,
 * observation 3).
 *
 * graphics.sys normally never touches the disk, so a pattern relating
 * it to fs.sys/se.sys is highly suspicious. The cause: a GPU-holding
 * system thread faults on pageable memory; the page read runs through
 * the encrypted storage stack and takes ~4.7 s, freezing the UI
 * thread that is queued on the GPU lock.
 *
 * Build & run:  ./build/examples/example_hard_fault_graphics
 */

#include <iostream>

#include "src/core/analyzer.h"
#include "src/simkernel/kernel.h"
#include "src/trace/serialize.h"
#include "src/workload/motivating.h"

int
main()
{
    using namespace tracelens;

    TraceCorpus corpus;
    const CaseHandles handles = buildGraphicsHardFaultCase(corpus);
    const ScenarioInstance &instance =
        corpus.instances()[handles.instance];

    std::cout << "The application stopped responding for "
              << toMs(instance.duration()) << "ms (paper: ~4.73s).\n\n";
    std::cout << dumpStream(corpus, handles.stream, 40) << "\n";

    // Mine against a healthy reference run.
    {
        SimKernel sim(corpus, "reference-machine");
        const auto scn = sim.scenario("AppNonResponsive");
        sim.spawnThread({actPush(sim.frame("app.exe!UI")),
                         actBeginInstance(scn), actCompute(fromMs(60)),
                         actEndInstance(), actPop()});
        sim.run();
    }

    EagerSource analyzer_source(corpus);

    Analyzer analyzer(analyzer_source);
    const ScenarioAnalysis analysis = analyzer.analyzeScenario(
        "AppNonResponsive", fromMs(350), fromMs(700));

    std::cout << "mined contrast patterns ("
              << analysis.mining->patterns.size() << "):\n";
    const SymbolTable &sym = corpus.symbols();
    for (const ContrastPattern &p : analysis.mining->patterns) {
        std::cout << p.tuple.render(sym) << "impact="
                  << toMs(static_cast<DurationNs>(p.impact()))
                  << "ms\n\n";
    }

    std::cout << "The graphics.sys + se.sys combination in one pattern "
                 "is the hint: a driver that should never do disk I/O "
                 "is waiting on the storage stack — a hard fault. "
                 "Advice (paper): minimize pageable memory in device "
                 "drivers.\n";
    return 0;
}
