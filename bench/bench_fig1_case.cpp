/**
 * @file
 * Figure 1 reproduction: the motivating BrowserTabCreate incident —
 * six threads, three drivers, two lock-contention regions connected by
 * hierarchical dependencies, propagating a disk+decrypt delay to the
 * browser UI thread.
 *
 * The bench rebuilds the incident deterministically, prints the
 * thread-level event snapshot, walks the UI instance's Wait Graph
 * along the propagation chain (the paper's arrows (1)-(6)), and mines
 * the Signature Set Tuple the paper quotes in Section 2.3.
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

    std::cout << "== Figure 1: cost propagation across fv.sys / fs.sys "
                 "/ se.sys ==\n\n";

    TraceCorpus corpus;
    const CaseHandles handles = buildMotivatingExample(corpus);
    const ScenarioInstance &instance =
        corpus.instances()[handles.instance];

    std::cout << "scenario " << corpus.scenarioName(instance.scenario)
              << " instance on thread " << instance.tid << " took "
              << toMs(instance.duration())
              << "ms (paper: over 800ms)\n\n";

    std::cout << "--- trace snapshot ---\n"
              << dumpStream(corpus, handles.stream, 60) << "\n";

    // Walk the propagation chain in the UI instance's wait graph.
    WaitGraphBuilder builder(corpus);
    const WaitGraph graph = builder.build(instance);
    const SymbolTable &sym = corpus.symbols();
    NameFilter drivers({"*.sys"});

    std::cout << "--- propagation chain (from the UI thread's wait) "
                 "---\n";
    std::uint32_t current = kInvalidIndex;
    for (std::uint32_t root : graph.roots()) {
        if (graph.node(root).event.type == EventType::Wait) {
            current = root;
            break;
        }
    }
    int hop = 0;
    while (current != kInvalidIndex) {
        const WaitGraph::Node &node = graph.node(current);
        const Event &e = node.event;
        std::cout << "  hop " << hop++ << ": "
                  << eventTypeName(e.type) << " tid=" << e.tid
                  << " cost=" << toMs(e.cost) << "ms";
        if (e.stack != kNoCallstack) {
            const FrameId top = sym.topMatchingFrame(e.stack, drivers);
            if (top != kNoFrame)
                std::cout << " sig=" << sym.frameName(top);
        }
        std::cout << "\n";
        // Follow the heaviest child (the dominant propagation edge).
        std::uint32_t next = kInvalidIndex;
        DurationNs best = -1;
        for (std::uint32_t child : graph.children(node)) {
            if (graph.node(child).event.cost > best) {
                best = graph.node(child).event.cost;
                next = child;
            }
        }
        current = next;
    }

    // Mine the pattern against a trivially fast instance.
    {
        SimKernel sim(corpus, "fast-machine");
        const auto scn = sim.scenario("BrowserTabCreate");
        sim.spawnThread({actPush(sim.frame("browser.exe!TabCreate")),
                         actBeginInstance(scn), actCompute(fromMs(40)),
                         actEndInstance(), actPop()});
        sim.run();
    }
    EagerSource analyzer_source(corpus);
    Analyzer analyzer(analyzer_source);
    const ScenarioAnalysis analysis = analyzer.analyzeScenario(
        "BrowserTabCreate", fromMs(300), fromMs(500));

    std::cout << "\n--- top mined contrast pattern (paper Section 2.3) "
                 "---\n";
    if (analysis.mining->patterns.empty()) {
        std::cout << "no patterns (unexpected)\n";
        return 1;
    }
    const ContrastPattern &top = analysis.mining->patterns[0];
    std::cout << top.tuple.render(sym);
    std::cout << "impact (P.C/P.N) = "
              << toMs(static_cast<DurationNs>(top.impact()))
              << "ms, high-impact (one execution > T_slow): "
              << (top.highImpact(fromMs(500)) ? "yes" : "no") << "\n";
    std::cout << "\n(paper pattern: waits {fv.sys!QueryFileTable, "
                 "fs.sys!AcquireMDU}, unwaits {fv.sys!QueryFileTable, "
                 "fs.sys!AcquireMDU}, runnings {se.sys!ReadDecrypt, "
                 "DiskService})\n";
    return 0;
}
