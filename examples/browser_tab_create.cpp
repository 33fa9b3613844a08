/**
 * @file
 * Case study: the paper's motivating BrowserTabCreate incident
 * (Section 2.2 / Figure 1).
 *
 * A click on "create a new tab" takes over 800 ms because a disk +
 * decryption delay on a system worker propagates through two lock
 * contention regions (the fs.sys MDU lock, then the fv.sys FileTable
 * lock) and two driver-stack dependencies up to the browser UI thread.
 *
 * The example rebuilds the incident deterministically and shows how a
 * performance analyst would explore it with TraceLens: raw trace →
 * wait graph → mined pattern.
 *
 * Build & run:  ./build/examples/example_browser_tab_create
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
    const CaseHandles handles = buildMotivatingExample(corpus);
    const ScenarioInstance &instance =
        corpus.instances()[handles.instance];

    std::cout << "The user clicked 'create a new tab'. The tab "
                 "appeared after "
              << toMs(instance.duration()) << "ms.\n\n";

    std::cout << "Step 1 — the raw trace shows six threads and three "
                 "drivers:\n"
              << dumpStream(corpus, handles.stream, 40) << "\n";

    std::cout << "Step 2 — the UI instance's wait graph connects the "
                 "delay to its root cause:\n";
    WaitGraphBuilder builder(corpus);
    const WaitGraph graph = builder.build(instance);
    const SymbolTable &sym = corpus.symbols();
    NameFilter drivers({"*.sys"});
    for (std::uint32_t root : graph.roots()) {
        std::uint32_t current = root;
        if (graph.node(root).event.type != EventType::Wait)
            continue;
        int depth = 0;
        while (current != kInvalidIndex) {
            const auto &node = graph.node(current);
            std::cout << std::string(
                             static_cast<std::size_t>(depth) * 2, ' ')
                      << eventTypeName(node.event.type) << " tid="
                      << node.event.tid << " ("
                      << toMs(node.event.cost) << "ms)";
            if (node.event.stack != kNoCallstack) {
                const FrameId top =
                    sym.topMatchingFrame(node.event.stack, drivers);
                if (top != kNoFrame)
                    std::cout << " in " << sym.frameName(top);
            }
            std::cout << "\n";
            std::uint32_t heaviest = kInvalidIndex;
            DurationNs best = -1;
            for (std::uint32_t child : graph.children(node)) {
                if (graph.node(child).event.cost > best) {
                    best = graph.node(child).event.cost;
                    heaviest = child;
                }
            }
            current = heaviest;
            ++depth;
        }
    }

    // A fast reference instance so the miner has a contrast class.
    {
        SimKernel sim(corpus, "reference-machine");
        const auto scn = sim.scenario("BrowserTabCreate");
        sim.spawnThread({actPush(sim.frame("browser.exe!TabCreate")),
                         actBeginInstance(scn), actCompute(fromMs(40)),
                         actEndInstance(), actPop()});
        sim.run();
    }

    std::cout << "\nStep 3 — causality analysis distils the incident "
                 "into one actionable pattern:\n";
    EagerSource analyzer_source(corpus);
    Analyzer analyzer(analyzer_source);
    const ScenarioAnalysis analysis = analyzer.analyzeScenario(
        "BrowserTabCreate", fromMs(300), fromMs(500));
    if (!analysis.mining->patterns.empty()) {
        std::cout << analysis.mining->patterns[0].tuple.render(sym)
                  << "\nReading: the cost of the running signatures "
                     "propagates through the unwait signatures to the "
                     "wait signatures. Reducing lock granularity in "
                     "the filter/FS drivers alleviates the problem "
                     "(the paper's conclusion).\n";
    }
    return 0;
}
