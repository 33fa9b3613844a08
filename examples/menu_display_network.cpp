/**
 * @file
 * Case study: MenuDisplay and network drivers (paper Section 5.2.4,
 * observation 2).
 *
 * Menus that fetch their items from remote servers on the UI thread
 * inherit the network's latency tail. The example generates a
 * MenuDisplay-heavy corpus, runs the causality analysis, and shows
 * that the mined patterns point at the network driver stack —
 * motivating the paper's advice to fetch asynchronously or prefetch.
 *
 * Build & run:  ./build/examples/example_menu_display_network
 */

#include <iostream>

#include "src/core/analyzer.h"
#include "src/workload/driverzoo.h"
#include "src/workload/generator.h"

int
main()
{
    using namespace tracelens;

    CorpusSpec spec;
    spec.machines = 120;
    spec.seed = 11;
    spec.onlyScenarios = {"MenuDisplay"};
    const TraceCorpus corpus = generateCorpus(spec);

    EagerSource analyzer_source(corpus);

    Analyzer analyzer(analyzer_source);
    const ScenarioSpec &scn = scenarioByName("MenuDisplay");
    const ScenarioAnalysis analysis =
        analyzer.analyzeScenario(scn.name, scn.tFast, scn.tSlow);

    std::cout << "MenuDisplay: " << analysis.classes.fast.size()
              << " fast / " << analysis.classes.slow.size()
              << " slow instances\n";
    std::cout << "slow-class driver cost share: "
              << analysis.driverCostShare() * 100 << "%\n\n";

    const SymbolTable &sym = corpus.symbols();
    const std::size_t top_n =
        std::min<std::size_t>(10, analysis.mining->patterns.size());
    int network_patterns = 0;
    for (std::size_t i = 0; i < top_n; ++i) {
        const auto &tuple = analysis.mining->patterns[i].tuple;
        bool network = false;
        auto scan = [&](const std::vector<FrameId> &frames) {
            for (FrameId f : frames) {
                if (f == kNoFrame)
                    continue;
                const auto type = classifySignature(sym.frameName(f));
                network = network || (type && *type ==
                                                  DriverType::Network);
            }
        };
        scan(tuple.waits);
        scan(tuple.unwaits);
        scan(tuple.runnings);
        network_patterns += network;
        std::cout << "pattern " << i + 1
                  << (network ? " [network]" : "") << ":\n"
                  << tuple.renderCompact(sym) << "\n";
    }
    std::cout << "\n" << network_patterns << " of the top " << top_n
              << " patterns involve network drivers (paper: 7 of "
                 "10).\n";
    std::cout << "Advice: display menus from a prefetched cache or "
                 "fetch asynchronously so that unstable bandwidth "
                 "cannot propagate into the UI.\n";
    return 0;
}
