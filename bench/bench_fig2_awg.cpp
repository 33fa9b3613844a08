/**
 * @file
 * Figure 2 reproduction: the Aggregated Wait Graph of the slow
 * BrowserTabCreate class, showing the aggregated propagation path from
 * the disk hardware service through se.sys and fs.sys up to fv.sys.
 *
 * Prints both the indented text form and Graphviz DOT (pipe to `dot
 * -Tsvg` to render).
 *
 * Usage: bench_fig2_awg [machines] [seed]
 */

#include <cstdlib>
#include <iostream>

#include "src/core/analyzer.h"
#include "src/workload/generator.h"
#include "src/workload/motivating.h"

int
main(int argc, char **argv)
{
    using namespace tracelens;

    CorpusSpec spec;
    spec.machines = argc > 1 ? static_cast<std::uint32_t>(
                                   std::atoi(argv[1]))
                             : 60;
    if (argc > 2)
        spec.seed = static_cast<std::uint64_t>(std::atoll(argv[2]));
    spec.onlyScenarios = {"BrowserTabCreate"};

    std::cout << "== Figure 2: Aggregated Wait Graph for device "
                 "drivers (BrowserTabCreate, slow class) ==\n\n";

    TraceCorpus corpus = generateCorpus(spec);
    // Include the deterministic Figure-1 incident so the canonical
    // aggregated path is present.
    buildMotivatingExample(corpus);

    EagerSource analyzer_source(corpus);

    Analyzer analyzer(analyzer_source);
    const AggregatedWaitGraph awgSlow =
        analyzer.scenarioAwgs("BrowserTabCreate", fromMs(300), fromMs(500))
            .slow;

    std::cout << "slow instances aggregated: " << awgSlow.sourceGraphs()
              << "\n";
    std::cout << "non-optimizable (reduced) time: "
              << toMs(awgSlow.reducedCost()) << "ms; kept: "
              << toMs(awgSlow.totalRootCost()) << "ms\n\n";

    std::cout << "--- text form (heaviest subtrees first) ---\n"
              << awgSlow.renderText(corpus.symbols(), 80) << "\n";

    std::cout << "--- DOT form ---\n"
              << awgSlow.renderDot(corpus.symbols(), 120);

    std::cout << "\n(paper figure: an aggregated path DiskService / "
                 "se.sys -> fs.sys!AcquireMDU -> fv.sys!QueryFileTable "
                 "with aggregated waits of the same wait->unwait "
                 "signature pairs)\n";
    return 0;
}
