/**
 * @file
 * Quickstart: the whole TraceLens pipeline in one page.
 *
 *  1. Synthesize a small fleet of machines (stand-in for real ETW
 *     trace streams).
 *  2. Impact analysis: how much do device drivers cost the system?
 *  3. Causality analysis: which driver behaviours cause the slow
 *     BrowserTabCreate instances?
 *
 * Build & run:  ./build/examples/example_quickstart
 */

#include <iostream>

#include "src/core/analyzer.h"
#include "src/workload/generator.h"

int
main()
{
    using namespace tracelens;

    // 1. A corpus of simulated machines, each tracing several
    //    concurrent scenario instances plus background load.
    CorpusSpec spec;
    spec.machines = 80;
    spec.seed = 7;
    const TraceCorpus corpus = generateCorpus(spec);
    std::cout << "corpus: " << corpus.streamCount() << " streams, "
              << corpus.instances().size() << " instances, "
              << corpus.totalEvents() << " events\n\n";

    // 2. Impact analysis over all instances, components = all drivers.
    EagerSource analyzer_source(corpus);
    Analyzer analyzer(analyzer_source); // default filter: {"*.sys"}
    const ImpactResult impact = analyzer.impactAll();
    std::cout << "impact analysis (all scenarios):\n  "
              << impact.render() << "\n\n";

    // 3. Causality analysis for one scenario. Thresholds are the
    //    developer-specified performance expectations.
    const ScenarioAnalysis analysis = analyzer.analyzeScenario(
        "BrowserTabCreate", fromMs(300), fromMs(500));
    std::cout << "BrowserTabCreate: "
              << analysis.classes.fast.size() << " fast / "
              << analysis.classes.slow.size() << " slow instances; "
              << analysis.mining->patterns.size()
              << " contrast patterns\n";
    std::cout << "coverage: " << analysis.coverage.render() << "\n\n";

    const std::size_t top_n =
        std::min<std::size_t>(3, analysis.mining->patterns.size());
    for (std::size_t i = 0; i < top_n; ++i) {
        const ContrastPattern &p = analysis.mining->patterns[i];
        std::cout << "--- pattern " << i + 1 << " (impact "
                  << toMs(static_cast<DurationNs>(p.impact()))
                  << "ms, N=" << p.count << ") ---\n"
                  << p.tuple.render(corpus.symbols());
    }
    return 0;
}
