/**
 * @file
 * Table 3 reproduction: number of discovered contrast patterns per
 * scenario and the execution-time coverage of the top 10 % / 20 % /
 * 30 % patterns under the impact ranking.
 *
 * Paper averages: 2,822 patterns; top 10 % covers 47.9 %, top 20 %
 * covers 80.1 %, top 30 % covers 95.9 % — i.e. inspecting a small
 * ranked prefix covers most of the pattern time.
 *
 * Usage: bench_table3_ranking [machines] [seed]
 */

#include <cstdlib>
#include <iostream>

#include "src/core/analyzer.h"
#include "src/util/table.h"
#include "src/workload/generator.h"

int
main(int argc, char **argv)
{
    using namespace tracelens;

    CorpusSpec spec;
    spec.machines = argc > 1 ? static_cast<std::uint32_t>(
                                   std::atoi(argv[1]))
                             : 250;
    if (argc > 2)
        spec.seed = static_cast<std::uint64_t>(std::atoll(argv[2]));

    std::cout << "== Table 3: coverages by ranking ==\n";
    const TraceCorpus corpus = generateCorpus(spec);
    EagerSource analyzer_source(corpus);
    Analyzer analyzer(analyzer_source);

    TextTable table({"Scenario", "#Patterns", "10%", "20%", "30%"});
    double c10 = 0, c20 = 0, c30 = 0;
    std::size_t patterns = 0;
    int rows = 0;
    for (const ScenarioSpec &scn : scenarioCatalog()) {
        if (!scn.selected)
            continue;
        const ScenarioAnalysis analysis = analyzer.analyzeScenario(
            scn.name, scn.tFast, scn.tSlow);
        const double p10 = topPatternCoverage(*analysis.mining, 0.10);
        const double p20 = topPatternCoverage(*analysis.mining, 0.20);
        const double p30 = topPatternCoverage(*analysis.mining, 0.30);
        table.addRow({scn.name,
                      std::to_string(analysis.mining->patterns.size()),
                      TextTable::pct(p10), TextTable::pct(p20),
                      TextTable::pct(p30)});
        c10 += p10;
        c20 += p20;
        c30 += p30;
        patterns += analysis.mining->patterns.size();
        ++rows;
    }
    if (rows > 0) {
        table.addRow({"Average",
                      std::to_string(patterns / static_cast<std::size_t>(
                                         rows)),
                      TextTable::pct(c10 / rows),
                      TextTable::pct(c20 / rows),
                      TextTable::pct(c30 / rows)});
    }
    std::cout << table.render();
    std::cout << "\n(paper averages: 2822 patterns; 47.9% / 80.1% / "
                 "95.9%; expect steeply concentrated coverage)\n";
    return 0;
}
