/**
 * @file
 * Environmental cohort study: quantify the paper's qualitative
 * observations about machine environments —
 *
 *  - storage encryption worsens driver waiting ("if the system also
 *    enables storage encryption, the situation could become worse",
 *    Section 5.2.4 observation 1);
 *  - HDDs amplify the storage-stack propagation relative to SSDs;
 *  - loaded ("stressed") machines show higher propagated waiting.
 *
 * Usage: bench_cohorts [machines] [seed]
 */

#include <cstdlib>
#include <iostream>

#include "src/core/analyzer.h"
#include "src/impact/cohorts.h"
#include "src/util/table.h"
#include "src/workload/generator.h"

int
main(int argc, char **argv)
{
    using namespace tracelens;

    CorpusSpec spec;
    spec.machines = argc > 1 ? static_cast<std::uint32_t>(
                                   std::atoi(argv[1]))
                             : 300;
    if (argc > 2)
        spec.seed = static_cast<std::uint64_t>(std::atoll(argv[2]));

    std::cout << "== Environmental cohorts (impact split by machine "
                 "tags) ==\n";
    const TraceCorpus corpus = generateCorpus(spec);
    // Built once: every tag's split reads the same graphs.
    const std::vector<WaitGraph> graphs =
        WaitGraphBuilder(corpus).buildAll();
    const NameFilter components(AnalyzerConfig{}.components);

    for (const std::string tag :
         {"encrypted", "disk", "stressed", "diskProtection"}) {
        TextTable table({"cohort(" + tag + ")", "Instances",
                         "IA_wait", "IA_opt", "Dw/Dwd",
                         "mean duration"});
        for (const CohortImpact &cohort :
             impactByCohort(corpus, graphs, components, tag)) {
            table.addRow(
                {cohort.value,
                 std::to_string(cohort.impact.instances),
                 TextTable::pct(cohort.impact.iaWait()),
                 TextTable::pct(cohort.impact.iaOpt()),
                 TextTable::num(cohort.impact.waitAmplification(), 2),
                 TextTable::ms(cohort.meanDurationMs, 0)});
        }
        std::cout << table.render() << "\n";
    }

    std::cout << "(expect: encrypted=1, disk=hdd, and stressed=1 "
                 "cohorts show higher IA_wait / durations than their "
                 "counterparts)\n";
    return 0;
}
