/**
 * @file
 * RQ3 reproduction: the real-case observations of Section 5.2.4.
 *
 *  1. MenuDisplay is dominated by network drivers (paper: 7 of its
 *     top-10 patterns contain network drivers).
 *  2. Hard faults create subtle cross-driver interactions: a
 *     graphics.sys routine faulting on pageable memory drags in
 *     fs.sys/se.sys and freezes the UI for ~4.7 s.
 *
 * Usage: bench_rq3_cases [machines] [seed]
 */

#include <cstdlib>
#include <iostream>

#include "src/core/analyzer.h"
#include "src/workload/driverzoo.h"
#include "src/workload/generator.h"
#include "src/workload/motivating.h"

int
main(int argc, char **argv)
{
    using namespace tracelens;

    CorpusSpec spec;
    spec.machines = argc > 1 ? static_cast<std::uint32_t>(
                                   std::atoi(argv[1]))
                             : 150;
    if (argc > 2)
        spec.seed = static_cast<std::uint64_t>(std::atoll(argv[2]));

    std::cout << "== RQ3 case 1: MenuDisplay is network-bound ==\n";
    {
        const TraceCorpus corpus = generateCorpus(spec);
        EagerSource analyzer_source(corpus);
        Analyzer analyzer(analyzer_source);
        const ScenarioSpec &scn = scenarioByName("MenuDisplay");
        const ScenarioAnalysis analysis = analyzer.analyzeScenario(
            scn.name, scn.tFast, scn.tSlow);

        const SymbolTable &sym = corpus.symbols();
        int with_network = 0;
        const std::size_t top_n =
            std::min<std::size_t>(10, analysis.mining->patterns.size());
        for (std::size_t i = 0; i < top_n; ++i) {
            const auto &tuple = analysis.mining->patterns[i].tuple;
            bool network = false;
            auto scan = [&](const std::vector<FrameId> &frames) {
                for (FrameId f : frames) {
                    if (f == kNoFrame)
                        continue;
                    const auto type =
                        classifySignature(sym.frameName(f));
                    network = network ||
                              (type && *type == DriverType::Network);
                }
            };
            scan(tuple.waits);
            scan(tuple.unwaits);
            scan(tuple.runnings);
            with_network += network;
        }
        std::cout << "top-" << top_n << " patterns containing network "
                  << "drivers: " << with_network << " (paper: 7/10)\n";
        if (top_n > 0) {
            std::cout << "\ntop pattern:\n"
                      << analysis.mining->patterns[0].tuple.render(sym);
        }
        std::cout << "advice reproduced: menu items fetched from remote "
                     "servers should be asynchronous/prefetched so "
                     "network instability does not propagate to the "
                     "UI.\n\n";
    }

    std::cout << "== RQ3 case 2: graphics.sys hard fault ==\n";
    {
        TraceCorpus corpus;
        const CaseHandles handles = buildGraphicsHardFaultCase(corpus);
        const ScenarioInstance &instance =
            corpus.instances()[handles.instance];
        std::cout << "AppNonResponsive instance took "
                  << toMs(instance.duration())
                  << "ms (paper: ~4730ms)\n";

        // The wait graph connects graphics.sys -> se.sys -> disk.
        WaitGraphBuilder builder(corpus);
        const WaitGraph graph = builder.build(instance);
        const SymbolTable &sym = corpus.symbols();
        NameFilter drivers({"*.sys"});
        bool saw_graphics = false, saw_se = false, saw_disk = false;
        for (const auto &node : graph.nodes()) {
            const Event &e = node.event;
            if (e.type == EventType::HardwareService) {
                saw_disk = true;
                continue;
            }
            if (e.stack == kNoCallstack)
                continue;
            const FrameId top = sym.topMatchingFrame(e.stack, drivers);
            if (top == kNoFrame)
                continue;
            const std::string &component = sym.componentName(top);
            saw_graphics = saw_graphics || component == "graphics.sys";
            saw_se = saw_se || component == "se.sys";
        }
        std::cout << "chain visible in the wait graph: graphics.sys="
                  << saw_graphics << " se.sys=" << saw_se
                  << " disk=" << saw_disk << " (expect all 1)\n";
        std::cout << "advice reproduced: drivers should minimize "
                     "pageable memory to avoid hard-fault-induced cost "
                     "propagation.\n";
    }
    return 0;
}
