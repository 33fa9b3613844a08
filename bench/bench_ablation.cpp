/**
 * @file
 * Ablations of the design choices DESIGN.md calls out:
 *
 *  1. Segment bound k (paper uses 5): sweep k = 1..7 and report
 *     meta-pattern counts, discovered patterns, coverage, and time.
 *  2. ReduceAWG on/off: graph size and pattern-count effect of
 *     removing non-optimizable hardware structures.
 *  3. Meta-pattern gate on/off: how much the contrast gate narrows the
 *     full-path pattern set versus emitting every slow path.
 *
 * Usage: bench_ablation [machines] [seed]
 */

#include <chrono>
#include <set>
#include <cstdlib>
#include <iostream>

#include "src/core/analyzer.h"
#include "src/workload/motivating.h"
#include "src/util/table.h"
#include "src/workload/generator.h"

namespace
{

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tracelens;

    CorpusSpec spec;
    spec.machines = argc > 1 ? static_cast<std::uint32_t>(
                                   std::atoi(argv[1]))
                             : 120;
    if (argc > 2)
        spec.seed = static_cast<std::uint64_t>(std::atoll(argv[2]));
    spec.onlyScenarios = {"BrowserTabCreate"};

    const TraceCorpus corpus = generateCorpus(spec);
    const ScenarioSpec &scn = scenarioByName("BrowserTabCreate");

    std::cout << "== Ablation 1: segment bound k ==\n";
    {
        TextTable table({"k", "metas(slow)", "contrasts", "#patterns",
                         "TTC", "mine-ms"});
        for (std::uint32_t k = 1; k <= 7; ++k) {
            AnalyzerConfig config;
            config.maxSegmentLength = k;
            EagerSource analyzer_source(corpus);
            Analyzer analyzer(analyzer_source, config);
            const auto start = std::chrono::steady_clock::now();
            const ScenarioAnalysis analysis = analyzer.analyzeScenario(
                scn.name, scn.tFast, scn.tSlow);
            const double elapsed = millisSince(start);
            table.addRow(
                {std::to_string(k),
                 std::to_string(analysis.mining->stats.slowMetaPatterns),
                 std::to_string(
                     analysis.mining->stats.slowOnlyContrasts +
                     analysis.mining->stats.ratioContrasts),
                 std::to_string(analysis.mining->patterns.size()),
                 TextTable::pct(analysis.coverage.ttc()),
                 TextTable::num(elapsed, 1)});
        }
        std::cout << table.render()
                  << "(expect pattern discovery to saturate at small k "
                     "while cost grows)\n\n";
    }

    std::cout << "== Ablation 2: non-optimizable reduction ==\n";
    {
        TextTable table({"ReduceAWG", "reduced-ms", "roots", "#patterns",
                         "TTC"});
        for (bool reduce : {true, false}) {
            AnalyzerConfig config;
            config.awg.reduceNonOptimizable = reduce;
            EagerSource analyzer_source(corpus);
            Analyzer analyzer(analyzer_source, config);
            const ScenarioAnalysis analysis = analyzer.analyzeScenario(
                scn.name, scn.tFast, scn.tSlow);
            const AggregatedWaitGraph awgSlow =
                analyzer.scenarioAwgs(scn.name, scn.tFast, scn.tSlow).slow;
            table.addRow(
                {reduce ? "on" : "off",
                 TextTable::num(toMs(awgSlow.reducedCost()), 1),
                 std::to_string(awgSlow.roots().size()),
                 std::to_string(analysis.mining->patterns.size()),
                 TextTable::pct(analysis.coverage.ttc())});
        }
        std::cout << table.render()
                  << "(off keeps pure-hardware structures that "
                     "developers cannot optimize)\n\n";
    }

    std::cout << "== Ablation 3: meta-pattern contrast gate ==\n";
    {
        TextTable table({"gate", "#patterns", "selected/full paths"});
        for (bool gate : {true, false}) {
            AnalyzerConfig config;
            config.useMetaPatternGate = gate;
            EagerSource analyzer_source(corpus);
            Analyzer analyzer(analyzer_source, config);
            const ScenarioAnalysis analysis = analyzer.analyzeScenario(
                scn.name, scn.tFast, scn.tSlow);
            table.addRow(
                {gate ? "on" : "off",
                 std::to_string(analysis.mining->patterns.size()),
                 std::to_string(analysis.mining->stats.selectedPaths) +
                     "/" +
                     std::to_string(analysis.mining->stats.fullPaths)});
        }
        std::cout << table.render()
                  << "(the gate excludes non-contrast paths, the "
                     "paper's third enumeration rationale)\n";
    }

    std::cout << "\n== Ablation 5: wait-graph child semantics "
                 "(overlap vs containment) ==\n";
    {
        // On the deterministic Figure-1 incident: containment-only
        // semantics sever the lock-queue chain entirely.
        TraceCorpus fig1;
        buildMotivatingExample(fig1);
        TextTable table({"semantics", "graph nodes", "drivers on "
                                                     "chain"});
        for (bool containment : {false, true}) {
            WaitGraphOptions options;
            options.containmentOnly = containment;
            WaitGraphBuilder builder(fig1, options);
            const WaitGraph graph =
                builder.build(fig1.instances()[0]);
            std::set<std::string> modules;
            NameFilter drivers({"*.sys"});
            for (const auto &node : graph.nodes()) {
                if (node.event.stack == kNoCallstack)
                    continue;
                const FrameId top = fig1.symbols().topMatchingFrame(
                    node.event.stack, drivers);
                if (top != kNoFrame)
                    modules.insert(
                        fig1.symbols().componentName(top));
            }
            table.addRow({containment ? "containment" : "overlap",
                          std::to_string(graph.size()),
                          std::to_string(modules.size())});
        }
        std::cout << table.render()
                  << "(containment loses the fv->fs->se chain: lock-"
                     "queue waits start before their parent's wait)\n";
    }

    std::cout << "\n== Ablation 6: window-clipped cost attribution "
                 "==\n";
    {
        TextTable table({"clipping", "sum of graph costs",
                         "sum of instance durations"});
        for (bool clip : {true, false}) {
            WaitGraphOptions options;
            options.clipToWindows = clip;
            WaitGraphBuilder builder(corpus, options);
            const auto graphs = builder.buildAll();
            DurationNs graph_cost = 0, durations = 0;
            for (const WaitGraph &g : graphs) {
                for (const auto &node : g.nodes())
                    graph_cost += node.event.cost;
                durations += g.instance().duration();
            }
            table.addRow({clip ? "on" : "off",
                          TextTable::num(toMs(graph_cost), 0) + "ms",
                          TextTable::num(toMs(durations), 0) + "ms"});
        }
        std::cout << table.render()
                  << "(unclipped, lock-queue tails attribute seconds "
                     "of unrelated history to short waits)\n";
    }

    std::cout << "\n== Ablation 4: inner irrelevant-node elimination "
                 "==\n";
    {
        TextTable table({"inner-elim", "AWG nodes", "#patterns"});
        for (bool inner : {true, false}) {
            AnalyzerConfig config;
            config.awg.eliminateInnerIrrelevant = inner;
            EagerSource analyzer_source(corpus);
            Analyzer analyzer(analyzer_source, config);
            const ScenarioAnalysis analysis = analyzer.analyzeScenario(
                scn.name, scn.tFast, scn.tSlow);
            table.addRow(
                {inner ? "on" : "off",
                 std::to_string(analyzer
                                    .scenarioAwgs(scn.name, scn.tFast,
                                                  scn.tSlow)
                                    .slow.nodes()
                                    .size()),
                 std::to_string(analysis.mining->patterns.size())});
        }
        std::cout << table.render()
                  << "(keeping kernel-only hops inflates the graph "
                     "with <other> signatures)\n";
    }
    return 0;
}
