/**
 * @file
 * Text-report assembly: analyses fan out in parallel via
 * Analyzer::analyzeScenarios, rendering stays serial and ordered.
 */

#include "src/core/report.h"

#include <sstream>

#include "src/trace/validate.h"
#include "src/util/table.h"
#include "src/util/telemetry.h"

namespace tracelens
{

std::string
buildReport(const Analyzer &analyzer,
            std::span<const ScenarioThresholds> scenarios,
            const ReportOptions &options)
{
    Span span("report.build", "analysis");
    if (span.active())
        span.arg("scenarios",
                 static_cast<std::uint64_t>(scenarios.size()));

    const TraceCorpus &corpus = analyzer.corpus();
    std::ostringstream oss;

    oss << "==================== TraceLens report ===================\n";
    oss << "corpus: " << corpus.streamCount() << " streams, "
        << corpus.instances().size() << " scenario instances, "
        << corpus.totalEvents() << " events\n";
    oss << "validation: " << validateCorpus(corpus).render() << "\n";
    oss << "components: ";
    for (const auto &p : analyzer.components().patterns())
        oss << p << " ";
    oss << "\n\n";

    oss << "---- impact analysis (all scenarios) ----\n";
    oss << analyzer.impactAll().render() << "\n\n";

    oss << "---- impact by component ----\n";
    const auto by_component = analyzer.impactByComponent();
    TextTable component_table({"Component", "Wait", "Run", "Waits"});
    for (std::size_t i = 0;
         i < std::min(options.topComponents, by_component.size());
         ++i) {
        const ComponentImpact &c = by_component[i];
        component_table.addRow({c.component,
                                TextTable::ms(toMs(c.wait)),
                                TextTable::ms(toMs(c.run)),
                                std::to_string(c.waitEvents)});
    }
    oss << component_table.render() << "\n";

    // Analyze every present scenario concurrently, then render the
    // results in input order.
    std::vector<ScenarioThresholds> present;
    for (const ScenarioThresholds &scenario : scenarios) {
        if (corpus.findScenario(scenario.name) != UINT32_MAX)
            present.push_back(scenario);
    }
    const std::vector<ScenarioAnalysis> analyses =
        analyzer.analyzeScenarios(present);

    const KnowledgeBase knowledge = KnowledgeBase::defaults();
    std::size_t next_present = 0;
    for (const ScenarioThresholds &scenario : scenarios) {
        oss << "---- scenario " << scenario.name << " (T_fast="
            << toMs(scenario.tFast) << "ms, T_slow="
            << toMs(scenario.tSlow) << "ms) ----\n";
        if (corpus.findScenario(scenario.name) == UINT32_MAX) {
            oss << "not present in this corpus\n\n";
            continue;
        }
        const ScenarioAnalysis &analysis = analyses[next_present++];
        oss << "classes: " << analysis.classes.fast.size() << " fast / "
            << analysis.classes.middle.size() << " middle / "
            << analysis.classes.slow.size() << " slow\n";
        oss << "slow-class impact: " << analysis.slowImpact.render()
            << "\n";
        oss << "coverage: " << analysis.coverage.render() << "\n";
        oss << "non-optimizable (direct hardware) share: "
            << TextTable::pct(analysis.nonOptimizableShare()) << "\n";

        std::vector<ContrastPattern> patterns =
            analysis.mining->patterns;
        if (options.applyKnowledgeFilter) {
            FilteredMiningResult filtered =
                knowledge.apply(*analysis.mining, corpus.symbols());
            if (!filtered.suppressed.empty()) {
                oss << filtered.suppressed.size()
                    << " pattern(s) suppressed as by-design ("
                    << filtered.suppressed.front().reason << ")\n";
            }
            patterns = std::move(filtered.kept);
        }

        const std::size_t top =
            std::min(options.topPatterns, patterns.size());
        for (std::size_t i = 0; i < top; ++i) {
            const ContrastPattern &p = patterns[i];
            oss << "#" << i + 1 << " impact="
                << toMs(static_cast<DurationNs>(p.impact()))
                << "ms N=" << p.count
                << (p.highImpact(scenario.tSlow) ? " [high-impact]"
                                                 : "")
                << "\n"
                << p.tuple.render(corpus.symbols());
        }
        oss << "\n";
    }
    return oss.str();
}

} // namespace tracelens
