/**
 * @file
 * Self-contained HTML rendering of the consolidated report; scenario
 * analyses are computed via the Analyzer's parallel fan-out.
 */

#include "src/core/htmlreport.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/mining/knowledge.h"
#include "src/trace/validate.h"
#include "src/util/logging.h"
#include "src/util/table.h"
#include "src/util/telemetry.h"

namespace tracelens
{

namespace
{

std::string
escape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '&':
            out += "&amp;";
            break;
          case '<':
            out += "&lt;";
            break;
          case '>':
            out += "&gt;";
            break;
          case '"':
            out += "&quot;";
            break;
          default:
            out += c;
        }
    }
    return out;
}

const char *kStyle = R"css(
body { font-family: -apple-system, "Segoe UI", sans-serif; margin: 2em;
       color: #1a1a2e; max-width: 70em; }
h1 { border-bottom: 3px solid #4361ee; padding-bottom: 0.2em; }
h2 { color: #3a0ca3; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #cbd5e1; padding: 0.3em 0.7em;
         text-align: left; font-size: 0.92em; }
th { background: #eef2ff; }
code, .sig { font-family: ui-monospace, Consolas, monospace;
             font-size: 0.9em; }
.metric { display: inline-block; background: #eef2ff; margin: 0.2em;
          padding: 0.4em 0.8em; border-radius: 6px; }
.metric b { color: #4361ee; }
details { margin: 0.3em 0 0.3em 1em; }
summary { cursor: pointer; }
.pattern { background: #f8fafc; border-left: 4px solid #4361ee;
           margin: 0.6em 0; padding: 0.5em 0.9em; }
.hi { border-left-color: #e63946; }
.muted { color: #64748b; font-size: 0.88em; }
)css";

/** Recursively render an AWG subtree as nested <details>. */
void
renderAwgNode(std::ostringstream &html, const AggregatedWaitGraph &awg,
              const SymbolTable &symbols, std::uint32_t id, int depth,
              int max_depth)
{
    const auto &node = awg.node(id);
    std::ostringstream label;
    auto name = [&](FrameId f) {
        return f == kNoFrame ? std::string("&lt;other&gt;")
                             : escape(symbols.frameName(f));
    };
    switch (node.key.status) {
      case AwgStatus::Waiting:
        label << name(node.key.primary) << " &larr; "
              << name(node.key.secondary) << " (waiting)";
        break;
      case AwgStatus::Running:
        label << name(node.key.primary) << " (running)";
        break;
      case AwgStatus::Hardware:
        label << name(node.key.primary) << " (hardware)";
        break;
    }
    label << " <span class=muted>C=" << TextTable::num(toMs(node.cost))
          << "ms N=" << node.count << "</span>";

    if (node.children.empty() || depth >= max_depth) {
        html << "<div class=sig>" << label.str() << "</div>\n";
        return;
    }
    html << "<details" << (depth == 0 ? " open" : "") << "><summary "
         << "class=sig>" << label.str() << "</summary>\n";
    for (std::uint32_t child : node.children)
        renderAwgNode(html, awg, symbols, child, depth + 1, max_depth);
    html << "</details>\n";
}

} // namespace

std::string
buildHtmlReport(const Analyzer &analyzer,
                std::span<const ScenarioThresholds> scenarios,
                const ReportOptions &options)
{
    const TraceCorpus &corpus = analyzer.corpus();
    std::ostringstream html;

    html << "<!doctype html><html><head><meta charset=\"utf-8\">"
         << "<title>TraceLens report</title><style>" << kStyle
         << "</style></head><body>\n";
    html << "<h1>TraceLens report</h1>\n";

    html << "<p class=muted>" << corpus.streamCount() << " streams, "
         << corpus.instances().size() << " scenario instances, "
         << corpus.totalEvents() << " events. Validation: "
         << escape(validateCorpus(corpus).render()) << "</p>\n";

    const ImpactResult impact = analyzer.impactAll();
    html << "<h2>Impact analysis (all scenarios)</h2>\n";
    html << "<div><span class=metric>IA_wait <b>"
         << TextTable::pct(impact.iaWait()) << "</b></span>"
         << "<span class=metric>IA_run <b>"
         << TextTable::pct(impact.iaRun()) << "</b></span>"
         << "<span class=metric>IA_opt <b>"
         << TextTable::pct(impact.iaOpt()) << "</b></span>"
         << "<span class=metric>D<sub>wait</sub>/D<sub>waitdist</sub> "
         << "<b>" << TextTable::num(impact.waitAmplification(), 2)
         << "</b></span></div>\n";

    html << "<h2>Impact by component</h2>\n<table><tr><th>Component"
         << "</th><th>Wait</th><th>Run</th><th>Waits</th></tr>\n";
    const auto by_component = analyzer.impactByComponent();
    for (std::size_t i = 0;
         i < std::min(options.topComponents, by_component.size());
         ++i) {
        const ComponentImpact &c = by_component[i];
        html << "<tr><td class=sig>" << escape(c.component)
             << "</td><td>" << TextTable::ms(toMs(c.wait))
             << "</td><td>" << TextTable::ms(toMs(c.run))
             << "</td><td>" << c.waitEvents << "</td></tr>\n";
    }
    html << "</table>\n";

    // Fan the scenario analyses out in parallel, render in order.
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
        html << "<h2>Scenario " << escape(scenario.name)
             << " <span class=muted>(T_fast="
             << toMs(scenario.tFast) << "ms, T_slow="
             << toMs(scenario.tSlow) << "ms)</span></h2>\n";
        if (corpus.findScenario(scenario.name) == UINT32_MAX) {
            html << "<p class=muted>not present in this corpus</p>\n";
            continue;
        }
        const ScenarioAnalysis &analysis = analyses[next_present++];
        html << "<p>" << analysis.classes.fast.size() << " fast / "
             << analysis.classes.middle.size() << " middle / "
             << analysis.classes.slow.size() << " slow instances; "
             << escape(analysis.coverage.render())
             << "; non-optimizable "
             << TextTable::pct(analysis.nonOptimizableShare())
             << "</p>\n";

        std::vector<ContrastPattern> patterns =
            analysis.mining->patterns;
        if (options.applyKnowledgeFilter) {
            FilteredMiningResult filtered =
                knowledge.apply(*analysis.mining, corpus.symbols());
            if (!filtered.suppressed.empty()) {
                html << "<p class=muted>"
                     << filtered.suppressed.size()
                     << " pattern(s) suppressed as by-design ("
                     << escape(filtered.suppressed.front().reason)
                     << ")</p>\n";
            }
            patterns = std::move(filtered.kept);
        }

        const std::size_t top =
            std::min(options.topPatterns, patterns.size());
        for (std::size_t i = 0; i < top; ++i) {
            const ContrastPattern &p = patterns[i];
            const bool high = p.highImpact(scenario.tSlow);
            html << "<div class=\"pattern" << (high ? " hi" : "")
                 << "\"><b>#" << i + 1 << "</b> impact "
                 << toMs(static_cast<DurationNs>(p.impact()))
                 << "ms, N=" << p.count
                 << (high ? " <b>[high-impact]</b>" : "") << "<br>"
                 << "<span class=sig>"
                 << escape(p.tuple.renderCompact(corpus.symbols()))
                 << "</span></div>\n";
        }

        const AggregatedWaitGraph awgSlow =
            analyzer
                .scenarioAwgs(scenario.name, scenario.tFast,
                              scenario.tSlow)
                .slow;
        if (!awgSlow.empty()) {
            html << "<details><summary>slow-class Aggregated Wait "
                 << "Graph (heaviest roots)</summary>\n";
            // Heaviest three roots, each to limited depth.
            std::vector<std::uint32_t> roots(awgSlow.roots().begin(),
                                             awgSlow.roots().end());
            std::sort(roots.begin(), roots.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                          return awgSlow.node(a).cost >
                                 awgSlow.node(b).cost;
                      });
            for (std::size_t r = 0; r < std::min<std::size_t>(
                                            3, roots.size());
                 ++r) {
                renderAwgNode(html, awgSlow, corpus.symbols(), roots[r],
                              0, 6);
            }
            html << "</details>\n";
        }
    }

    html << "<hr><p class=muted>Generated by TraceLens (reproduction "
         << "of Yu et al., ASPLOS'14).</p></body></html>\n";
    return html.str();
}

void
writeHtmlReportFile(const Analyzer &analyzer,
                    std::span<const ScenarioThresholds> scenarios,
                    const std::string &path,
                    const ReportOptions &options)
{
    Span span("report.html", "analysis");
    if (span.active())
        span.arg("path", path);

    std::ofstream out(path);
    if (!out)
        TL_FATAL("cannot open '", path, "' for writing");
    out << buildHtmlReport(analyzer, scenarios, options);
    if (!out)
        TL_FATAL("write to '", path, "' failed");
}

} // namespace tracelens
