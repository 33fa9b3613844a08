/**
 * @file
 * Output checkers. Each compares what tracelens answered with what
 * the generator knows it produced, or with a property the method
 * must have; none compares against a stored copy of earlier output.
 */

#include <algorithm>
#include <set>
#include <sstream>
#include <tuple>

#include "bench.h"
#include "src/workload/scenarios.h"

using namespace tracelens;

namespace tlbench
{

namespace
{

std::string
tallyText(std::uint64_t fast, std::uint64_t middle, std::uint64_t slow)
{
    return std::to_string(fast) + "/" + std::to_string(middle) + "/" +
           std::to_string(slow);
}

std::uint64_t
member(const JsonValue &object, std::string_view key)
{
    const JsonValue *value = object.find(key);
    return value != nullptr && value->isNumber()
               ? static_cast<std::uint64_t>(value->asNumber())
               : UINT64_MAX;
}

} // namespace

std::string
checkReportTallies(const std::string &report, const Truth &truth)
{
    std::istringstream lines(report);
    std::string line;
    std::string scenario;
    std::set<std::string> seen;
    bool corpusLine = false;
    const std::string header = "---- scenario ";
    while (std::getline(lines, line)) {
        if (line.rfind("corpus: ", 0) == 0) {
            std::istringstream fields(line.substr(8));
            std::uint64_t streams = 0, instances = 0;
            std::string word;
            fields >> streams >> word >> instances;
            if (instances != truth.instances.size())
                return "report counts " + std::to_string(instances) +
                       " instances, the generator made " +
                       std::to_string(truth.instances.size());
            corpusLine = true;
        } else if (line.rfind(header, 0) == 0) {
            const std::size_t end = line.find(' ', header.size());
            scenario = line.substr(header.size(), end - header.size());
        } else if (line.rfind("classes: ", 0) == 0) {
            if (scenario.empty())
                return "classes line outside a scenario section";
            std::istringstream fields(line.substr(9));
            std::uint64_t fast = 0, middle = 0, slow = 0;
            std::string word, slash;
            fields >> fast >> word >> slash >> middle >> word >> slash >>
                slow;
            if (!fields)
                return "unparsable classes line: " + line;
            const ScenarioSpec &spec = scenarioByName(scenario);
            const Tally want =
                countClasses(truth, scenario, spec.tFast, spec.tSlow);
            if (fast != want.fast || middle != want.middle ||
                slow != want.slow)
                return scenario + " classes " +
                       tallyText(fast, middle, slow) + ", generator " +
                       tallyText(want.fast, want.middle, want.slow);
            seen.insert(scenario);
            scenario.clear();
        }
    }
    if (!corpusLine)
        return "report has no corpus line";
    for (const ScenarioSpec *spec : selectedScenarios())
        if (truth.count(spec->name) > 0 && seen.count(spec->name) == 0)
            return "report lacks scenario " + spec->name;
    return {};
}

std::string
checkIdentical(const std::string &what, const std::string &a,
               const std::string &b)
{
    if (a == b)
        return {};
    const auto diff = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
    return what + " differ at byte " +
           std::to_string(diff.first - a.begin()) + " (" +
           std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
           " bytes)";
}

std::string
checkAnswerClasses(const JsonValue &answer, const Truth &truth,
                   const std::string &scenario, double tFastMs,
                   double tSlowMs)
{
    const JsonValue *classes = answer.find("classes");
    if (classes == nullptr || !classes->isObject())
        return scenario + ": answer has no classes";
    const std::uint64_t fast = member(*classes, "fast");
    const std::uint64_t middle = member(*classes, "middle");
    const std::uint64_t slow = member(*classes, "slow");
    const std::uint64_t total = truth.count(scenario);
    if (fast + middle + slow != total)
        return scenario + ": fast+middle+slow = " +
               std::to_string(fast + middle + slow) + ", generator made " +
               std::to_string(total);
    const Tally want =
        countClasses(truth, scenario, fromMs(tFastMs), fromMs(tSlowMs));
    if (fast != want.fast || middle != want.middle || slow != want.slow)
        return scenario + ": classes " + tallyText(fast, middle, slow) +
               ", generator " + tallyText(want.fast, want.middle, want.slow);
    return {};
}

std::string
checkSlowMonotone(std::vector<ClassPoint> points)
{
    std::sort(points.begin(), points.end(),
              [](const ClassPoint &a, const ClassPoint &b) {
                  return std::tie(a.scenario, a.tFastMs, a.tSlowMs) <
                         std::tie(b.scenario, b.tFastMs, b.tSlowMs);
              });
    for (std::size_t i = 1; i < points.size(); ++i) {
        const ClassPoint &lo = points[i - 1];
        const ClassPoint &hi = points[i];
        if (lo.scenario == hi.scenario && lo.tFastMs == hi.tFastMs &&
            hi.tSlowMs > lo.tSlowMs && hi.slow > lo.slow)
            return hi.scenario + ": slow class grew from " +
                   std::to_string(lo.slow) + " to " +
                   std::to_string(hi.slow) + " as T_slow rose";
    }
    return {};
}

std::string
checkGathered(const JsonValue &gathered, const JsonValue &single)
{
    if (gathered.find("partial_results") != nullptr ||
        gathered.find("missing_shards") != nullptr)
        return "gathered answer is degraded";
    return checkIdentical("gathered and single-node answers",
                          gathered.render(), single.render());
}

std::string
checkAlerts(const std::vector<Alert> &alerts, std::uint64_t regressedWindow,
            const std::string &injectedComponent)
{
    std::set<std::tuple<std::string, std::string, std::string, std::uint64_t>>
        keys;
    bool named = false;
    for (const Alert &alert : alerts) {
        if (!keys.emplace(alert.rule, alert.scenario, alert.component,
                          alert.window)
                 .second)
            return "alert repeats: " + alert.rule + " " + alert.scenario +
                   " " + alert.component + " window " +
                   std::to_string(alert.window);
        named |= alert.window == regressedWindow &&
                 alert.component == injectedComponent;
    }
    if (!named)
        return "no alert names " + injectedComponent +
               " in the regressed window " + std::to_string(regressedWindow);
    return {};
}

} // namespace tlbench
