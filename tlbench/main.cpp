/**
 * @file
 * tlbench: the repository benchmark's runner.
 *
 *   tlbench --workload W --seed N --seconds S --trace 0|1
 *           --cli PATH/TO/tracelens --work DIR
 *   tlbench gen --workload W --seed N --seconds S --out DIR
 *
 * The first form runs one workload and prints, as its last line, one
 * JSON object: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end set; with --trace 1 the
 * run is replayed untraced and traced, the module probes run over the
 * same inputs, and the metrics are the per-layer set, printed first as
 * a table beside the end-to-end figures and the tracing overhead.
 * The second form is the input generator, run as a child process so
 * the measured processes' peak memory excludes it.
 */

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "workloads.h"

using namespace tlbench;

namespace
{

struct LayerRow
{
    const char *name;
    const char *unit;
    const char *module;
};

/** The per-layer metrics, module by module (README.md says which
 *  end-to-end metric each should move). */
const LayerRow kLayers[] = {
    {"generate.ms", "ms", "src/workload"},
    {"trace.open_ms", "ms", "src/trace"},
    {"trace.events", "count", "src/trace"},
    {"waitgraph.build_ms", "ms", "src/waitgraph"},
    {"waitgraph.build_1t_ms", "ms", "src/waitgraph"},
    {"waitgraph.nodes", "count", "src/waitgraph"},
    {"analyzer.graphs_ms", "ms", "src/core analyzer"},
    {"analyzer.graphs_rss_mb", "MiB", "src/core analyzer"},
    {"artifacts.reload_ms", "ms", "src/core artifacts"},
    {"artifacts.disk_mb", "MiB", "src/core artifacts"},
    {"impact.all_ms", "ms", "src/impact"},
    {"impact.per_scenario_ms", "ms", "src/impact"},
    {"awg.aggregate_ms", "ms", "src/awg"},
    {"mining.mine_ms", "ms", "src/mining"},
    {"mining.patterns", "count", "src/mining"},
    {"report.render_ms", "ms", "src/core report"},
    {"resultjson.render_ms", "ms", "src/core resultjson"},
    {"render.answer_bytes", "bytes", "src/core resultjson"},
    {"server.queue_wait_ms", "ms", "src/server"},
    {"server.service_ms", "ms", "src/server"},
    {"server.client_gap_ms", "ms", "src/server"},
    {"server.cache_hit_ratio", "ratio", "src/server"},
    {"server.cache_hit_base", "count", "src/server"},
    {"wire.bytes_per_op", "bytes", "src/server wire"},
    {"partial.encode_ms", "ms", "src/core partial"},
    {"partial.decode_ms", "ms", "src/core partial"},
    {"partial.merge_ms", "ms", "src/core partial"},
    {"partial.tlp1_bytes", "bytes", "src/core partial"},
    {"fleet.ingest_ms", "ms", "src/fleet"},
    {"fleet.summary_ms", "ms", "src/fleet"},
};

std::string
number(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char buf[64];
    const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
    return std::string(buf, end);
}

Metrics
endToEnd(const RunResult &r)
{
    Metrics m;
    m["setup_s"] = {median(r.setupSeconds), "s"};
    m["fresh_p50_ms"] = {r.fresh.p50(), "ms"};
    m["reuse_p50_ms"] = {r.reuse.p50(), "ms"};
    m["ops_per_s"] = {double(r.fresh.ms.size() + r.reuseEach.ms.size()) /
                          std::max(r.timedSeconds, 1e-9),
                      "op/s"};
    m["peak_rss_mb"] = {r.peakRssMb, "MiB"};
    return m;
}

void
printReference(const std::string &label, const RunResult &r)
{
    auto line = [&](const char *what, const Samples &s) {
        std::printf("%s %-10s n=%-5zu p50=%-9.3f p90=%-9.3f p99=%-9.3f ms\n",
                    label.c_str(), what, s.ms.size(), s.p50(),
                    percentile(s.ms, 0.90), percentile(s.ms, 0.99));
    };
    line("fresh", r.fresh);
    line("reuse", r.reuse);
    if (r.reuseEach.ms.size() != r.reuse.ms.size())
        line("reuse-each", r.reuseEach);
    std::printf("%s setups     ", label.c_str());
    for (double s : r.setupSeconds)
        std::printf(" %.3f", s);
    std::printf(" s\n");
}

void
printResult(const RunResult &r, const Metrics &metrics)
{
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        out += first ? "" : ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + number(metric.value) +
               ", \"unit\": \"" + metric.unit + "\"}";
    }
    out += "}}";
    std::cout << out << std::endl;
}

void
printTraceTable(const RunConfig &config, const RunResult &untraced,
                const RunResult &traced, const Metrics &layers)
{
    std::printf("== tlbench traced run: %s seed %llu, %u s script ==\n",
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed), config.seconds);
    std::printf("%-16s %14s %14s %14s\n", "end-to-end", "untraced", "traced",
                "overhead");
    const Metrics u = endToEnd(untraced);
    const Metrics t = endToEnd(traced);
    for (const auto &[name, metric] : u)
        std::printf("%-16s %14.4f %14.4f %+14.4f %s\n", name.c_str(),
                    metric.value, t.at(name).value,
                    t.at(name).value - metric.value, metric.unit.c_str());
    printReference("untraced", untraced);
    printReference("traced  ", traced);
    std::printf("%-22s %-24s %16s %s\n", "module", "per-layer metric",
                "value", "unit");
    for (const LayerRow &row : kLayers)
        std::printf("%-22s %-24s %16.4f %s\n", row.module, row.name,
                    layers.at(row.name).value, row.unit);
    for (const auto &[name, metric] : traced.layer)
        if (layers.count(name) == 0)
            std::printf("%-22s %-24s %16.4f %s\n", "(this workload)",
                        name.c_str(), metric.value, metric.unit.c_str());
    std::printf("span self-time over the traced timed phase (top %zu):\n",
                traced.spanSelfMs.size());
    for (const auto &[name, ms] : traced.spanSelfMs)
        std::printf("  %-40s %12.2f ms\n", name.c_str(), ms);
}

int
usage()
{
    std::cerr << "usage: tlbench --workload W --seed N --seconds S "
                 "--trace 0|1 --cli TRACELENS --work DIR\n"
                 "       tlbench gen --workload W --seed N --seconds S "
                 "--out DIR\n"
                 "workloads:";
    for (const std::string &name : workloadNames())
        std::cerr << ' ' << name;
    std::cerr << '\n';
    return 2;
}

bool
parseUnsigned(const std::string &text, std::uint64_t max, std::uint64_t &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end && out <= max;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    const bool gen = !args.empty() && args.front() == "gen";
    if (gen)
        args.erase(args.begin());
    std::map<std::string, std::string> flags;
    for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
        if (args[i].rfind("--", 0) != 0)
            return usage();
        flags[args[i].substr(2)] = args[i + 1];
    }
    if (args.size() % 2 != 0)
        return usage();

    RunConfig config;
    std::uint64_t seconds = 0, trace = 0;
    config.workload = flags["workload"];
    if (std::find(workloadNames().begin(), workloadNames().end(),
                  config.workload) == workloadNames().end() ||
        !parseUnsigned(flags["seed"], UINT32_MAX, config.seed) ||
        !parseUnsigned(flags["seconds"], 3600, seconds) || seconds == 0)
        return usage();
    config.seconds = static_cast<unsigned>(seconds);

    if (gen) {
        if (flags["out"].empty())
            return usage();
        return generateInputs(config.workload, config.seed, config.seconds,
                              flags["out"]);
    }
    if (!parseUnsigned(flags["trace"], 1, trace) || flags["cli"].empty() ||
        flags["work"].empty())
        return usage();
    config.cli = flags["cli"];
    char self[4096];
    const ssize_t length = readlink("/proc/self/exe", self, sizeof self - 1);
    if (length <= 0)
        return usage();
    config.self.assign(self, static_cast<std::size_t>(length));
    config.dir = flags["work"] + "/" + config.workload + "-" +
                 std::to_string(config.seed) + "-" + std::to_string(getpid());

    int code = 0;
    try {
        makeDirs(config.dir);
        if (trace == 0) {
            const RunResult result = runWorkload(config, false);
            printReference("reference", result);
            if (!result.correct)
                std::cerr << "tlbench: check failed: " << result.failure
                          << '\n';
            printResult(result, endToEnd(result));
        } else {
            config.setups = 1;
            RunConfig tracedConfig = config;
            tracedConfig.traced = true;
            const RunResult untraced = runWorkload(config, false);
            RunResult traced = runWorkload(tracedConfig, true);
            Metrics layers = probeModules(config.workload, traced.inputs,
                                          config.seed);
            layers["generate.ms"] = {traced.generateMs.back(), "ms"};
            for (const auto &[name, metric] : traced.layer)
                if (layers.count(name) == 0)
                    layers[name] = metric;
            Metrics out;
            for (const LayerRow &row : kLayers) {
                if (layers.count(row.name) == 0)
                    throw std::runtime_error(std::string("no figure for ") +
                                             row.name);
                out[row.name] = {layers[row.name].value, row.unit};
            }
            printTraceTable(config, untraced, traced, out);
            traced.correct = traced.correct && untraced.correct;
            if (!traced.correct)
                std::cerr << "tlbench: check failed: "
                          << (untraced.correct ? traced.failure
                                               : untraced.failure)
                          << '\n';
            printResult(traced, out);
        }
    } catch (const std::exception &error) {
        std::cerr << "tlbench: " << error.what() << '\n';
        code = 1;
    }
    removeTree(config.dir);
    return code;
}
