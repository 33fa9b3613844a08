/**
 * @file
 * tracelens — command-line front end for the TraceLens pipeline.
 *
 * Subcommands:
 *   generate   --out PATH [--machines N] [--seed S] [--scenario NAME]
 *              [--shards N]
 *              Synthesize a corpus; write one corpus file, or with
 *              --shards > 1 a directory of shard files. Fleet knobs
 *              (--encrypted-fraction F, --hdd-fraction F,
 *              --stressed-fraction F) tilt the machine mix; --drip DIR
 *              --interval-ms N feeds shards into a spool one by one by
 *              the rename-into-place convention (live-ingestion demo).
 *   ingest     PATH [--mmap] [--cache-bytes N]
 *              Streaming ingestion summary (per-scenario instance
 *              counts/durations) plus throughput and cache stats —
 *              on the mmap path without materializing symbol tables.
 *   validate   PATH
 *              Structural validation report (shard by shard).
 *   impact     PATH [--components GLOB]...
 *              Corpus-wide + per-scenario impact analysis.
 *   analyze    PATH --scenario NAME [--tfast MS] [--tslow MS]
 *              [--top N] [--no-knowledge-filter]
 *              Causality analysis with ranked patterns.
 *   dump       PATH [--stream N] [--max N]
 *              Human-readable event dump of one stream.
 *   export-csv PATH --events OUT --instances OUT
 *   import-csv --events IN --instances IN --out FILE
 *   serve      --listen HOST:PORT [...]
 *              Long-running analysis daemon (docs/SERVER.md): keeps
 *              corpora and analyses warm, answers concurrent clients
 *              over protocol v2 (multiplexed binary frames).
 *   query      METHOD --connect HOST:PORT [--params JSON]
 *              One request against a running daemon; prints the
 *              result JSON (--field KEY prints just that field).
 *   watch      DIR [--scenario NAME]... [--window-ms N] [...]
 *              Continuous mode without a daemon (docs/FLEET.md):
 *              poll DIR for renamed-into-place shards, bucket them
 *              into rolling windows, and print regression alerts as
 *              JSON lines as the sentinel emits them.
 *   version    Build info plus format/protocol revisions (--version).
 *
 * Every PATH that names a corpus accepts either a single .tlc file or
 * a directory of shards, and takes --mmap (zero-copy mmap ingestion)
 * and --cache-bytes N (shard-cache budget); corrupt shards inside a
 * directory are reported and skipped, never fatal. Analysis commands
 * additionally take --pipeline-stats (print per-stage hit/miss
 * counters and build times).
 *
 * Self-telemetry flags, valid for every subcommand (docs/TELEMETRY.md):
 *   --trace-out FILE    Record pipeline spans and write them as Chrome
 *                       trace_event JSON (load in Perfetto).
 *   --metrics-out FILE  Write the process-wide metrics registry
 *                       (counters/gauges/histograms) as JSON.
 *   --log-level LEVEL   debug|info|warn|error|off (default info).
 */

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/analyzer.h"
#include "src/core/htmlreport.h"
#include "src/fleet/fleet.h"
#include "src/fleet/service.h"
#include "src/core/report.h"
#include "src/impact/thresholds.h"
#include "src/mining/diff.h"
#include "src/mining/knowledge.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/trace/csv.h"
#include "src/trace/serialize.h"
#include "src/trace/source.h"
#include "src/trace/validate.h"
#include "src/util/logging.h"
#include "src/util/table.h"
#include "src/util/telemetry.h"
#include "src/workload/generator.h"
#include "src/workload/scenarios.h"

namespace
{

using namespace tracelens;

/** Minimal flag parser: positional args plus --name value pairs. */
class Args
{
  public:
    Args(int argc, char **argv, int start)
    {
        for (int i = start; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--", 0) == 0) {
                const std::string name = arg.substr(2);
                if (i + 1 < argc &&
                    std::string(argv[i + 1]).rfind("--", 0) != 0) {
                    flags_[name].push_back(argv[++i]);
                } else {
                    flags_[name].push_back(""); // boolean flag
                }
            } else {
                positional_.push_back(arg);
            }
        }
    }

    std::optional<std::string>
    flag(const std::string &name) const
    {
        auto it = flags_.find(name);
        if (it == flags_.end() || it->second.empty())
            return std::nullopt;
        return it->second.front();
    }

    std::vector<std::string>
    flagAll(const std::string &name) const
    {
        auto it = flags_.find(name);
        return it == flags_.end() ? std::vector<std::string>{}
                                  : it->second;
    }

    bool has(const std::string &name) const
    {
        return flags_.count(name) > 0;
    }

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    std::map<std::string, std::vector<std::string>> flags_;
    std::vector<std::string> positional_;
};

int
usage()
{
    std::cerr
        << "usage:\n"
           "  tracelens generate --out PATH [--machines N] [--seed S]"
           " [--scenario NAME] [--shards N] [--compress]\n"
           "      [--encrypted-fraction F] [--hdd-fraction F]"
           " [--stressed-fraction F]\n"
           "      [--drip DIR --interval-ms N]   (spool feed via"
           " rename-into-place)\n"
           "  tracelens ingest PATH\n"
           "  tracelens validate PATH\n"
           "  tracelens impact PATH [--components GLOB]..."
           " [--threads N]\n"
           "  tracelens analyze PATH --scenario NAME [--tfast MS]"
           " [--tslow MS] [--top N] [--no-knowledge-filter]"
           " [--threads N]\n"
           "  tracelens thresholds PATH [--scenario NAME]\n"
           "  tracelens report PATH [--top N] [--html OUT]"
           " [--no-knowledge-filter] [--threads N]\n"
           "  tracelens diff BEFORE AFTER --scenario NAME"
           " [--tfast MS] [--tslow MS] [--threads N]\n"
           "  tracelens dump PATH [--stream N] [--max N]\n"
           "  tracelens export-csv PATH --events OUT --instances OUT\n"
           "  tracelens import-csv --events IN --instances IN --out "
           "FILE\n"
           "  tracelens serve --listen HOST:PORT [--workers N]"
           " [--max-inflight N]\n"
           "      [--default-deadline-ms N] [--max-line-bytes N]"
           " [--analysis-threads N]\n"
           "      [--max-sessions N] [--idle-timeout-s N]"
           " [--port-file FILE]\n"
           "      [--coordinator --cluster-workers HOST:PORT,...]"
           " [--shard-deadline-ms N]\n"
           "      [--metrics-listen HOST:PORT]"
           " [--metrics-port-file FILE]\n"
           "      [--slow-request-ms N] [--self-trace-corpus DIR]\n"
           "      [--flight-recorder N]"
           " (see docs/SERVER.md, docs/TELEMETRY.md)\n"
           "      [--watch DIR] [--window-ms N] [--max-windows N]"
           " [--poll-ms N]\n"
           "      [--baseline-windows N] [--watch-scenario NAME]..."
           " [--alerts-out FILE]\n"
           "      (continuous mode, docs/FLEET.md)\n"
           "  tracelens query METHOD --connect HOST:PORT"
           " [--params JSON]\n"
           "      [--deadline-ms N] [--timeout-ms N]"
           " [--wire-stats]\n"
           "      [--no-trace] [--field KEY] [--params-file FILE]\n"
           "  tracelens watch DIR [--scenario NAME]..."
           " [--window-ms N] [--max-windows N]\n"
           "      [--poll-ms N] [--baseline-windows N]"
           " [--alerts-out FILE] [--max-ticks N]\n"
           "      (continuous mode without a daemon, docs/FLEET.md)\n"
           "  tracelens cluster-status --connect HOST:PORT"
           " [--timeout-ms N] [--metrics]\n"
           "  tracelens cluster-trace --connect HOST:PORT --out FILE"
           " [--timeout-ms N]\n"
           "  tracelens version   (also --version)\n"
           "\nPATH is a .tlc corpus file or a directory of shards; "
           "corpus-reading\ncommands accept --mmap (zero-copy "
           "ingestion) and --cache-bytes N\n(shard-cache budget, "
           "suffixes k/m/g).\n--threads 0 (default) uses every "
           "hardware thread; 1 runs serially.\nAnalysis commands also "
           "accept --pipeline-stats (per-stage hit/miss\ncounters and "
           "build times).\nEvery command accepts "
           "--trace-out FILE (self-telemetry spans as\nChrome "
           "trace_event JSON, Perfetto-loadable), --metrics-out FILE\n"
           "(counters/gauges/histograms as JSON) and --log-level "
           "LEVEL\n(debug|info|warn|error|off; default info).\n"
           "Analysis results are "
           "identical for every thread count and for every\n"
           "ingestion path.\n";
    return 2;
}

/** Daemon/client version; format revisions print alongside it. */
constexpr const char *kTracelensVersion = "0.6.0";

/**
 * Parse an unsigned flag value in [0, @p max]; fatal (nonzero exit)
 * on anything else — no silent std::stoul truncation or throwing.
 */
std::uint64_t
parseUnsignedFlag(const char *flag, const std::string &value,
                  std::uint64_t max)
{
    std::uint64_t parsed = 0;
    const auto [ptr, ec] = std::from_chars(
        value.data(), value.data() + value.size(), parsed);
    if (ec != std::errc() || ptr != value.data() + value.size() ||
        parsed > max) {
        TL_FATAL(flag, " expects an integer in [0, ", max, "], got '",
                 value, "'");
    }
    return parsed;
}

/** Parse a finite non-negative double flag value; fatal otherwise. */
double
parseDoubleFlag(const char *flag, const std::string &value)
{
    double parsed = 0.0;
    const auto [ptr, ec] = std::from_chars(
        value.data(), value.data() + value.size(), parsed);
    if (ec != std::errc() || ptr != value.data() + value.size() ||
        !(parsed >= 0.0) || parsed > 1e12) {
        TL_FATAL(flag, " expects a non-negative number, got '", value,
                 "'");
    }
    return parsed;
}

/** Parse a fraction flag in [0, 1]; fatal otherwise. */
double
parseFraction(const char *flag, const std::string &value)
{
    const double parsed = parseDoubleFlag(flag, value);
    if (parsed > 1.0)
        TL_FATAL(flag, " expects a fraction in [0, 1], got '", value,
                 "'");
    return parsed;
}

/** Shared --mmap / --cache-bytes ingestion flags. */
SourceOptions
sourceOptionsFlag(const Args &args)
{
    SourceOptions options;
    options.useMmap = args.has("mmap");
    if (auto v = args.flag("cache-bytes")) {
        std::size_t multiplier = 1;
        std::string digits = *v;
        if (!digits.empty()) {
            switch (digits.back()) {
              case 'k': case 'K': multiplier = 1ull << 10; break;
              case 'm': case 'M': multiplier = 1ull << 20; break;
              case 'g': case 'G': multiplier = 1ull << 30; break;
              default: break;
            }
            if (multiplier != 1)
                digits.pop_back();
        }
        std::size_t value = 0;
        const auto [ptr, ec] = std::from_chars(
            digits.data(), digits.data() + digits.size(), value);
        if (ec != std::errc() || ptr != digits.data() + digits.size()) {
            TL_FATAL("--cache-bytes expects BYTES[k|m|g], got '",
                     std::string(*v), "'");
        }
        options.cacheBytes = value * multiplier;
    }
    return options;
}

/** Open PATH as a TraceSource or die with the located error. */
std::unique_ptr<TraceSource>
openSourceOrDie(const std::string &path, const Args &args)
{
    Expected<std::unique_ptr<TraceSource>> source =
        openSource(path, sourceOptionsFlag(args));
    if (!source)
        TL_FATAL(source.error().render());
    return std::move(source.value());
}

/**
 * Materialize the merged corpus. Corrupt shards are skipped with a
 * warning; a source with no usable shard at all is fatal (the
 * single-file case keeps its fail-loudly behavior).
 */
const TraceCorpus &
loadCorpus(TraceSource &source)
{
    const TraceCorpus &corpus = source.corpus();
    const IngestStats &stats = source.stats();
    if (stats.shards > 0 && stats.loadedShards == 0) {
        TL_FATAL(stats.errors.empty()
                     ? "no usable shards in source"
                     : stats.errors.front().render());
    }
    return corpus;
}

/** Shared --threads flag: 0 = all hardware threads (the default). */
unsigned
threadsFlag(const Args &args)
{
    const auto v = args.flag("threads");
    if (!v)
        return 0;
    unsigned threads = 0;
    const auto [ptr, ec] =
        std::from_chars(v->data(), v->data() + v->size(), threads);
    if (ec != std::errc() || ptr != v->data() + v->size() ||
        threads > 1024) {
        TL_FATAL("--threads expects an integer in [0, 1024], got '",
                 std::string(*v), "'");
    }
    return threads;
}

/** Shared analyzer flags: --threads. */
AnalyzerConfig
analyzerConfigFlag(const Args &args)
{
    AnalyzerConfig config;
    config.threads = threadsFlag(args);
    return config;
}

/**
 * Post-ingestion check for analyzer commands: the analyzer ingests
 * shard by shard, skipping corrupt ones; a source with no usable
 * shard at all is fatal (the single-file case keeps its fail-loudly
 * behavior).
 */
void
requireUsable(const TraceSource &source)
{
    const IngestStats &stats = source.stats();
    if (stats.shards > 0 && stats.loadedShards == 0) {
        TL_FATAL(stats.errors.empty()
                     ? "no usable shards in source"
                     : stats.errors.front().render());
    }
}

/** Print the per-stage counters under --pipeline-stats. */
void
maybePrintPipelineStats(const Args &args, const Analyzer &analyzer)
{
    if (args.has("pipeline-stats"))
        std::cout << analyzer.pipelineStats().render();
}

int
cmdGenerate(const Args &args)
{
    const auto out = args.flag("out");
    const auto drip = args.flag("drip");
    if (!out && !drip)
        return usage();
    CorpusSpec spec;
    if (auto v = args.flag("machines")) {
        spec.machines = static_cast<std::uint32_t>(
            parseUnsignedFlag("--machines", *v, 10'000'000));
    }
    if (auto v = args.flag("seed"))
        spec.seed = parseUnsignedFlag("--seed", *v, UINT64_MAX);
    for (const std::string &name : args.flagAll("scenario"))
        spec.onlyScenarios.push_back(name);
    if (auto v = args.flag("encrypted-fraction")) {
        spec.encryptedFraction =
            parseFraction("--encrypted-fraction", *v);
    }
    if (auto v = args.flag("hdd-fraction"))
        spec.hddFraction = parseFraction("--hdd-fraction", *v);
    if (auto v = args.flag("stressed-fraction")) {
        spec.stressedFraction =
            parseFraction("--stressed-fraction", *v);
    }

    std::size_t shards = 1;
    if (auto v = args.flag("shards"))
        shards = parseUnsignedFlag("--shards", *v, 100'000);
    CorpusWriteOptions write;
    write.compressEvents = args.has("compress");

    if (drip) {
        // Live-ingestion feed: land each shard by the same
        // rename-into-place convention on-host writers use
        // (docs/TRACE_FORMAT.md), pacing by --interval-ms so a
        // watcher sees a realistic arrival stream.
        if (drip->empty())
            TL_FATAL("--drip expects a directory path");
        std::uint64_t intervalMs = 0;
        if (auto v = args.flag("interval-ms")) {
            intervalMs =
                parseUnsignedFlag("--interval-ms", *v, 3'600'000);
        }
        const std::vector<TraceCorpus> parts =
            generateShardedCorpus(spec, std::max<std::size_t>(shards, 1));
        namespace fs = std::filesystem;
        std::error_code ec;
        fs::create_directories(*drip, ec);
        for (std::size_t i = 0; i < parts.size(); ++i) {
            std::ostringstream name;
            name << "shard-" << std::setfill('0') << std::setw(4) << i
                 << ".tlc";
            const fs::path staged =
                fs::path(*drip) / ("." + name.str() + ".tmp");
            const fs::path finished = fs::path(*drip) / name.str();
            writeCorpusFile(parts[i], staged.string(), write);
            fs::rename(staged, finished, ec);
            if (ec) {
                TL_FATAL("cannot rename ", staged.string(),
                         " into place: ", ec.message());
            }
            TL_LOG(Info, "drip: ", finished.string(), " (", i + 1, "/",
                   parts.size(), ")");
            if (intervalMs != 0 && i + 1 < parts.size()) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(intervalMs));
            }
        }
        return 0;
    }

    const TraceCorpus corpus = generateCorpus(spec);
    if (shards > 1) {
        const auto paths =
            writeShardedCorpusDir(corpus, *out, shards, write);
        TL_LOG(Info, "wrote ", corpus.streamCount(), " streams / ",
               corpus.instances().size(), " instances / ",
               corpus.totalEvents(), " events to ", paths.size(),
               " shards under ", *out);
        return 0;
    }
    writeCorpusFile(corpus, *out, write);
    TL_LOG(Info, "wrote ", corpus.streamCount(), " streams / ",
           corpus.instances().size(), " instances / ",
           corpus.totalEvents(), " events to ", *out);
    return 0;
}

int
cmdIngest(const Args &args)
{
    if (args.positional().empty())
        return usage();
    const auto start = std::chrono::steady_clock::now();
    const std::unique_ptr<TraceSource> source =
        openSourceOrDie(args.positional()[0], args);

    // Per-scenario instance tallies straight from shard summaries: on
    // the mmap path this touches only instance records and scenario
    // names — frames, stacks, and events stay unmaterialized.
    std::map<std::string, std::pair<std::size_t, DurationNs>> scenarios;
    std::uint64_t events = 0;
    std::size_t instances = 0;
    for (std::size_t i = 0; i < source->shardCount(); ++i) {
        Expected<ShardSummary> summary = source->summarize(i);
        if (!summary)
            continue; // recorded in stats
        events += summary.value().events;
        instances += summary.value().instances.size();
        for (const ScenarioInstance &inst : summary.value().instances) {
            auto &[count, total] =
                scenarios[summary.value().scenarios[inst.scenario]];
            ++count;
            total += inst.duration();
        }
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();

    const IngestStats &stats = source->stats();
    std::cout << "source:   " << source->describe() << "\n"
              << stats.render();
    TextTable table({"Scenario", "Instances", "MeanMs"});
    for (const auto &[name, entry] : scenarios) {
        table.addRow({name, std::to_string(entry.first),
                      TextTable::num(toMs(entry.second) /
                                         static_cast<double>(
                                             entry.first),
                                     2)});
    }
    std::cout << table.render();
    const double mb = static_cast<double>(stats.ingestBytes) /
                      (1024.0 * 1024.0);
    std::cout << instances << " instances / " << events << " events; "
              << TextTable::num(mb, 1) << " MiB in "
              << TextTable::num(ms, 1) << " ms ("
              << TextTable::num(ms > 0.0 ? mb / (ms / 1000.0) : 0.0, 1)
              << " MiB/s)\n";
    return stats.skippedShards == 0 ? 0 : 1;
}

int
cmdValidate(const Args &args)
{
    if (args.positional().empty())
        return usage();
    const std::unique_ptr<TraceSource> source =
        openSourceOrDie(args.positional()[0], args);
    const ValidationReport report = validateSource(*source);
    std::cout << report.render() << "\n";
    return report.strayUnwaits == 0 && report.selfUnwaits == 0 &&
                   report.skippedShards == 0
               ? 0
               : 1;
}

int
cmdImpact(const Args &args)
{
    if (args.positional().empty())
        return usage();
    const std::unique_ptr<TraceSource> source =
        openSourceOrDie(args.positional()[0], args);

    AnalyzerConfig config = analyzerConfigFlag(args);
    const auto globs = args.flagAll("components");
    if (!globs.empty())
        config.components = globs;
    Analyzer analyzer(*source, config);
    requireUsable(*source);
    const TraceCorpus &corpus = analyzer.corpus();

    std::cout << "components:";
    for (const auto &g : analyzer.components().patterns())
        std::cout << " " << g;
    std::cout << "\nall scenarios: " << analyzer.impactAll().render()
              << "\n";
    for (const auto &[scenario, impact] :
         analyzer.impactPerScenario()) {
        std::cout << "  " << corpus.scenarioName(scenario) << ": "
                  << impact.render() << "\n";
    }
    maybePrintPipelineStats(args, analyzer);
    return 0;
}

int
cmdAnalyze(const Args &args)
{
    const auto scenario = args.flag("scenario");
    if (args.positional().empty() || !scenario)
        return usage();
    const std::unique_ptr<TraceSource> source =
        openSourceOrDie(args.positional()[0], args);

    // Thresholds default to the catalog's when the scenario is known.
    DurationNs t_fast = 0, t_slow = 0;
    for (const ScenarioSpec &spec : scenarioCatalog()) {
        if (spec.name == *scenario) {
            t_fast = spec.tFast;
            t_slow = spec.tSlow;
        }
    }
    if (auto v = args.flag("tfast"))
        t_fast = fromMs(parseDoubleFlag("--tfast", *v));
    if (auto v = args.flag("tslow"))
        t_slow = fromMs(parseDoubleFlag("--tslow", *v));
    if (t_fast <= 0 || t_slow <= t_fast) {
        TL_LOG(Error, "need --tfast/--tslow for unknown scenarios");
        return 2;
    }

    Analyzer analyzer(*source, analyzerConfigFlag(args));
    requireUsable(*source);
    const TraceCorpus &corpus = analyzer.corpus();
    const ScenarioAnalysis analysis =
        analyzer.analyzeScenario(*scenario, t_fast, t_slow);

    std::cout << *scenario << ": " << analysis.classes.fast.size()
              << " fast / " << analysis.classes.middle.size()
              << " middle / " << analysis.classes.slow.size()
              << " slow\n";
    std::cout << "slow impact: " << analysis.slowImpact.render()
              << "\n";
    std::cout << "coverage: " << analysis.coverage.render() << "\n";
    std::cout << "mining: " << analysis.mining.stats.render() << "\n\n";

    std::vector<ContrastPattern> patterns = analysis.mining.patterns;
    if (!args.has("no-knowledge-filter")) {
        const auto filtered = KnowledgeBase::defaults().apply(
            analysis.mining, corpus.symbols());
        if (!filtered.suppressed.empty()) {
            std::cout << filtered.suppressed.size()
                      << " pattern(s) suppressed as by-design "
                         "behaviour (--no-knowledge-filter to keep)\n\n";
        }
        patterns = filtered.kept;
    }

    std::size_t top = 5;
    if (auto v = args.flag("top"))
        top = parseUnsignedFlag("--top", *v, 10'000);
    for (std::size_t i = 0; i < std::min(top, patterns.size()); ++i) {
        const ContrastPattern &p = patterns[i];
        std::cout << "#" << i + 1 << " impact="
                  << toMs(static_cast<DurationNs>(p.impact()))
                  << "ms N=" << p.count
                  << (p.highImpact(t_slow) ? " [high-impact]" : "")
                  << "\n"
                  << p.tuple.render(corpus.symbols()) << "\n";
    }
    maybePrintPipelineStats(args, analyzer);
    return 0;
}

int
cmdThresholds(const Args &args)
{
    if (args.positional().empty())
        return usage();
    const std::unique_ptr<TraceSource> source =
        openSourceOrDie(args.positional()[0], args);
    const TraceCorpus &corpus = loadCorpus(*source);
    if (auto name = args.flag("scenario")) {
        std::cout << *name << ": "
                  << suggestThresholds(corpus, *name).render() << "\n";
        return 0;
    }
    for (std::uint32_t id = 0; id < corpus.scenarioCount(); ++id) {
        std::cout << corpus.scenarioName(id) << ": "
                  << suggestThresholds(corpus, id).render() << "\n";
    }
    return 0;
}

int
cmdReport(const Args &args)
{
    if (args.positional().empty())
        return usage();
    const std::unique_ptr<TraceSource> source =
        openSourceOrDie(args.positional()[0], args);
    Analyzer analyzer(*source, analyzerConfigFlag(args));
    requireUsable(*source);
    const TraceCorpus &corpus = analyzer.corpus();

    std::vector<ScenarioThresholds> scenarios;
    for (const ScenarioSpec &spec : scenarioCatalog()) {
        if (spec.selected &&
            corpus.findScenario(spec.name) != UINT32_MAX) {
            scenarios.push_back({spec.name, spec.tFast, spec.tSlow});
        }
    }
    ReportOptions options;
    if (auto v = args.flag("top")) {
        options.topPatterns = static_cast<std::size_t>(
            parseUnsignedFlag("--top", *v, 10'000));
    }
    options.applyKnowledgeFilter = !args.has("no-knowledge-filter");
    if (auto html = args.flag("html")) {
        writeHtmlReportFile(analyzer, scenarios, *html, options);
        TL_LOG(Info, "wrote ", *html);
        maybePrintPipelineStats(args, analyzer);
        return 0;
    }
    std::cout << buildReport(analyzer, scenarios, options);
    maybePrintPipelineStats(args, analyzer);
    return 0;
}

int
cmdDiff(const Args &args)
{
    const auto scenario = args.flag("scenario");
    if (args.positional().size() < 2 || !scenario)
        return usage();
    const std::unique_ptr<TraceSource> source_before =
        openSourceOrDie(args.positional()[0], args);
    const std::unique_ptr<TraceSource> source_after =
        openSourceOrDie(args.positional()[1], args);

    DurationNs t_fast = 0, t_slow = 0;
    for (const ScenarioSpec &spec : scenarioCatalog()) {
        if (spec.name == *scenario) {
            t_fast = spec.tFast;
            t_slow = spec.tSlow;
        }
    }
    if (auto v = args.flag("tfast"))
        t_fast = fromMs(parseDoubleFlag("--tfast", *v));
    if (auto v = args.flag("tslow"))
        t_slow = fromMs(parseDoubleFlag("--tslow", *v));
    if (t_fast <= 0 || t_slow <= t_fast) {
        TL_LOG(Error, "need --tfast/--tslow for unknown scenarios");
        return 2;
    }

    const AnalyzerConfig config = analyzerConfigFlag(args);
    Analyzer ana_before(*source_before, config);
    requireUsable(*source_before);
    Analyzer ana_after(*source_after, config);
    requireUsable(*source_after);
    const TraceCorpus &before = ana_before.corpus();
    const TraceCorpus &after = ana_after.corpus();
    const ScenarioAnalysis rb =
        ana_before.analyzeScenario(*scenario, t_fast, t_slow);
    const ScenarioAnalysis ra =
        ana_after.analyzeScenario(*scenario, t_fast, t_slow);

    const MiningDiff diff = diffMiningResults(
        rb.mining, before.symbols(), ra.mining, after.symbols());
    std::cout << diff.render(after.symbols());
    return 0;
}

int
cmdDump(const Args &args)
{
    if (args.positional().empty())
        return usage();
    const std::unique_ptr<TraceSource> source =
        openSourceOrDie(args.positional()[0], args);
    const TraceCorpus &corpus = loadCorpus(*source);
    std::uint32_t stream = 0;
    std::size_t max_events = 100;
    if (auto v = args.flag("stream")) {
        stream = static_cast<std::uint32_t>(
            parseUnsignedFlag("--stream", *v, UINT32_MAX));
    }
    if (auto v = args.flag("max"))
        max_events = parseUnsignedFlag("--max", *v, 100'000'000);
    if (stream >= corpus.streamCount()) {
        TL_LOG(Error, "stream ", stream, " out of range (corpus has ",
               corpus.streamCount(), ")");
        return 1;
    }
    std::cout << dumpStream(corpus, stream, max_events);
    return 0;
}

int
cmdExportCsv(const Args &args)
{
    const auto events = args.flag("events");
    const auto instances = args.flag("instances");
    if (args.positional().empty() || !events || !instances)
        return usage();
    const std::unique_ptr<TraceSource> source =
        openSourceOrDie(args.positional()[0], args);
    const TraceCorpus &corpus = loadCorpus(*source);
    writeCorpusCsvFiles(corpus, *events, *instances);
    TL_LOG(Info, "exported to ", *events, " + ", *instances);
    return 0;
}

int
cmdImportCsv(const Args &args)
{
    const auto events = args.flag("events");
    const auto instances = args.flag("instances");
    const auto out = args.flag("out");
    if (!events || !instances || !out)
        return usage();
    const TraceCorpus corpus =
        readCorpusCsvFiles(*events, *instances);
    writeCorpusFile(corpus, *out);
    TL_LOG(Info, "imported ", corpus.totalEvents(), " events into ",
           *out);
    return 0;
}

int
cmdVersion()
{
    std::cout << "tracelens " << kTracelensVersion << "\n"
              << "  trace format:    TLC1 v" << traceFormatVersion()
              << "\n"
              << "  server protocol: v" << server::kProtocolVersion
              << "\n"
              << "  partial encoding: TLP1 v"
              << partialEncodingRevision()
              << " (cluster scatter/gather)\n"
              << "  fleet:           v" << fleetRevision()
              << " (continuous mode: windows, sentinel, alerts)\n"
              << "  build:           "
#if defined(__clang__)
              << "clang " << __clang_major__ << "." << __clang_minor__
#elif defined(__GNUC__)
              << "gcc " << __GNUC__ << "." << __GNUC_MINOR__
#else
              << "unknown compiler"
#endif
#ifdef NDEBUG
              << ", release"
#else
              << ", debug"
#endif
              << ", c++" << (__cplusplus / 100 % 100) << "\n";
    return 0;
}

/** The serving daemon a SIGTERM/SIGINT handler must reach. */
server::Server *g_server = nullptr;

void
handleStopSignal(int)
{
    // requestStop() only writes one byte to the wake pipe, so it is
    // safe here.
    if (g_server != nullptr)
        g_server->requestStop();
}

int
cmdServe(const Args &args)
{
    const auto listen = args.flag("listen");
    if (!listen || listen->empty())
        return usage();
    Expected<std::pair<std::string, std::uint16_t>> address =
        server::parseHostPort(*listen);
    if (!address)
        TL_FATAL("--listen: ", address.error().reason);

    server::ServerConfig config;
    config.host = address.value().first;
    config.port = address.value().second;
    if (auto v = args.flag("workers")) {
        config.workers = static_cast<unsigned>(
            parseUnsignedFlag("--workers", *v, 1024));
    }
    if (auto v = args.flag("max-inflight")) {
        config.maxInflight = parseUnsignedFlag(
            "--max-inflight", *v, 1'000'000);
        if (config.maxInflight == 0)
            TL_FATAL("--max-inflight must be at least 1");
    }
    if (auto v = args.flag("default-deadline-ms")) {
        config.defaultDeadlineMs = parseUnsignedFlag(
            "--default-deadline-ms", *v, 86'400'000);
    }
    if (auto v = args.flag("max-line-bytes")) {
        config.maxLineBytes = parseUnsignedFlag(
            "--max-line-bytes", *v, 1ull << 30);
        if (config.maxLineBytes < 64)
            TL_FATAL("--max-line-bytes must be at least 64");
    }
    if (auto v = args.flag("analysis-threads")) {
        config.registry.analysisThreads = static_cast<unsigned>(
            parseUnsignedFlag("--analysis-threads", *v, 1024));
    }
    if (auto v = args.flag("max-sessions")) {
        config.registry.maxSessions =
            parseUnsignedFlag("--max-sessions", *v, 100'000);
        if (config.registry.maxSessions == 0)
            TL_FATAL("--max-sessions must be at least 1");
    }
    if (auto v = args.flag("idle-timeout-s")) {
        config.registry.idleTimeout = std::chrono::seconds(
            parseUnsignedFlag("--idle-timeout-s", *v, 86'400));
    }
    config.registry.source = sourceOptionsFlag(args);
    config.enableTestMethods = args.has("enable-test-methods");
    config.coordinator = args.has("coordinator");
    if (auto v = args.flag("cluster-workers")) {
        // Comma-separated host:port list; validated by start().
        std::string_view rest = *v;
        while (!rest.empty()) {
            const std::size_t comma = rest.find(',');
            const std::string_view item = rest.substr(0, comma);
            if (!item.empty())
                config.workerAddrs.emplace_back(item);
            if (comma == std::string_view::npos)
                break;
            rest.remove_prefix(comma + 1);
        }
        if (config.workerAddrs.empty())
            TL_FATAL("--cluster-workers expects host:port,...");
        if (!config.coordinator)
            TL_FATAL("--cluster-workers requires --coordinator");
    }
    if (auto v = args.flag("shard-deadline-ms")) {
        config.shardDeadlineMs = parseUnsignedFlag(
            "--shard-deadline-ms", *v, 86'400'000);
        if (config.shardDeadlineMs == 0)
            TL_FATAL("--shard-deadline-ms must be at least 1");
    }
    if (auto v = args.flag("metrics-listen")) {
        if (v->empty())
            TL_FATAL("--metrics-listen expects HOST:PORT");
        config.metricsListen = *v;
    }
    if (auto v = args.flag("slow-request-ms")) {
        config.slowRequestMs = parseUnsignedFlag(
            "--slow-request-ms", *v, 86'400'000);
    }
    if (auto dir = args.flag("self-trace-corpus")) {
        if (dir->empty())
            TL_FATAL("--self-trace-corpus expects a directory path");
        config.selfTraceCorpusDir = *dir;
    }
    if (auto v = args.flag("flight-recorder")) {
        config.flightRecorderCapacity = static_cast<std::size_t>(
            parseUnsignedFlag("--flight-recorder", *v, 1'000'000));
        if (config.flightRecorderCapacity == 0)
            TL_FATAL("--flight-recorder must be at least 1");
    }
    if (auto dir = args.flag("watch")) {
        if (dir->empty())
            TL_FATAL("--watch expects a directory path");
        config.fleetWatchDir = *dir;
    }
    if (auto v = args.flag("window-ms")) {
        config.fleetWindowMs =
            parseUnsignedFlag("--window-ms", *v, 86'400'000);
        if (config.fleetWindowMs == 0)
            TL_FATAL("--window-ms must be at least 1");
    }
    if (auto v = args.flag("max-windows")) {
        config.fleetMaxWindows = parseUnsignedFlag(
            "--max-windows", *v, 100'000);
        if (config.fleetMaxWindows == 0)
            TL_FATAL("--max-windows must be at least 1");
    }
    if (auto v = args.flag("poll-ms")) {
        config.fleetPollMs =
            parseUnsignedFlag("--poll-ms", *v, 3'600'000);
        if (config.fleetPollMs == 0)
            TL_FATAL("--poll-ms must be at least 1");
    }
    if (auto v = args.flag("baseline-windows")) {
        config.fleetBaselineWindows = parseUnsignedFlag(
            "--baseline-windows", *v, 100'000);
    }
    for (const std::string &name : args.flagAll("watch-scenario"))
        config.fleetScenarios.push_back(name);
    if (auto v = args.flag("alerts-out")) {
        if (v->empty())
            TL_FATAL("--alerts-out expects a file path");
        config.fleetAlertsPath = *v;
    }
    if (config.fleetWatchDir.empty() &&
        (args.has("window-ms") || args.has("max-windows") ||
         args.has("poll-ms") || args.has("baseline-windows") ||
         args.has("watch-scenario") || args.has("alerts-out"))) {
        TL_FATAL("continuous-mode flags require --watch DIR");
    }
    server::Server daemon(config);
    Expected<std::uint16_t> port = daemon.start();
    if (!port)
        TL_FATAL(port.error().render());

    // Advertise the bound port (ephemeral with --listen HOST:0) for
    // scripts that need to find the daemon (scripts/smoke_server.sh).
    if (auto portFile = args.flag("port-file")) {
        if (portFile->empty())
            TL_FATAL("--port-file expects a file path");
        std::ofstream out(*portFile, std::ios::trunc);
        out << port.value() << "\n";
        if (!out)
            TL_FATAL("cannot write --port-file ", *portFile);
    }
    // Same dance for the metrics endpoint (--metrics-listen HOST:0).
    if (auto portFile = args.flag("metrics-port-file")) {
        if (portFile->empty())
            TL_FATAL("--metrics-port-file expects a file path");
        std::ofstream out(*portFile, std::ios::trunc);
        out << daemon.metricsPort() << "\n";
        if (!out)
            TL_FATAL("cannot write --metrics-port-file ", *portFile);
    }

    g_server = &daemon;
    std::signal(SIGTERM, handleStopSignal);
    std::signal(SIGINT, handleStopSignal);
    daemon.wait();
    g_server = nullptr;

    const server::ServerStats stats = daemon.stats();
    TL_LOG(Info, "serve: exiting after ", stats.requests,
           " requests (", stats.ok, " ok, ", stats.errors, " errors, ",
           stats.rejected, " rejected)");
    return 0;
}

int
cmdQuery(const Args &args)
{
    const auto connect = args.flag("connect");
    if (!connect || connect->empty() || args.positional().empty())
        return usage();
    Expected<std::pair<std::string, std::uint16_t>> address =
        server::parseHostPort(*connect);
    if (!address)
        TL_FATAL("--connect: ", address.error().reason);

    JsonValue params = JsonValue::makeObject();
    std::string paramsText;
    if (auto file = args.flag("params-file")) {
        // Large payloads (ingest_push shards) overflow a single argv
        // string; read the object from a file instead.
        std::ifstream in(*file, std::ios::binary);
        if (!in)
            TL_FATAL("cannot read --params-file ", *file);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        paramsText = buffer.str();
    } else if (auto text = args.flag("params")) {
        paramsText = *text;
    }
    if (!paramsText.empty()) {
        Expected<JsonValue> parsed = JsonValue::parse(paramsText);
        if (!parsed)
            TL_FATAL("--params: ", parsed.error().reason);
        if (!parsed.value().isObject())
            TL_FATAL("--params must be a JSON object");
        params = std::move(parsed.value());
    }
    const std::optional<server::Method> method =
        server::parseMethod(args.positional()[0]);
    if (!method)
        TL_FATAL("unknown method '", args.positional()[0], "'");

    server::CallOptions call;
    if (auto v = args.flag("deadline-ms")) {
        call.deadlineMs =
            parseUnsignedFlag("--deadline-ms", *v, 86'400'000);
    }
    server::SessionOptions options;
    options.ioTimeout = std::chrono::milliseconds(120'000);
    if (auto v = args.flag("timeout-ms")) {
        options.ioTimeout = std::chrono::milliseconds(
            parseUnsignedFlag("--timeout-ms", *v, 86'400'000));
    }

    Expected<server::Session> session = server::Session::connect(
        address.value().first, address.value().second, options);
    if (!session)
        TL_FATAL(session.error().render());
    // Root a fresh distributed trace at the CLI when the server
    // negotiated tracing, so a coordinator query stitches end to end
    // under one id (--no-trace opts out).
    if (!args.has("no-trace") && session.value().tracingNegotiated()) {
        call.traceContext.traceId = Telemetry::newTraceId();
        call.traceContext.parentSpanId = 0;
        call.traceContext.sampled = true;
        TL_LOG(Debug, "query: trace id ",
               hexId(call.traceContext.traceId));
    }
    Expected<server::Response> response =
        session.value().call(*method, params, call);
    if (!response)
        TL_FATAL(response.error().render());
    if (args.has("wire-stats")) {
        // stderr, not TL_LOG(Info): the query result owns stdout so
        // the output stays pipeable with --wire-stats on.
        const server::WireStats wire = session.value().wireStats();
        std::cerr << "query: protocol v" << server::kProtocolVersion
                  << ", "
                  << wire.bytesSent << " bytes out / "
                  << wire.bytesReceived << " bytes in ("
                  << wire.framesSent << "/" << wire.framesReceived
                  << " frames)\n";
    }
    if (!response.value().ok) {
        TL_LOG(Error, "server error [",
               server::errorCodeName(response.value().error.code),
               "]: ", response.value().error.message);
        return 1;
    }
    if (auto field = args.flag("field")) {
        // Print one top-level field (rendered JSON). Scripts diff
        // e.g. window_summary's "summary" against a batch analyze
        // without fishing through the envelope (scripts/smoke_fleet.sh).
        const JsonValue *value =
            response.value().result.find(*field);
        if (value == nullptr)
            TL_FATAL("result has no field '", *field, "'");
        std::cout << value->render() << "\n";
        return 0;
    }
    std::cout << response.value().result.render() << "\n";
    return 0;
}

int
cmdClusterStatus(const Args &args)
{
    // Sugar over `query cluster_status`: probe the coordinator and
    // print a human-readable worker roster.
    const auto connect = args.flag("connect");
    if (!connect || connect->empty())
        return usage();
    Expected<std::pair<std::string, std::uint16_t>> address =
        server::parseHostPort(*connect);
    if (!address)
        TL_FATAL("--connect: ", address.error().reason);

    server::SessionOptions options;
    options.ioTimeout = std::chrono::milliseconds(30'000);
    if (auto v = args.flag("timeout-ms")) {
        options.ioTimeout = std::chrono::milliseconds(
            parseUnsignedFlag("--timeout-ms", *v, 86'400'000));
    }
    Expected<server::Session> session = server::Session::connect(
        address.value().first, address.value().second, options);
    if (!session)
        TL_FATAL(session.error().render());
    JsonValue params = JsonValue::makeObject();
    if (args.has("metrics"))
        params.set("metrics", JsonValue(true));
    Expected<server::Response> response = session.value().call(
        server::Method::ClusterStatus, params);
    if (!response)
        TL_FATAL(response.error().render());
    if (!response.value().ok) {
        TL_LOG(Error, "server error [",
               server::errorCodeName(response.value().error.code),
               "]: ", response.value().error.message);
        return 1;
    }

    const JsonValue &result = response.value().result;
    std::cout << "coordinator " << *connect;
    if (const JsonValue *revision = result.find("partial_encoding");
        revision != nullptr && revision->isNumber()) {
        std::cout << " (partial encoding v"
                  << static_cast<std::uint64_t>(revision->asNumber())
                  << ")";
    }
    std::cout << "\n";
    // One row per worker; columns absent from old workers (no
    // liveness extras in their health result) render as "-".
    const auto cell = [](const JsonValue &entry, const char *key,
                         int decimals) -> std::string {
        const JsonValue *value = entry.find(key);
        if (value == nullptr || !value->isNumber())
            return "-";
        std::ostringstream text;
        text << std::fixed << std::setprecision(decimals)
             << value->asNumber();
        return text.str();
    };
    std::cout << "  " << std::left << std::setw(22) << "worker"
              << std::setw(13) << "status" << std::setw(10)
              << "uptime_s" << std::setw(10) << "inflight"
              << std::setw(10) << "sessions" << std::setw(9)
              << "partial" << "\n";
    bool healthy = true;
    if (const JsonValue *workers = result.find("workers");
        workers != nullptr && workers->isArray()) {
        for (const JsonValue &entry : workers->asArray()) {
            const JsonValue *addr = entry.find("address");
            const JsonValue *status = entry.find("status");
            const JsonValue *compatible = entry.find("compatible");
            const std::string state =
                status != nullptr && status->isString()
                    ? status->asString()
                    : "unknown";
            std::cout << "  " << std::left << std::setw(22)
                      << (addr != nullptr && addr->isString()
                              ? addr->asString()
                              : "?")
                      << std::setw(13) << state << std::setw(10)
                      << cell(entry, "uptime_s", 1) << std::setw(10)
                      << cell(entry, "inflight", 0) << std::setw(10)
                      << cell(entry, "sessions", 0) << std::setw(9)
                      << cell(entry, "partial_encoding", 0);
            if (compatible != nullptr && compatible->isBool() &&
                !compatible->asBool()) {
                std::cout << " (INCOMPATIBLE partial encoding)";
                healthy = false;
            }
            if (state != "ok")
                healthy = false;
            std::cout << "\n";
        }
    }
    std::cout << result.render() << "\n";
    return healthy ? 0 : 1;
}

int
cmdClusterTrace(const Args &args)
{
    // Ask the coordinator for a stitched cross-node Chrome trace
    // (its spans + every worker's, one pid per node) and write it to
    // --out, ready for Perfetto / chrome://tracing.
    const auto connect = args.flag("connect");
    const auto out = args.flag("out");
    if (!connect || connect->empty() || !out || out->empty())
        return usage();
    Expected<std::pair<std::string, std::uint16_t>> address =
        server::parseHostPort(*connect);
    if (!address)
        TL_FATAL("--connect: ", address.error().reason);

    server::SessionOptions options;
    options.ioTimeout = std::chrono::milliseconds(30'000);
    if (auto v = args.flag("timeout-ms")) {
        options.ioTimeout = std::chrono::milliseconds(
            parseUnsignedFlag("--timeout-ms", *v, 86'400'000));
    }
    Expected<server::Session> session = server::Session::connect(
        address.value().first, address.value().second, options);
    if (!session)
        TL_FATAL(session.error().render());
    Expected<server::Response> response = session.value().call(
        server::Method::ClusterTrace, JsonValue::makeObject());
    if (!response)
        TL_FATAL(response.error().render());
    if (!response.value().ok) {
        TL_LOG(Error, "server error [",
               server::errorCodeName(response.value().error.code),
               "]: ", response.value().error.message);
        return 1;
    }
    const JsonValue *trace = response.value().result.find("trace");
    if (trace == nullptr || !trace->isString())
        TL_FATAL("cluster_trace result carries no trace document");
    std::ofstream file(*out, std::ios::trunc);
    file << trace->asString();
    if (!file)
        TL_FATAL("cannot write --out ", *out);
    const JsonValue *nodes = response.value().result.find("nodes");
    const JsonValue *spans = response.value().result.find("spans");
    std::cout << "wrote " << *out << " ("
              << (nodes != nullptr && nodes->isNumber()
                      ? static_cast<std::uint64_t>(nodes->asNumber())
                      : 0)
              << " nodes, "
              << (spans != nullptr && spans->isNumber()
                      ? static_cast<std::uint64_t>(spans->asNumber())
                      : 0)
              << " spans)\n";
    return 0;
}

/** Ctrl-C flag for `tracelens watch`. */
std::atomic<bool> g_watchStop{false};

void
handleWatchSignal(int)
{
    g_watchStop.store(true, std::memory_order_release);
}

int
cmdWatch(const Args &args)
{
    if (args.positional().empty())
        return usage();
    FleetConfig config;
    config.dir = args.positional()[0];
    if (auto v = args.flag("window-ms")) {
        config.windowMs =
            parseUnsignedFlag("--window-ms", *v, 86'400'000);
        if (config.windowMs == 0)
            TL_FATAL("--window-ms must be at least 1");
    }
    if (auto v = args.flag("max-windows")) {
        config.maxWindows = parseUnsignedFlag(
            "--max-windows", *v, 100'000);
        if (config.maxWindows == 0)
            TL_FATAL("--max-windows must be at least 1");
    }
    if (auto v = args.flag("poll-ms")) {
        config.pollMs = parseUnsignedFlag("--poll-ms", *v, 3'600'000);
        if (config.pollMs == 0)
            TL_FATAL("--poll-ms must be at least 1");
    }
    if (auto v = args.flag("baseline-windows")) {
        config.sentinel.baselineWindows = parseUnsignedFlag(
            "--baseline-windows", *v, 100'000);
    }
    if (auto v = args.flag("alerts-out")) {
        if (v->empty())
            TL_FATAL("--alerts-out expects a file path");
        config.alertsPath = *v;
    }
    config.analyzer = analyzerConfigFlag(args);
    const std::vector<std::string> watched = args.flagAll("scenario");
    for (const ScenarioSpec &spec : scenarioCatalog()) {
        if (!watched.empty() &&
            std::find(watched.begin(), watched.end(), spec.name) ==
                watched.end())
            continue;
        config.sentinel.scenarios.push_back(
            {spec.name, spec.tFast, spec.tSlow});
    }
    std::uint64_t maxTicks = 0;
    if (auto v = args.flag("max-ticks"))
        maxTicks = parseUnsignedFlag("--max-ticks", *v, UINT64_MAX);

    // The loop below is the poll thread: drive ticks inline instead
    // of start()ing the background one, so --max-ticks is exact and
    // alerts print as soon as the emitting poll returns.
    FleetService fleet(config);
    std::signal(SIGINT, handleWatchSignal);
    std::signal(SIGTERM, handleWatchSignal);
    TL_LOG(Info, "watch: ", config.dir, " every ", config.pollMs,
           " ms (window ", config.windowMs, " ms, ring ",
           config.maxWindows, ", ", config.sentinel.scenarios.size(),
           " scenario(s))");

    std::uint64_t printed = 0;
    std::uint64_t ticks = 0;
    while (!g_watchStop.load(std::memory_order_acquire)) {
        fleet.pollOnce();
        for (const Alert &alert : fleet.alerts().since(printed)) {
            std::cout << alertJson(alert).render() << "\n"
                      << std::flush;
            printed = alert.seq;
        }
        ++ticks;
        if (maxTicks != 0 && ticks >= maxTicks)
            break;
        // Sleep out the poll interval in short slices, so SIGINT and
        // SIGTERM end the loop within one slice.
        const auto wake = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(config.pollMs);
        while (!g_watchStop.load(std::memory_order_acquire)) {
            const auto now = std::chrono::steady_clock::now();
            if (now >= wake)
                break;
            std::this_thread::sleep_for(
                std::min<std::chrono::steady_clock::duration>(
                    wake - now, std::chrono::milliseconds(20)));
        }
    }
    std::cout << fleet.status().render() << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    const Args args(argc, argv, 2);

    if (auto v = args.flag("log-level")) {
        LogLevel level = LogLevel::Info;
        if (!parseLogLevel(*v, level)) {
            TL_FATAL("--log-level expects debug|info|warn|error|off, "
                     "got '",
                     *v, "'");
        }
        setLogLevel(level);
    }
    const auto trace_out = args.flag("trace-out");
    const auto metrics_out = args.flag("metrics-out");
    if (trace_out && trace_out->empty())
        TL_FATAL("--trace-out expects a file path");
    if (metrics_out && metrics_out->empty())
        TL_FATAL("--metrics-out expects a file path");
    if (trace_out)
        Telemetry::setEnabled(true);

    auto dispatch = [&]() -> int {
        if (command == "generate")
            return cmdGenerate(args);
        if (command == "ingest")
            return cmdIngest(args);
        if (command == "validate")
            return cmdValidate(args);
        if (command == "impact")
            return cmdImpact(args);
        if (command == "analyze")
            return cmdAnalyze(args);
        if (command == "thresholds")
            return cmdThresholds(args);
        if (command == "report")
            return cmdReport(args);
        if (command == "diff")
            return cmdDiff(args);
        if (command == "dump")
            return cmdDump(args);
        if (command == "export-csv")
            return cmdExportCsv(args);
        if (command == "import-csv")
            return cmdImportCsv(args);
        if (command == "serve")
            return cmdServe(args);
        if (command == "query")
            return cmdQuery(args);
        if (command == "cluster-status")
            return cmdClusterStatus(args);
        if (command == "cluster-trace")
            return cmdClusterTrace(args);
        if (command == "watch")
            return cmdWatch(args);
        if (command == "version" || command == "--version" ||
            command == "-V")
            return cmdVersion();
        return usage();
    };

    int rc = 0;
    {
        // The root span: everything the subcommand does nests under
        // it in the exported trace. Scoped so it closes before the
        // trace file is written.
        Span span("cli", "cli");
        if (span.active())
            span.arg("cmd", command);
        rc = dispatch();
    }

    if (trace_out)
        Telemetry::writeChromeTrace(*trace_out);
    if (metrics_out)
        Telemetry::writeMetricsJson(*metrics_out);
    return rc;
}
