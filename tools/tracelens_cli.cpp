/**
 * @file
 * tracelens — command-line front end for the TraceLens pipeline.
 *
 * Each command declares its flags in one table (kCommands, at the
 * end); the parser, the value checks and `tracelens [CMD] --help` all
 * read it.
 */

#include <algorithm>
#include <atomic>
#include <cassert>
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
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
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

// ----------------------------------------------------------- flag tables

/** What a flag takes; the parser checks it before a command runs. */
enum Kind
{
    Switch,   //!< No value.
    Text,     //!< A non-empty string.
    Texts,    //!< A non-empty string; the flag may repeat.
    Unsigned, //!< An integer in [min, max].
    Number,   //!< A finite number in [0, 1e12].
    Fraction, //!< A number in [0, 1].
};

/** One row of a flag table: the flag, its value and its line of help. */
struct Flag
{
    const char *name;  //!< Without the leading "--".
    Kind kind;
    const char *value; //!< The value's placeholder in help, e.g. "FILE".
    const char *help;
    std::uint64_t min = 0; //!< Bounds of an Unsigned value.
    std::uint64_t max = 0;
    bool required = false;
};

Flag
required(Flag flag)
{
    flag.required = true;
    return flag;
}

/** @p flags followed by the shared @p group. */
std::vector<Flag>
join(std::vector<Flag> flags, const std::vector<Flag> &group)
{
    flags.insert(flags.end(), group.begin(), group.end());
    return flags;
}

/** Flags every command takes. */
const std::vector<Flag> kGlobalFlags = {
    {"trace-out", Text, "FILE", "write this run's spans as Chrome JSON"},
    {"metrics-out", Text, "FILE", "write the metrics registry as JSON"},
    {"log-level", Text, "LEVEL", "debug|info|warn|error|off (default info)"},
    {"help", Switch, "", "print this help"},
};

/** The analyzer's flag. */
const std::vector<Flag> kAnalyzerFlags = {
    {"threads", Unsigned, "N", "analysis threads; 0 (default) = all cores",
     0, 1024},
};

/** Continuous-mode settings `serve --watch` and `watch` share. */
const std::vector<Flag> kFleetFlags = {
    {"window-ms", Unsigned, "N", "window width (default 60000)", 1,
     86'400'000},
    {"max-windows", Unsigned, "N", "windows kept (default 8)", 1, 100'000},
    {"poll-ms", Unsigned, "N", "spool poll interval (default 200)", 1,
     3'600'000},
    {"baseline-windows", Unsigned, "N",
     "windows in the sentinel's baseline (default 3)", 0, 100'000},
    {"alerts-out", Text, "FILE", "append alerts to this JSONL file"},
};

class Flags;

/** One command: its operands, its flag table and what runs it. */
struct Command
{
    const char *name;
    const char *operands; //!< Positional arguments, e.g. "PATH".
    const char *summary;
    std::vector<Flag> flags;
    int (*run)(const Flags &);
};

const Flag *
findFlag(const std::vector<Flag> &table, std::string_view name)
{
    auto it = std::ranges::find_if(
        table, [&](const Flag &flag) { return name == flag.name; });
    return it == table.end() ? nullptr : &*it;
}

/** The problem with @p text as @p flag's value, or nullopt; a valid
 *  number is stored through @p count / @p number. */
std::optional<std::string>
checkValue(const Flag &flag, std::string_view text, std::uint64_t &count,
           double &number)
{
    const char *end = text.data() + text.size();
    const std::string got = ", got '" + std::string(text) + "'";
    if (flag.kind == Unsigned) {
        const auto [ptr, ec] = std::from_chars(text.data(), end, count);
        if (ec != std::errc() || ptr != end || count < flag.min ||
            count > flag.max) {
            return "--" + std::string(flag.name) +
                   " expects an integer in [" + std::to_string(flag.min) +
                   ", " + std::to_string(flag.max) + "]" + got;
        }
    } else if (flag.kind == Number || flag.kind == Fraction) {
        const bool fraction = flag.kind == Fraction;
        const auto [ptr, ec] = std::from_chars(text.data(), end, number);
        if (ec != std::errc() || ptr != end || !(number >= 0.0) ||
            number > (fraction ? 1.0 : 1e12)) {
            return "--" + std::string(flag.name) +
                   (fraction ? " expects a fraction in [0, 1]"
                             : " expects a non-negative number") +
                   got;
        }
    }
    return std::nullopt;
}

/** A command line read against one command's flag table. */
class Flags
{
  public:
    explicit Flags(const Command &command) : command_(command) {}

    /**
     * Read @p args. A switch never takes the next argument and every
     * other flag always does. Returns the first problem: an unknown
     * flag, a missing or bad value, a second copy of a flag that does
     * not repeat, a missing or extra operand, a missing required flag.
     */
    std::optional<std::string>
    parse(std::span<char *const> args)
    {
        for (std::size_t i = 0; i < args.size(); ++i) {
            const std::string_view arg = args[i];
            if (!arg.starts_with("--")) {
                operands_.emplace_back(arg);
                continue;
            }
            const Flag *flag = findFlag(command_.flags, arg.substr(2));
            if (flag == nullptr)
                flag = findFlag(kGlobalFlags, arg.substr(2));
            if (flag == nullptr)
                return "unknown flag " + std::string(arg);
            Value &value = values_[flag->name];
            if (!value.texts.empty() && flag->kind != Texts)
                return std::string(arg) + " given twice";
            if (flag->kind == Switch) {
                value.texts.emplace_back();
                continue;
            }
            if (i + 1 == args.size() || *args[i + 1] == '\0')
                return std::string(arg) + " expects " + flag->value;
            value.texts.emplace_back(args[++i]);
            if (auto problem = checkValue(*flag, args[i], value.count,
                                          value.number))
                return problem;
        }
        if (has("help"))
            return std::nullopt;
        const std::string_view operands = command_.operands;
        const auto wanted = static_cast<std::size_t>(
            operands.empty() ? 0 : std::ranges::count(operands, ' ') + 1);
        if (operands_.size() != wanted) {
            return operands_.size() < wanted
                       ? "expects " + std::string(operands)
                       : "unexpected argument '" + operands_[wanted] + "'";
        }
        for (const Flag &flag : command_.flags) {
            if (flag.required && !has(flag.name))
                return "--" + std::string(flag.name) + " " + flag.value +
                       " is required";
        }
        return std::nullopt;
    }

    /** Report a usage problem on one line; returns the exit code, 2. */
    int
    fail(std::string_view problem) const
    {
        std::cerr << "tracelens " << command_.name << ": " << problem
                  << " (see tracelens " << command_.name << " --help)\n";
        return 2;
    }

    bool has(std::string_view name) const { return find(name) != nullptr; }

    /** The value of a Text flag, if given. */
    std::optional<std::string>
    text(std::string_view name) const
    {
        const Value *value = find(name);
        return value == nullptr ? std::nullopt
                                : std::optional(value->texts.front());
    }

    /** Every value of a Texts flag, in command-line order. */
    std::vector<std::string>
    texts(std::string_view name) const
    {
        const Value *value = find(name);
        return value == nullptr ? std::vector<std::string>{}
                                : value->texts;
    }

    /** Set @p field to a numeric flag's value if it was given. */
    template <typename T>
    bool
    read(std::string_view name, T &field) const
    {
        const Value *value = find(name);
        if (value == nullptr)
            return false;
        if constexpr (std::is_floating_point_v<T>)
            field = value->number;
        else
            field = static_cast<T>(value->count);
        return true;
    }

    const std::vector<std::string> &operands() const { return operands_; }

  private:
    struct Value
    {
        std::vector<std::string> texts;
        std::uint64_t count = 0;
        double number = 0.0;
    };

    const Value *
    find(std::string_view name) const
    {
        assert(findFlag(command_.flags, name) != nullptr ||
               findFlag(kGlobalFlags, name) != nullptr);
        auto it = values_.find(name);
        return it == values_.end() ? nullptr : &it->second;
    }

    const Command &command_;
    std::map<std::string, Value, std::less<>> values_;
    std::vector<std::string> operands_;
};

// ------------------------------------------------------------------ help

/** Print @p lead, then @p words separated by spaces, wrapping at 78
 *  columns onto lines indented by @p indent. */
void
printWrapped(std::ostream &out, std::string_view lead,
             const std::vector<std::string> &words, std::size_t indent)
{
    out << lead;
    std::size_t column = lead.size();
    for (std::size_t i = 0; i < words.size(); ++i) {
        if (i != 0 && column + 1 + words[i].size() > 78) {
            out << "\n" << std::string(indent, ' ');
            column = indent;
        } else if (i != 0) {
            out << ' ';
            ++column;
        }
        out << words[i];
        column += words[i].size();
    }
    out << "\n";
}

std::vector<std::string>
splitWords(const std::string &text)
{
    std::istringstream in(text);
    std::vector<std::string> words;
    for (std::string word; in >> word;)
        words.push_back(word);
    return words;
}

void
printSynopsis(std::ostream &out, std::string_view lead,
              const Command &command, std::size_t indent)
{
    std::vector<std::string> words = {"tracelens", command.name};
    if (*command.operands != '\0')
        words.emplace_back(command.operands);
    for (const Flag &flag : command.flags) {
        std::string word = "--" + std::string(flag.name);
        if (flag.kind != Switch)
            word += " " + std::string(flag.value);
        if (!flag.required)
            word = "[" + word + "]" + (flag.kind == Texts ? "..." : "");
        words.push_back(std::move(word));
    }
    printWrapped(out, lead, words, indent);
}

void
printFlags(std::ostream &out, const std::vector<Flag> &flags)
{
    for (const Flag &flag : flags) {
        std::string left = "  --" + std::string(flag.name);
        if (flag.kind != Switch)
            left += " " + std::string(flag.value);
        left.resize(std::max<std::size_t>(left.size() + 1, 27), ' ');
        std::vector<std::string> words = splitWords(flag.help);
        if (flag.kind == Unsigned) {
            words.push_back("[" + std::to_string(flag.min) + ", " +
                            std::to_string(flag.max) + "]");
        }
        printWrapped(out, left, words, 27);
    }
}

void
printHelp(std::ostream &out, const Command &command)
{
    printSynopsis(out, "usage: ", command, 6);
    out << "\n";
    printWrapped(out, "", splitWords(command.summary), 0);
    if (!command.flags.empty()) {
        out << "\nflags:\n";
        printFlags(out, command.flags);
    }
    out << "\nglobal flags:\n";
    printFlags(out, kGlobalFlags);
}

// -------------------------------------------------------------- commands

/** Daemon/client version; format revisions print alongside it. */
constexpr const char *kTracelensVersion = "0.6.0";

/** Open PATH as a TraceSource, decoding on @p threads workers, or die
 *  with the located error. */
std::unique_ptr<TraceSource>
openSourceOrDie(const std::string &path, unsigned threads = 1)
{
    Expected<std::unique_ptr<TraceSource>> source =
        openSource(path, threads);
    if (!source)
        TL_FATAL(source.error().render());
    return std::move(source.value());
}

/** The analyzer's configuration from its flags (kAnalyzerFlags). */
AnalyzerConfig
analyzerConfig(const Flags &flags)
{
    AnalyzerConfig config;
    flags.read("threads", config.threads);
    return config;
}

/** The fleet settings (kFleetFlags) over spool @p dir, watching the
 *  catalog scenarios in @p scenarios, or all of them if it is empty. */
FleetConfig
fleetConfig(const Flags &flags, std::string dir,
            const std::vector<std::string> &scenarios)
{
    FleetConfig config;
    config.dir = std::move(dir);
    flags.read("window-ms", config.windowMs);
    flags.read("max-windows", config.maxWindows);
    flags.read("poll-ms", config.pollMs);
    flags.read("baseline-windows", config.sentinel.baselineWindows);
    config.alertsPath = flags.text("alerts-out").value_or("");
    for (const ScenarioSpec &spec : scenarioCatalog()) {
        if (scenarios.empty() ||
            std::ranges::find(scenarios, spec.name) != scenarios.end())
            config.sentinel.scenarios.push_back(
                {spec.name, spec.tFast, spec.tSlow});
    }
    return config;
}

/**
 * Post-ingestion check: corrupt shards are skipped with a warning, but
 * a source with no usable shard at all is fatal (the single-file case
 * keeps its fail-loudly behavior).
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

/** Materialize the merged corpus (see requireUsable). */
const TraceCorpus &
loadCorpus(TraceSource &source)
{
    const TraceCorpus &corpus = source.corpus();
    requireUsable(source);
    return corpus;
}

int
cmdGenerate(const Flags &flags)
{
    const auto out = flags.text("out");
    const auto drip = flags.text("drip");
    if (!out && !drip)
        return flags.fail("expects --out PATH or --drip DIR");
    if (out && drip)
        return flags.fail("--out and --drip cannot both be given");
    if (out && flags.has("interval-ms"))
        return flags.fail("--interval-ms paces --drip and cannot be "
                          "given with --out");
    CorpusSpec spec;
    flags.read("machines", spec.machines);
    flags.read("seed", spec.seed);
    spec.onlyScenarios = flags.texts("scenario");
    flags.read("encrypted-fraction", spec.encryptedFraction);
    flags.read("hdd-fraction", spec.hddFraction);
    flags.read("stressed-fraction", spec.stressedFraction);

    std::size_t shards = 1;
    flags.read("shards", shards);
    CorpusWriteOptions write;
    write.compressEvents = flags.has("compress");

    if (drip) {
        // Live-ingestion feed: land each shard by the same
        // rename-into-place convention on-host writers use
        // (docs/TRACE_FORMAT.md), pacing by --interval-ms so a
        // watcher sees a realistic arrival stream.
        std::uint64_t intervalMs = 0;
        flags.read("interval-ms", intervalMs);
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
cmdIngest(const Flags &flags)
{
    const auto start = std::chrono::steady_clock::now();
    const std::unique_ptr<TraceSource> source =
        openSourceOrDie(flags.operands()[0]);

    // Per-scenario instance tallies, one decoded shard at a time.
    std::map<std::string, std::pair<std::size_t, DurationNs>> scenarios;
    std::uint64_t events = 0;
    std::size_t instances = 0;
    for (std::size_t i = 0; i < source->shardCount(); ++i) {
        Expected<CorpusPtr> shard = source->shard(i);
        if (!shard)
            continue; // recorded in stats
        const TraceCorpus &corpus = *shard.value();
        events += corpus.totalEvents();
        instances += corpus.instances().size();
        for (const ScenarioInstance &inst : corpus.instances()) {
            auto &[count, total] =
                scenarios[corpus.scenarioName(inst.scenario)];
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
cmdValidate(const Flags &flags)
{
    const std::unique_ptr<TraceSource> source =
        openSourceOrDie(flags.operands()[0]);
    const ValidationReport report = validateSource(*source);
    std::cout << report.render() << "\n";
    return report.strayUnwaits == 0 && report.selfUnwaits == 0 &&
                   report.skippedShards == 0
               ? 0
               : 1;
}

int
cmdImpact(const Flags &flags)
{
    AnalyzerConfig config = analyzerConfig(flags);
    const std::unique_ptr<TraceSource> source =
        openSourceOrDie(flags.operands()[0], config.threads);

    const auto globs = flags.texts("components");
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
    return 0;
}

/** T_fast/T_slow of @p scenario: the catalog's, overridden by
 *  --tfast/--tslow; false when that gives no valid pair. */
bool
scenarioThresholds(const Flags &flags, const std::string &scenario,
                   DurationNs &t_fast, DurationNs &t_slow)
{
    t_fast = 0;
    t_slow = 0;
    for (const ScenarioSpec &spec : scenarioCatalog()) {
        if (spec.name == scenario) {
            t_fast = spec.tFast;
            t_slow = spec.tSlow;
        }
    }
    double ms = 0.0;
    if (flags.read("tfast", ms))
        t_fast = fromMs(ms);
    if (flags.read("tslow", ms))
        t_slow = fromMs(ms);
    if (t_fast <= 0 || t_slow <= t_fast) {
        TL_LOG(Error, "need --tfast/--tslow for unknown scenarios");
        return false;
    }
    return true;
}

int
cmdAnalyze(const Flags &flags)
{
    const std::string scenario = *flags.text("scenario");
    const AnalyzerConfig config = analyzerConfig(flags);
    const std::unique_ptr<TraceSource> source =
        openSourceOrDie(flags.operands()[0], config.threads);

    DurationNs t_fast = 0, t_slow = 0;
    if (!scenarioThresholds(flags, scenario, t_fast, t_slow))
        return 2;

    Analyzer analyzer(*source, config);
    requireUsable(*source);
    const TraceCorpus &corpus = analyzer.corpus();
    const ScenarioAnalysis analysis =
        analyzer.analyzeScenario(scenario, t_fast, t_slow);

    std::cout << scenario << ": " << analysis.classes.fast.size()
              << " fast / " << analysis.classes.middle.size()
              << " middle / " << analysis.classes.slow.size()
              << " slow\n";
    std::cout << "slow impact: " << analysis.slowImpact.render()
              << "\n";
    std::cout << "coverage: " << analysis.coverage.render() << "\n";
    std::cout << "mining: " << analysis.mining->stats.render() << "\n\n";

    std::vector<ContrastPattern> patterns = analysis.mining->patterns;
    if (!flags.has("no-knowledge-filter")) {
        const auto filtered = KnowledgeBase::defaults().apply(
            *analysis.mining, corpus.symbols());
        if (!filtered.suppressed.empty()) {
            std::cout << filtered.suppressed.size()
                      << " pattern(s) suppressed as by-design "
                         "behaviour (--no-knowledge-filter to keep)\n\n";
        }
        patterns = filtered.kept;
    }

    std::size_t top = 5;
    flags.read("top", top);
    for (std::size_t i = 0; i < std::min(top, patterns.size()); ++i) {
        const ContrastPattern &p = patterns[i];
        std::cout << "#" << i + 1 << " impact="
                  << toMs(static_cast<DurationNs>(p.impact()))
                  << "ms N=" << p.count
                  << (p.highImpact(t_slow) ? " [high-impact]" : "")
                  << "\n"
                  << p.tuple.render(corpus.symbols()) << "\n";
    }
    return 0;
}

int
cmdThresholds(const Flags &flags)
{
    const std::unique_ptr<TraceSource> source =
        openSourceOrDie(flags.operands()[0]);
    const TraceCorpus &corpus = loadCorpus(*source);
    if (auto name = flags.text("scenario")) {
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
cmdReport(const Flags &flags)
{
    const AnalyzerConfig config = analyzerConfig(flags);
    const std::unique_ptr<TraceSource> source =
        openSourceOrDie(flags.operands()[0], config.threads);
    Analyzer analyzer(*source, config);
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
    flags.read("top", options.topPatterns);
    options.applyKnowledgeFilter = !flags.has("no-knowledge-filter");
    if (auto html = flags.text("html")) {
        writeHtmlReportFile(analyzer, scenarios, *html, options);
        TL_LOG(Info, "wrote ", *html);
        return 0;
    }
    std::cout << buildReport(analyzer, scenarios, options);
    return 0;
}

int
cmdDiff(const Flags &flags)
{
    const std::string scenario = *flags.text("scenario");
    const AnalyzerConfig config = analyzerConfig(flags);
    const std::unique_ptr<TraceSource> source_before =
        openSourceOrDie(flags.operands()[0], config.threads);
    const std::unique_ptr<TraceSource> source_after =
        openSourceOrDie(flags.operands()[1], config.threads);

    DurationNs t_fast = 0, t_slow = 0;
    if (!scenarioThresholds(flags, scenario, t_fast, t_slow))
        return 2;

    Analyzer ana_before(*source_before, config);
    requireUsable(*source_before);
    Analyzer ana_after(*source_after, config);
    requireUsable(*source_after);
    const TraceCorpus &before = ana_before.corpus();
    const TraceCorpus &after = ana_after.corpus();
    const ScenarioAnalysis rb =
        ana_before.analyzeScenario(scenario, t_fast, t_slow);
    const ScenarioAnalysis ra =
        ana_after.analyzeScenario(scenario, t_fast, t_slow);

    const MiningDiff diff = diffMiningResults(
        *rb.mining, before.symbols(), *ra.mining, after.symbols());
    std::cout << diff.render(after.symbols());
    return 0;
}

int
cmdDump(const Flags &flags)
{
    const std::unique_ptr<TraceSource> source =
        openSourceOrDie(flags.operands()[0]);
    const TraceCorpus &corpus = loadCorpus(*source);
    std::uint32_t stream = 0;
    std::size_t max_events = 100;
    flags.read("stream", stream);
    flags.read("max", max_events);
    if (stream >= corpus.streamCount()) {
        TL_LOG(Error, "stream ", stream, " out of range (corpus has ",
               corpus.streamCount(), ")");
        return 1;
    }
    std::cout << dumpStream(corpus, stream, max_events);
    return 0;
}

int
cmdExportCsv(const Flags &flags)
{
    const std::string events = *flags.text("events");
    const std::string instances = *flags.text("instances");
    const std::unique_ptr<TraceSource> source =
        openSourceOrDie(flags.operands()[0]);
    const TraceCorpus &corpus = loadCorpus(*source);
    writeCorpusCsvFiles(corpus, events, instances);
    TL_LOG(Info, "exported to ", events, " + ", instances);
    return 0;
}

int
cmdImportCsv(const Flags &flags)
{
    const std::string out = *flags.text("out");
    const TraceCorpus corpus = readCorpusCsvFiles(
        *flags.text("events"), *flags.text("instances"));
    writeCorpusFile(corpus, out);
    TL_LOG(Info, "imported ", corpus.totalEvents(), " events into ",
           out);
    return 0;
}

int
cmdVersion(const Flags &)
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

/** Write "PORT\n" to the file a --*port-file flag names. */
void
writePortFile(const Flags &flags, const char *flag, std::uint16_t port)
{
    if (auto path = flags.text(flag)) {
        std::ofstream out(*path, std::ios::trunc);
        out << port << "\n";
        if (!out)
            TL_FATAL("cannot write --", flag, " ", *path);
    }
}

int
cmdServe(const Flags &flags)
{
    Expected<std::pair<std::string, std::uint16_t>> address =
        server::parseHostPort(*flags.text("listen"));
    if (!address)
        TL_FATAL("--listen: ", address.error().reason);

    server::ServerConfig config;
    config.host = address.value().first;
    config.port = address.value().second;
    flags.read("workers", config.workers);
    flags.read("max-inflight", config.maxInflight);
    flags.read("default-deadline-ms", config.defaultDeadlineMs);
    flags.read("max-line-bytes", config.maxLineBytes);
    flags.read("analysis-threads", config.registry.analysisThreads);
    flags.read("max-sessions", config.registry.maxSessions);
    std::uint64_t idleTimeoutS = 0;
    if (flags.read("idle-timeout-s", idleTimeoutS))
        config.registry.idleTimeout = std::chrono::seconds(idleTimeoutS);
    config.coordinator = flags.has("coordinator");
    if (auto v = flags.text("cluster-workers")) {
        // Comma-separated host:port list; validated by start().
        std::istringstream list(*v);
        for (std::string item; std::getline(list, item, ',');) {
            if (!item.empty())
                config.workerAddrs.push_back(item);
        }
        if (config.workerAddrs.empty())
            TL_FATAL("--cluster-workers expects host:port,...");
        if (!config.coordinator)
            TL_FATAL("--cluster-workers requires --coordinator");
    }
    flags.read("shard-deadline-ms", config.shardDeadlineMs);
    config.metricsListen = flags.text("metrics-listen").value_or("");
    flags.read("slow-request-ms", config.slowRequestMs);
    config.selfTraceCorpusDir =
        flags.text("self-trace-corpus").value_or("");
    flags.read("flight-recorder", config.flightRecorderCapacity);
    if (auto dir = flags.text("watch")) {
        config.fleet =
            fleetConfig(flags, *dir, flags.texts("watch-scenario"));
    } else if (flags.has("watch-scenario") ||
               std::ranges::any_of(kFleetFlags, [&](const Flag &flag) {
                   return flags.has(flag.name);
               })) {
        TL_FATAL("continuous-mode flags require --watch DIR");
    }
    server::Server daemon(config);
    Expected<std::uint16_t> port = daemon.start();
    if (!port)
        TL_FATAL(port.error().render());

    // Advertise the bound ports (ephemeral with HOST:0) for scripts
    // that need to find the daemon (scripts/smoke_server.sh).
    writePortFile(flags, "port-file", port.value());
    writePortFile(flags, "metrics-port-file", daemon.metricsPort());

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

/** Open a session to the daemon --connect names, or die. */
server::Session
connectOrDie(const Flags &flags, std::uint64_t timeoutMs)
{
    Expected<std::pair<std::string, std::uint16_t>> address =
        server::parseHostPort(*flags.text("connect"));
    if (!address)
        TL_FATAL("--connect: ", address.error().reason);
    flags.read("timeout-ms", timeoutMs);
    server::SessionOptions options;
    options.ioTimeout = std::chrono::milliseconds(timeoutMs);
    Expected<server::Session> session = server::Session::connect(
        address.value().first, address.value().second, options);
    if (!session)
        TL_FATAL(session.error().render());
    return std::move(session.value());
}

/** Die on a transport failure; log a server error and return false. */
bool
answered(const Expected<server::Response> &response)
{
    if (!response)
        TL_FATAL(response.error().render());
    if (!response.value().ok) {
        TL_LOG(Error, "server error [",
               server::errorCodeName(response.value().error.code),
               "]: ", response.value().error.message);
        return false;
    }
    return true;
}

int
cmdQuery(const Flags &flags)
{
    if (flags.has("params") && flags.has("params-file"))
        return flags.fail("--params and --params-file cannot both be "
                          "given");
    JsonValue params = JsonValue::makeObject();
    std::string paramsText = flags.text("params").value_or("");
    if (auto file = flags.text("params-file")) {
        // Large payloads (ingest_push shards) overflow a single argv
        // string; read the object from a file instead.
        std::ifstream in(*file, std::ios::binary);
        if (!in)
            TL_FATAL("cannot read --params-file ", *file);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        paramsText = buffer.str();
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
        server::parseMethod(flags.operands()[0]);
    if (!method)
        TL_FATAL("unknown method '", flags.operands()[0], "'");

    server::CallOptions call;
    flags.read("deadline-ms", call.deadlineMs);
    server::Session session = connectOrDie(flags, 120'000);
    // Root a fresh distributed trace at the CLI when the server
    // negotiated tracing, so a coordinator query stitches end to end
    // under one id (--no-trace opts out).
    if (!flags.has("no-trace") && session.tracingNegotiated()) {
        call.traceContext.traceId = Telemetry::newTraceId();
        call.traceContext.parentSpanId = 0;
        call.traceContext.sampled = true;
        TL_LOG(Debug, "query: trace id ",
               hexId(call.traceContext.traceId));
    }
    Expected<server::Response> response =
        session.call(*method, params, call);
    if (response && flags.has("wire-stats")) {
        // stderr, not TL_LOG(Info): the query result owns stdout so
        // the output stays pipeable with --wire-stats on.
        const server::WireStats wire = session.wireStats();
        std::cerr << "query: protocol v" << server::kProtocolVersion
                  << ", "
                  << wire.bytesSent << " bytes out / "
                  << wire.bytesReceived << " bytes in ("
                  << wire.framesSent << "/" << wire.framesReceived
                  << " frames)\n";
    }
    if (!answered(response))
        return 1;
    if (auto field = flags.text("field")) {
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
cmdClusterStatus(const Flags &flags)
{
    // Sugar over `query cluster_status`: probe the coordinator and
    // print a human-readable worker roster.
    server::Session session = connectOrDie(flags, 30'000);
    JsonValue params = JsonValue::makeObject();
    if (flags.has("metrics"))
        params.set("metrics", JsonValue(true));
    const Expected<server::Response> response =
        session.call(server::Method::ClusterStatus, params);
    if (!answered(response))
        return 1;

    const JsonValue &result = response.value().result;
    std::cout << "coordinator " << *flags.text("connect");
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
cmdClusterTrace(const Flags &flags)
{
    // Ask the coordinator for a stitched cross-node Chrome trace
    // (its spans + every worker's, one pid per node) and write it to
    // --out, ready for Perfetto / chrome://tracing.
    const std::string out = *flags.text("out");
    server::Session session = connectOrDie(flags, 30'000);
    const Expected<server::Response> response = session.call(
        server::Method::ClusterTrace, JsonValue::makeObject());
    if (!answered(response))
        return 1;
    const JsonValue *trace = response.value().result.find("trace");
    if (trace == nullptr || !trace->isString())
        TL_FATAL("cluster_trace result carries no trace document");
    std::ofstream file(out, std::ios::trunc);
    file << trace->asString();
    if (!file)
        TL_FATAL("cannot write --out ", out);
    const JsonValue *nodes = response.value().result.find("nodes");
    const JsonValue *spans = response.value().result.find("spans");
    std::cout << "wrote " << out << " ("
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
cmdWatch(const Flags &flags)
{
    FleetConfig config = fleetConfig(flags, flags.operands()[0],
                                     flags.texts("scenario"));
    config.analyzer = analyzerConfig(flags);
    std::uint64_t maxTicks = 0;
    flags.read("max-ticks", maxTicks);

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

// --------------------------------------------------------- command table

const std::vector<Command> kCommands = {
    {"generate", "",
     "Synthesize a corpus: one .tlc file, --shards N shard files, or a "
     "--drip DIR spool fed one renamed-into-place shard at a time.",
     {
         {"out", Text, "PATH", "corpus file, or directory with --shards"},
         {"drip", Text, "DIR", "land the shards in this spool one by one"},
         {"interval-ms", Unsigned, "N", "pause between dripped shards", 0,
          3'600'000},
         {"machines", Unsigned, "N", "machines (default 150)", 0,
          10'000'000},
         {"seed", Unsigned, "S", "generator seed", 0, UINT64_MAX},
         {"scenario", Texts, "NAME", "generate only this scenario"},
         {"shards", Unsigned, "N", "shard files (default 1)", 0, 100'000},
         {"compress", Switch, "", "compress event blocks"},
         {"encrypted-fraction", Fraction, "F",
          "share of machines with storage encryption"},
         {"hdd-fraction", Fraction, "F", "share of machines with an HDD"},
         {"stressed-fraction", Fraction, "F",
          "share of heavily loaded machines"},
     },
     cmdGenerate},
    {"ingest", "PATH",
     "Per-scenario instance counts and mean durations, shard counts, "
     "skipped shards (exit 1) and throughput.",
     {},
     cmdIngest},
    {"validate", "PATH", "Structural validation report, shard by shard.",
     {},
     cmdValidate},
    {"impact", "PATH", "Corpus-wide and per-scenario impact analysis.",
     join({{"components", Texts, "GLOB", "components (default *.sys)"}},
          kAnalyzerFlags),
     cmdImpact},
    {"analyze", "PATH",
     "Causality analysis of one scenario with ranked contrast patterns.",
     join({required({"scenario", Text, "NAME", "scenario to analyze"}),
           {"tfast", Number, "MS", "T_fast (default: the catalog's)"},
           {"tslow", Number, "MS", "T_slow (default: the catalog's)"},
           {"top", Unsigned, "N", "patterns shown (default 5)", 0, 10'000},
           {"no-knowledge-filter", Switch, "", "keep by-design patterns"}},
          kAnalyzerFlags),
     cmdAnalyze},
    {"thresholds", "PATH",
     "Suggest T_fast/T_slow per scenario from its durations.",
     {{"scenario", Text, "NAME", "only this scenario"}},
     cmdThresholds},
    {"report", "PATH",
     "Impact and causality report over the catalog's scenarios.",
     join({{"top", Unsigned, "N", "patterns per scenario", 0, 10'000},
           {"html", Text, "OUT", "write an HTML report here instead"},
           {"no-knowledge-filter", Switch, "", "keep by-design patterns"},
           {"artifact-cache", Text, "DIR",
            "accepted and ignored: nothing is cached on disk"}},
          kAnalyzerFlags),
     cmdReport},
    {"diff", "BEFORE AFTER",
     "Pattern changes of one scenario between two corpora.",
     join({required({"scenario", Text, "NAME", "scenario to compare"}),
           {"tfast", Number, "MS", "T_fast (default: the catalog's)"},
           {"tslow", Number, "MS", "T_slow (default: the catalog's)"}},
          kAnalyzerFlags),
     cmdDiff},
    {"dump", "PATH", "Human-readable event dump of one stream.",
     {{"stream", Unsigned, "N", "stream (default 0)", 0, UINT32_MAX},
      {"max", Unsigned, "N", "events (default 100)", 0, 100'000'000}},
     cmdDump},
    {"export-csv", "PATH", "Write a corpus as events and instances CSV.",
     {required({"events", Text, "OUT", "events CSV"}),
      required({"instances", Text, "OUT", "instances CSV"})},
     cmdExportCsv},
    {"import-csv", "", "Build a corpus file from events and instances CSV.",
     {required({"events", Text, "IN", "events CSV"}),
      required({"instances", Text, "IN", "instances CSV"}),
      required({"out", Text, "FILE", "corpus file to write"})},
     cmdImportCsv},
    {"serve", "",
     "Analysis daemon: keeps corpora and analyses warm and answers "
     "concurrent clients over protocol v2 (docs/SERVER.md).",
     join({required({"listen", Text, "HOST:PORT",
                     "address to serve; port 0 picks one"}),
           {"port-file", Text, "FILE", "write the bound port here"},
           {"workers", Unsigned, "N", "request workers; 0 = all cores", 0,
            1024},
           {"max-inflight", Unsigned, "N",
            "queued + running requests (default 64)", 1, 1'000'000},
           {"default-deadline-ms", Unsigned, "N",
            "deadline of a request without one (default 30000)", 0,
            86'400'000},
           {"max-line-bytes", Unsigned, "N",
            "largest request frame (default 1 MiB)", 64, 1ull << 30},
           {"analysis-threads", Unsigned, "N",
            "threads per session's analysis (default 1)", 0, 1024},
           {"max-sessions", Unsigned, "N",
            "resident corpus sessions (default 8)", 1, 100'000},
           {"idle-timeout-s", Unsigned, "N",
            "evict sessions idle this long (default 300)", 0, 86'400},
           {"coordinator", Switch, "",
            "scatter analyses over --cluster-workers"},
           {"cluster-workers", Text, "HOST:PORT,...",
            "worker daemons (requires --coordinator)"},
           {"shard-deadline-ms", Unsigned, "N",
            "coordinator's per-shard deadline (default 10000)", 1,
            86'400'000},
           {"metrics-listen", Text, "HOST:PORT",
            "serve Prometheus metrics over HTTP here"},
           {"metrics-port-file", Text, "FILE",
            "write the metrics listener's port here"},
           {"slow-request-ms", Unsigned, "N",
            "log requests slower than this; 0 = off", 0, 86'400'000},
           {"self-trace-corpus", Text, "DIR",
            "write the daemon's spans as a corpus at exit"},
           {"flight-recorder", Unsigned, "N",
            "completed requests kept (default 256)", 1, 1'000'000},
           {"watch", Text, "DIR", "continuous mode over this spool"},
           {"watch-scenario", Texts, "NAME",
            "scenario the sentinel watches (default: all)"}},
          kFleetFlags),
     cmdServe},
    {"query", "METHOD",
     "One request to a running daemon; prints the result JSON.",
     {required({"connect", Text, "HOST:PORT", "daemon address"}),
      {"params", Text, "JSON", "request parameters object"},
      {"params-file", Text, "FILE", "read the parameters from a file"},
      {"deadline-ms", Unsigned, "N",
       "request deadline; 0 = the daemon's default", 0, 86'400'000},
      {"timeout-ms", Unsigned, "N", "I/O timeout (default 120000)", 0,
       86'400'000},
      {"wire-stats", Switch, "", "print bytes and frames to stderr"},
      {"no-trace", Switch, "", "do not root a distributed trace"},
      {"field", Text, "KEY", "print only this field of the result"}},
     cmdQuery},
    {"cluster-status", "",
     "Probe a coordinator and print its worker roster; exit 1 unless "
     "every worker is healthy.",
     {required({"connect", Text, "HOST:PORT", "coordinator address"}),
      {"timeout-ms", Unsigned, "N", "I/O timeout (default 30000)", 0,
       86'400'000},
      {"metrics", Switch, "", "merge the workers' metrics"}},
     cmdClusterStatus},
    {"cluster-trace", "",
     "Write a coordinator's stitched cross-node Chrome trace.",
     {required({"connect", Text, "HOST:PORT", "coordinator address"}),
      required({"out", Text, "FILE", "trace file to write"}),
      {"timeout-ms", Unsigned, "N", "I/O timeout (default 30000)", 0,
       86'400'000}},
     cmdClusterTrace},
    {"watch", "DIR",
     "Continuous mode without a daemon (docs/FLEET.md): poll DIR for "
     "shards and print the sentinel's alerts as JSON lines.",
     join(join({{"scenario", Texts, "NAME",
                 "scenario the sentinel watches (default: all)"},
                {"max-ticks", Unsigned, "N",
                 "stop after N polls; 0 = at Ctrl-C", 0, UINT64_MAX}},
               kFleetFlags),
          kAnalyzerFlags),
     cmdWatch},
    {"version", "", "Build info plus format and protocol revisions.", {},
     cmdVersion},
};

void
printOverview(std::ostream &out)
{
    out << "usage: tracelens COMMAND [FLAG]...\n\n";
    for (const Command &command : kCommands)
        printSynopsis(out, "  ", command, 8);
    out << "\nPATH is a .tlc corpus file or a directory of shards. "
           "Analysis results are\nidentical for every --threads count. "
           "A flag the command does not take, a\nmissing or "
           "out-of-range value, or a repeated flag exits 2.\n"
           "`tracelens COMMAND --help` explains a command's flags.\n"
           "\nglobal flags (every command):\n";
    printFlags(out, kGlobalFlags);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name = argc < 2 ? "" : argv[1];
    if (name == "--version" || name == "-V")
        name = "version";
    if (name == "--help" || name == "-h" || name == "help") {
        printOverview(std::cout);
        return 0;
    }
    if (name.empty()) {
        printOverview(std::cerr);
        return 2;
    }
    const auto command = std::ranges::find_if(
        kCommands, [&](const Command &c) { return name == c.name; });
    if (command == kCommands.end()) {
        std::cerr << "tracelens: unknown command '" << name
                  << "' (see tracelens --help)\n";
        return 2;
    }

    Flags flags(*command);
    if (auto problem = flags.parse({argv + 2, argv + argc}))
        return flags.fail(*problem);
    if (flags.has("help")) {
        printHelp(std::cout, *command);
        return 0;
    }
    if (auto v = flags.text("log-level")) {
        LogLevel level = LogLevel::Info;
        if (!parseLogLevel(*v, level)) {
            return flags.fail("--log-level expects "
                              "debug|info|warn|error|off, got '" +
                              *v + "'");
        }
        setLogLevel(level);
    }
    const auto trace_out = flags.text("trace-out");
    const auto metrics_out = flags.text("metrics-out");
    if (trace_out)
        Telemetry::setEnabled(true);

    int rc = 0;
    {
        // The root span: everything the subcommand does nests under
        // it in the exported trace. Scoped so it closes before the
        // trace file is written.
        Span span("cli", "cli");
        if (span.active())
            span.arg("cmd", name);
        rc = command->run(flags);
    }

    if (trace_out && !Telemetry::writeChromeTrace(*trace_out))
        TL_FATAL("cannot write --trace-out ", *trace_out);
    if (metrics_out) {
        // The shape the daemon's `metrics` method answers.
        std::ofstream out(*metrics_out, std::ios::trunc);
        out << server::metricsSnapshotJson(
                   MetricsRegistry::global().snapshot())
                   .render()
            << "\n";
        if (!out)
            TL_FATAL("cannot write --metrics-out ", *metrics_out);
    }
    return rc;
}
