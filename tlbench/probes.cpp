/**
 * @file
 * Per-layer probes: each module's public functions, called in-process
 * over one workload's inputs and timed from outside. This is how the
 * traced run splits time by module without adding tracing to src/.
 */

#include <malloc.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>

#include "src/awg/awg.h"
#include "src/core/analyzer.h"
#include "src/core/partial.h"
#include "src/core/report.h"
#include "src/core/resultjson.h"
#include "src/fleet/service.h"
#include "src/impact/impact.h"
#include "src/mining/miner.h"
#include "src/trace/merge.h"
#include "src/trace/serialize.h"
#include "src/trace/source.h"
#include "src/waitgraph/waitgraph.h"
#include "src/workload/scenarios.h"
#include "workloads.h"

namespace fs = std::filesystem;
using namespace tracelens;

namespace tlbench
{

namespace
{

constexpr double kMiB = 1024.0 * 1024.0;

std::vector<WaitGraph>
subset(const std::vector<WaitGraph> &graphs,
       const std::vector<std::uint32_t> &indices)
{
    std::vector<WaitGraph> out;
    out.reserve(indices.size());
    for (std::uint32_t index : indices)
        out.push_back(graphs[index]);
    return out;
}

/** The shard files of the inputs (the single file counts as one). */
std::vector<std::string>
shardFiles(const std::string &path)
{
    if (!fs::is_directory(path))
        return {path};
    std::vector<std::string> files;
    for (const auto &entry : fs::directory_iterator(path))
        if (isShardFilename(entry.path().filename().string()))
            files.push_back(entry.path().string());
    std::sort(files.begin(), files.end());
    return files;
}

struct Present
{
    Query query;
    DurationNs tFast = 0;
    DurationNs tSlow = 0;
};

} // namespace

Metrics
probeModules(const std::string &workload, const std::string &inputs,
             std::uint64_t seed)
{
    Metrics m;
    const unsigned threads = analysisThreads(workload);
    const std::string path = corpusPath(workload, inputs);
    const NameFilter components(AnalyzerConfig{}.components);

    // src/trace: openSource through a materialised corpus.
    auto t0 = Clock::now();
    std::unique_ptr<TraceSource> source = openCorpus(path);
    const TraceCorpus &corpus = source->corpus();
    m["trace.open_ms"] = {msSince(t0), "ms"};
    m["trace.events"] = {double(corpus.totalEvents()), "count"};
    const auto instances =
        static_cast<std::uint32_t>(corpus.instances().size());

    // src/waitgraph: a new builder each time, so neither build
    // inherits the other's warmed stream indices.
    {
        WaitGraphBuilder builder(corpus);
        t0 = Clock::now();
        const std::vector<WaitGraph> graphs =
            builder.buildRangeParallel(0, instances, threads);
        m["waitgraph.build_ms"] = {msSince(t0), "ms"};
        double nodes = 0;
        for (const WaitGraph &graph : graphs)
            nodes += double(graph.nodes().size());
        m["waitgraph.nodes"] = {nodes, "count"};
    }
    {
        WaitGraphBuilder builder(corpus);
        t0 = Clock::now();
        (void)builder.buildRangeParallel(0, instances, 1);
        m["waitgraph.build_1t_ms"] = {msSince(t0), "ms"};
    }

    // src/core analyzer: graphs() on a new analyzer.
    AnalyzerConfig config;
    config.threads = threads;
    std::unique_ptr<TraceSource> analyzerSource = openCorpus(path);
    Analyzer analyzer(*analyzerSource, config);
    // Hand freed heap pages back first, so the growth is this call's.
    malloc_trim(0);
    const double rssBefore = rssMb(getpid());
    t0 = Clock::now();
    const std::vector<WaitGraph> &graphs = analyzer.graphs();
    m["analyzer.graphs_ms"] = {msSince(t0), "ms"};
    m["analyzer.graphs_rss_mb"] = {rssMb(getpid()) - rssBefore, "MiB"};

    // src/core artifacts: the same call with a filled cache directory.
    const std::string cacheDir = inputs + "/../probe-artifacts";
    {
        AnalyzerConfig cached = config;
        cached.artifactCacheDir = cacheDir;
        {
            std::unique_ptr<TraceSource> fillSource = openCorpus(path);
            Analyzer fill(*fillSource, cached);
            (void)fill.graphs();
        }
        std::unique_ptr<TraceSource> reloadSource = openCorpus(path);
        Analyzer reload(*reloadSource, cached);
        t0 = Clock::now();
        (void)reload.graphs();
        m["artifacts.reload_ms"] = {msSince(t0), "ms"};
        m["artifacts.disk_mb"] = {double(treeBytes(cacheDir)) / kMiB, "MiB"};
    }
    removeTree(cacheDir);

    // src/impact over every instance graph.
    const TraceCorpus &merged = analyzer.corpus();
    ImpactAnalysis impact(merged, components);
    t0 = Clock::now();
    (void)impact.analyze(graphs, threads);
    m["impact.all_ms"] = {msSince(t0), "ms"};
    t0 = Clock::now();
    (void)impact.analyzePerScenario(graphs, threads);
    m["impact.per_scenario_ms"] = {msSince(t0), "ms"};

    // src/awg, src/mining and src/core resultjson over the fast and
    // slow classes of the script's queries.
    std::vector<Present> present;
    for (const Query &query : scriptQueries(workload, seed))
        if (merged.findScenario(query.scenario) != UINT32_MAX)
            present.push_back(
                {query, fromMs(query.tFastMs), fromMs(query.tSlowMs)});
    AwgBuilder awg(merged, components, config.awg);
    double awgMs = 0, mineMs = 0, resultMs = 0, patterns = 0, bytes = 0;
    for (const Present &p : present) {
        const ContrastClasses classes = analyzer.classify(
            merged.findScenario(p.query.scenario), p.tFast, p.tSlow);
        const std::vector<WaitGraph> fast = subset(graphs, classes.fast);
        const std::vector<WaitGraph> slow = subset(graphs, classes.slow);
        t0 = Clock::now();
        const AggregatedWaitGraph awgFast = awg.aggregate(fast, threads);
        const AggregatedWaitGraph awgSlow = awg.aggregate(slow, threads);
        awgMs += msSince(t0);

        MiningOptions mining;
        mining.maxSegmentLength = config.maxSegmentLength;
        mining.useMetaPatternGate = config.useMetaPatternGate;
        mining.tFast = p.tFast;
        mining.tSlow = p.tSlow;
        const ContrastMiner miner(merged, mining);
        t0 = Clock::now();
        const MiningResult mined = miner.mine(awgFast, awgSlow, threads);
        mineMs += msSince(t0);
        patterns += double(mined.patterns.size());

        PartialClasses tally;
        tally.fast = classes.fast.size();
        tally.middle = classes.middle.size();
        tally.slow = classes.slow.size();
        for (std::uint32_t index : classes.slow)
            tally.slowDuration += merged.instanceDurations()[index];
        const ImpactResult slowImpact = impact.analyze(slow, threads);
        t0 = Clock::now();
        const ScenarioSummary summary = summarizeScenario(
            p.query.scenario, p.tFast, p.tSlow, tally, slowImpact, awgFast,
            awgSlow, merged.symbols(), p.query.top, true);
        const std::string rendered = summary.json.render();
        resultMs += msSince(t0);
        bytes += double(rendered.size());
    }
    const double answers = double(std::max<std::size_t>(1, present.size()));
    m["awg.aggregate_ms"] = {awgMs, "ms"};
    m["mining.mine_ms"] = {mineMs, "ms"};
    m["mining.patterns"] = {patterns, "count"};
    m["resultjson.render_ms"] = {resultMs, "ms"};
    m["render.answer_bytes"] = {bytes / answers, "bytes"};

    // src/core report on an analyzer whose stages are all memoised.
    {
        std::vector<ScenarioThresholds> scenarios;
        for (const ScenarioSpec &spec : scenarioCatalog())
            if (spec.selected && merged.findScenario(spec.name) != UINT32_MAX)
                scenarios.push_back({spec.name, spec.tFast, spec.tSlow});
        (void)buildReport(analyzer, scenarios);
        t0 = Clock::now();
        (void)buildReport(analyzer, scenarios);
        m["report.render_ms"] = {msSince(t0), "ms"};
    }

    // src/core partial: encode and decode every shard's partial, then
    // fold them in shard order and finalize, as a coordinator does.
    const std::vector<std::string> files = shardFiles(path);
    std::vector<std::vector<ScenarioPartial>> decoded(present.size());
    double encodeMs = 0, decodeMs = 0, tlp1 = 0;
    for (const std::string &file : files) {
        std::unique_ptr<TraceSource> shardSource = openCorpus(file);
        Analyzer shard(*shardSource, config);
        for (std::size_t q = 0; q < present.size(); ++q) {
            const ScenarioPartial partial = shard.scenarioPartial(
                present[q].query.scenario, present[q].tFast, present[q].tSlow);
            t0 = Clock::now();
            const std::string encoded = encodeScenarioPartial(partial);
            encodeMs += msSince(t0);
            tlp1 += double(encoded.size());
            t0 = Clock::now();
            Expected<ScenarioPartial> back = decodeScenarioPartial(encoded);
            decodeMs += msSince(t0);
            if (!back)
                throw std::runtime_error(back.error().render());
            decoded[q].push_back(std::move(back.value()));
        }
    }
    double mergeMs = 0;
    for (std::vector<ScenarioPartial> &partials : decoded) {
        t0 = Clock::now();
        SymbolTable symbols;
        PartialClasses classes;
        PartialImpact slowImpact;
        PartialAwg awgFast, awgSlow;
        std::uint32_t streams = 0;
        for (ScenarioPartial &partial : partials) {
            partial.remapFrames(symbols);
            classes.merge(partial.classes);
            partial.slowImpact.rebaseStreams(streams);
            slowImpact.merge(partial.slowImpact);
            awgFast.merge(partial.awgFast);
            awgSlow.merge(partial.awgSlow);
            streams += partial.streamCount;
        }
        (void)slowImpact.finalize();
        (void)std::move(awgFast).finalize(true);
        (void)std::move(awgSlow).finalize(true);
        mergeMs += msSince(t0);
    }
    m["partial.encode_ms"] = {encodeMs, "ms"};
    m["partial.decode_ms"] = {decodeMs, "ms"};
    m["partial.merge_ms"] = {mergeMs, "ms"};
    m["partial.tlp1_bytes"] = {tlp1 / answers, "bytes"};

    // src/fleet: an in-process service ingests the inputs as shards
    // (a single file is split in eight) over consecutive windows,
    // then summarizes the trailing windows per scenario.
    {
        FleetConfig fleet;
        fleet.maxWindows = 64;
        fleet.analyzer.threads = threads;
        for (const ScenarioSpec &spec : scenarioCatalog())
            fleet.sentinel.scenarios.push_back(
                {spec.name, spec.tFast, spec.tSlow});
        FleetService service(fleet);
        std::vector<TraceCorpus> parts;
        if (files.size() == 1) {
            parts = splitCorpus(corpus, 8);
        } else {
            for (const std::string &file : files) {
                Expected<TraceCorpus> part = readCorpusFileChecked(file);
                if (!part)
                    throw std::runtime_error(part.error().render());
                parts.push_back(std::move(part.value()));
            }
        }
        std::vector<double> ingestMs;
        for (std::size_t i = 0; i < parts.size(); ++i) {
            const std::uint64_t stamp =
                1'700'000'000'000ull + (i / 4) * fleet.windowMs + i % 4;
            t0 = Clock::now();
            service.ingest("shard-" + std::to_string(i) + ".tlc",
                           std::move(parts[i]), stamp);
            ingestMs.push_back(msSince(t0));
        }
        std::vector<double> summaryMs;
        for (const Present &p : present) {
            t0 = Clock::now();
            (void)service.windowSummary(p.query.scenario, p.tFast, p.tSlow,
                                        "current", 3, p.query.top, true);
            summaryMs.push_back(msSince(t0));
        }
        m["fleet.ingest_ms"] = {median(ingestMs), "ms"};
        m["fleet.summary_ms"] = {median(summaryMs), "ms"};
    }
    return m;
}

} // namespace tlbench
