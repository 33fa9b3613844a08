/**
 * @file
 * The four workloads: batch-report, daemon-explore, cluster-gather
 * and fleet-push. README.md records why each exists and which module
 * each one is the only one to run.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "src/core/analyzer.h"
#include "src/core/partial.h"
#include "src/fleet/fleet.h"
#include "src/server/protocol.h"
#include "src/trace/serialize.h"
#include "src/trace/source.h"
#include "src/util/telemetry.h"
#include "src/workload/generator.h"
#include "src/workload/scenarios.h"
#include "workloads.h"

using namespace tracelens;
using namespace tracelens::server;

namespace tlbench
{

// Sizes, counts and rates. Thread, worker and connection counts stay
// fixed, and no workload keeps more than two analysis threads busy:
// on the 4-thread reference host, a guest on a shared machine, runs
// that kept three or four busy lost 10-20 % of their CPU time to the
// hypervisor and their timings followed it. The rounds-per-second
// figures only size the fixed script (measured on that host), they
// are never read off the clock.
namespace
{

constexpr unsigned kBatchMachines = 800;
constexpr unsigned kBatchThreads = 2;
constexpr double kBatchRoundsPerSecond = 0.6;
/**
 * The D_scn operation's corpus does not depend on --seed: the
 * operation fails on every input (see BatchReport::dscnHolds), so it
 * must fail identically in every run.
 */
constexpr std::uint64_t kFixedSeed = 20140301;
constexpr unsigned kFixedMachines = 20;

constexpr unsigned kExploreMachines = 1000;
constexpr unsigned kExploreWorkers = 2;
constexpr std::size_t kExploreConnections = 2;
constexpr std::size_t kExploreGroups = 1;
constexpr std::size_t kExploreGroupSize = 16;
constexpr double kExploreRoundsPerSecond = 16.0;

constexpr unsigned kClusterMachines = 1200;
constexpr unsigned kClusterShards = 16;
constexpr std::size_t kClusterConnections = 1;
constexpr std::size_t kClusterGroups = 4;
constexpr double kClusterRoundsPerSecond = 4.0;

constexpr unsigned kFleetShardMachines = 8;
constexpr std::size_t kFleetShardsPerWindow = 4;
/** Windows pushed in set-up: the sentinel's baseline. */
constexpr std::size_t kFleetSetupWindows = 3;
constexpr double kFleetPushesPerSecond = 4.0;
constexpr std::size_t kFleetSenders = 2;
/** The storage-encryption driver the regressed cohort adds. */
constexpr const char *kInjectedComponent = "se.sys";
constexpr std::uint64_t kFleetWindowMs = 60000;
/** Window-aligned base of the pushed timestamps (window 28333333). */
constexpr std::uint64_t kFleetEpochMs = 28333333ull * kFleetWindowMs;

std::uint64_t
rounds(double perSecond, unsigned seconds)
{
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(perSecond * seconds)));
}

constexpr std::size_t
fleetSetupShards()
{
    return kFleetSetupWindows * kFleetShardsPerWindow;
}

/** Timed pushes: whole windows, at least two. */
std::size_t
fleetTimedShards(unsigned seconds)
{
    const auto wanted = static_cast<std::size_t>(
        std::ceil(kFleetPushesPerSecond * seconds / kFleetShardsPerWindow));
    return kFleetShardsPerWindow * std::max<std::size_t>(2, wanted);
}

std::uint64_t
unixUs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

std::string
shardName(std::size_t index)
{
    char name[32];
    std::snprintf(name, sizeof name, "shard-%04zu.tlc", index);
    return name;
}

void
generate(const RunConfig &config, const std::string &out,
         std::vector<double> &generateMs)
{
    const auto start = Clock::now();
    const int code = runChild({config.self, "gen", "--workload",
                               config.workload, "--seed",
                               std::to_string(config.seed), "--seconds",
                               std::to_string(config.seconds), "--out", out},
                              out + ".log", out + ".log",
                              std::chrono::seconds(120));
    if (code != 0)
        throw std::runtime_error("input generation failed: " +
                                 readFile(out + ".log"));
    generateMs.push_back(msSince(start));
}

// ---------------------------------------------------- daemon figures

/**
 * Mean of histogram @p name over the phase between two snapshots.
 * Histogram sums are exact where bucket percentiles are quantized,
 * and means add up: client mean = service mean + client gap.
 */
double
histogramMean(const MetricsSnapshot &before, const MetricsSnapshot &after,
              const std::string &name)
{
    auto find = [&](const MetricsSnapshot &snap) -> Histogram::State {
        for (const auto &[key, state] : snap.histograms)
            if (key == name)
                return state;
        return {};
    };
    const Histogram::State from = find(before);
    const Histogram::State to = find(after);
    if (to.count <= from.count)
        return 0.0;
    return double(to.sum - from.sum) / double(to.count - from.count);
}

/** Spans one daemon recorded between two wall-clock instants. */
std::vector<SpanSnapshot>
pullSpans(const Daemon &daemon, std::uint64_t fromUs, std::uint64_t toUs)
{
    Session session = daemon.connect();
    const NodeSpans node = parseNodeSpans(
        expectOk(session.call(Method::TelemetryPull, JsonValue::makeObject()),
                 daemon.name() + " telemetry_pull")
            .result);
    std::vector<SpanSnapshot> out;
    for (const SpanSnapshot &span : node.spans) {
        const std::uint64_t at = node.epochUnixUs + span.startUs;
        if (at >= fromUs && at <= toUs)
            out.push_back(span);
    }
    return out;
}

/**
 * Self time (duration minus direct children) summed per span name.
 * Spans nest strictly per thread, so a span's children are the spans
 * one level deeper that start inside it on the same thread.
 */
void
addSelfTimes(std::vector<SpanSnapshot> spans,
             std::map<std::string, double> &selfMs)
{
    std::sort(spans.begin(), spans.end(),
              [](const SpanSnapshot &a, const SpanSnapshot &b) {
                  return std::tie(a.tid, a.startUs, a.depth) <
                         std::tie(b.tid, b.startUs, b.depth);
              });
    std::vector<std::uint64_t> childUs(spans.size(), 0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanSnapshot &span = spans[i];
        while (!open.empty()) {
            const SpanSnapshot &top = spans[open.back()];
            if (top.tid == span.tid && top.depth < span.depth &&
                span.startUs < top.startUs + top.durUs)
                break;
            open.pop_back();
        }
        if (!open.empty() && spans[open.back()].depth + 1 == span.depth)
            childUs[open.back()] += span.durUs;
        open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::uint64_t self =
            spans[i].durUs > childUs[i] ? spans[i].durUs - childUs[i] : 0;
        selfMs[spans[i].name] += double(self) / 1000.0;
    }
}

std::size_t
countSpans(const std::vector<SpanSnapshot> &spans, const std::string &name)
{
    return static_cast<std::size_t>(
        std::count_if(spans.begin(), spans.end(),
                      [&](const SpanSnapshot &s) { return s.name == name; }));
}

void
topSelfTimes(const std::map<std::string, double> &selfMs, RunResult &result)
{
    result.spanSelfMs.assign(selfMs.begin(), selfMs.end());
    std::sort(result.spanSelfMs.begin(), result.spanSelfMs.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    if (result.spanSelfMs.size() > 12)
        result.spanSelfMs.resize(12);
}

/**
 * The server-layer figures of one timed phase: the client-facing
 * daemon's mean queue wait and service time, the client's mean gap
 * over the service time, the response-cache hits counted on the
 * caching daemons over the reuse attempts, and wire bytes per
 * operation.
 */
struct ServerPhase
{
    const Daemon *front = nullptr;
    std::vector<const Daemon *> cachers;
    std::vector<const Daemon *> all;
    std::vector<MetricsSnapshot> before;
    std::uint64_t fromUs = 0;
    std::uint64_t wireBefore = 0;
    /** Whether these daemons' spans are the workload's own path. */
    bool spanTimes = true;

    void
    begin(std::uint64_t wireBytes)
    {
        before.clear();
        for (const Daemon *daemon : all)
            before.push_back(parseMetricsSnapshot(daemon->metrics()));
        fromUs = unixUs();
        wireBefore = wireBytes;
    }

    void
    end(RunResult &result, std::uint64_t wireBytes, std::uint64_t ops,
        std::uint64_t reuseAttempts, const std::vector<double> &clientMs)
    {
        const std::uint64_t toUs = unixUs();
        std::vector<MetricsSnapshot> after;
        for (const Daemon *daemon : all)
            after.push_back(parseMetricsSnapshot(daemon->metrics()));
        auto index = [&](const Daemon *daemon) {
            return static_cast<std::size_t>(
                std::find(all.begin(), all.end(), daemon) - all.begin());
        };
        const std::size_t f = index(front);
        const double serviceMs =
            histogramMean(before[f], after[f], "server.latency_us") / 1000.0;
        result.layer["server.service_ms"] = {serviceMs, "ms"};
        result.layer["server.queue_wait_ms"] = {
            histogramMean(before[f], after[f], "server.queue_wait_us") /
                1000.0,
            "ms"};
        double clientSum = 0;
        for (double ms : clientMs)
            clientSum += ms;
        result.layer["server.client_gap_ms"] = {
            clientSum / double(std::max<std::size_t>(1, clientMs.size())) -
                serviceMs,
            "ms"};
        result.layer["wire.bytes_per_op"] = {
            double(wireBytes - wireBefore) / double(std::max<std::uint64_t>(
                                                  1, ops)),
            "bytes"};

        std::map<std::string, double> selfMs;
        std::size_t hits = 0;
        for (const Daemon *daemon : all) {
            const std::vector<SpanSnapshot> spans =
                pullSpans(*daemon, fromUs, toUs);
            addSelfTimes(spans, selfMs);
            if (std::find(cachers.begin(), cachers.end(), daemon) !=
                cachers.end())
                hits += countSpans(spans, "server.response-cache-hit");
        }
        result.layer["server.cache_hit_ratio"] = {
            double(hits) / double(std::max<std::uint64_t>(1, reuseAttempts)),
            "ratio"};
        result.layer["server.cache_hit_base"] = {double(reuseAttempts),
                                                 "count"};
        if (spanTimes)
            topSelfTimes(selfMs, result);

        // Workload-specific daemon figures (printed in the traced
        // table): the coordinator's own share and the fleet metrics.
        if (all.size() > 1) {
            double worker = 0;
            for (std::size_t i = 0; i < all.size(); ++i)
                if (i != f)
                    worker = std::max(
                        worker, histogramMean(before[i], after[i],
                                              "server.latency_us") /
                                    1000.0);
            result.layer["coordinator.worker_service_ms"] = {worker, "ms"};
            result.layer["coordinator.self_ms"] = {serviceMs - worker, "ms"};
        }
        for (const char *name : {"fleet.ingest_ms", "fleet.alert_latency_ms"})
            if (histogramMean(before[f], after[f], name) > 0)
                result.layer[std::string("daemon.") + name] = {
                    histogramMean(before[f], after[f], name), "ms"};
    }
};

std::uint64_t
wireBytes(const std::vector<Session> &sessions)
{
    std::uint64_t total = 0;
    for (const Session &session : sessions) {
        const WireStats stats = session.wireStats();
        total += stats.bytesSent + stats.bytesReceived;
    }
    return total;
}

std::vector<std::string>
traceArgs(const RunConfig &config, const std::string &dir,
          const std::string &name)
{
    if (!config.traced)
        return {};
    return {"--trace-out", dir + "/" + name + ".trace.json"};
}

// ---------------------------------------------------- batch-report

/** Spans of a Chrome trace written by `--trace-out`. */
std::vector<SpanSnapshot>
chromeSpans(const std::string &path)
{
    std::vector<SpanSnapshot> spans;
    Expected<JsonValue> trace = JsonValue::parse(readFile(path));
    if (!trace)
        return spans;
    const JsonValue *events = trace.value().find("traceEvents");
    if (events == nullptr || !events->isArray())
        return spans;
    for (const JsonValue &event : events->asArray()) {
        const JsonValue *ph = event.find("ph");
        const JsonValue *args = event.find("args");
        if (ph == nullptr || !ph->isString() || ph->asString() != "X" ||
            args == nullptr)
            continue;
        auto number = [](const JsonValue *value) {
            return value != nullptr && value->isNumber()
                       ? static_cast<std::uint64_t>(value->asNumber())
                       : 0;
        };
        SpanSnapshot span;
        span.name = event.find("name")->asString();
        span.tid = static_cast<std::uint32_t>(number(event.find("tid")));
        span.depth = static_cast<std::uint32_t>(number(args->find("depth")));
        span.startUs = number(event.find("ts"));
        span.durUs = number(event.find("dur"));
        spans.push_back(std::move(span));
    }
    return spans;
}

class BatchReport : public Workload
{
  public:
    explicit BatchReport(const RunConfig &config) : config_(config) {}

    void
    setup(const std::string &dir) override
    {
        dir_ = dir;
        generate(config_, dir + "/in", generateMs_);
        corpus_ = dir + "/in/corpus.tlc";
        cache_ = dir + "/artifacts";
        (void)readFile(corpus_); // page cache warm
        fill_ = report("fill", kBatchThreads, true);
        fixedDuration_ =
            readTruth(dir + "/in/fixed/truth.tsv").totalDuration();
    }

    void
    measure(RunResult &result) override
    {
        result.generateMs = generateMs_;
        const std::uint64_t total =
            rounds(kBatchRoundsPerSecond, config_.seconds);
        double untimedMs = 0;
        std::vector<std::string> traces;
        const auto start = Clock::now();
        for (std::uint64_t round = 0; round < total; ++round) {
            for (const bool cached : {false, true}) {
                const std::string name =
                    (cached ? "reuse" : "fresh") + std::to_string(round);
                double peak = 0;
                const auto t0 = Clock::now();
                std::string text = report(name, kBatchThreads, cached, &peak);
                (cached ? result.reuse : result.fresh)
                    .ms.push_back(msSince(t0));
                result.peakRssMb = std::max(result.peakRssMb, peak);
                traces.push_back(dir_ + "/" + name + ".json");
                if (!cached && fresh_.empty())
                    fresh_ = std::move(text);
                else if (cached)
                    result.check(checkIdentical("reuse and fresh reports",
                                                text, fresh_));
            }
            const auto t0 = Clock::now();
            if (!dscnHolds())
                ++result.failed;
            untimedMs += msSince(t0);
            result.attempted += 3;
        }
        result.timedSeconds = (msSince(start) - untimedMs) / 1000.0;
        result.reuseEach = result.reuse;
        if (config_.traced) {
            std::map<std::string, double> selfMs;
            for (const std::string &trace : traces)
                addSelfTimes(chromeSpans(trace), selfMs);
            topSelfTimes(selfMs, result);
            probeServer(result);
        }
    }

    void
    check(RunResult &result) override
    {
        const Truth truth = readTruth(dir_ + "/in/truth.tsv");
        result.check(checkReportTallies(fresh_, truth));
        result.check(checkIdentical("cache-filling and fresh reports", fill_,
                                    fresh_));
        result.check(checkIdentical("1-thread and " +
                                        std::to_string(kBatchThreads) +
                                        "-thread reports",
                                    report("serial", 1, false), fresh_));

        // The figures the report prints rounded, from the same analysis.
        const std::unique_ptr<TraceSource> source = openCorpus(corpus_);
        Analyzer analyzer(*source, {});
        checkImpact("corpus", analyzer.impactAll(), result);
        for (const ScenarioSpec *spec : selectedScenarios()) {
            if (truth.count(spec->name) == 0)
                continue;
            const ScenarioAnalysis analysis =
                analyzer.analyzeScenario(spec->name, spec->tFast, spec->tSlow);
            const Tally want =
                countClasses(truth, spec->name, spec->tFast, spec->tSlow);
            if (analysis.slowDuration != want.slowDuration)
                result.fail(spec->name + ": slow-class duration " +
                            std::to_string(analysis.slowDuration) +
                            " != sum of slow instance durations " +
                            std::to_string(want.slowDuration));
            checkImpact(spec->name, analysis.slowImpact, result);
            if (analysis.coverage.itc() > analysis.coverage.ttc())
                result.fail(spec->name + ": ITC > TTC");
        }
    }

    void
    teardown() override
    {
    }

    std::string inputs() const override { return dir_ + "/in"; }

  private:
    /**
     * One `tracelens report` process over the corpus, with the
     * artifact cache when @p cached; returns what it printed and,
     * through @p peakRss, its peak resident set.
     */
    std::string
    report(const std::string &name, unsigned threads, bool cached,
           double *peakRss = nullptr)
    {
        std::vector<std::string> argv = {config_.cli,
                                         "report",
                                         corpus_,
                                         "--threads",
                                         std::to_string(threads),
                                         "--log-level",
                                         "warn"};
        if (cached) {
            argv.push_back("--artifact-cache");
            argv.push_back(cache_);
        }
        if (config_.traced) {
            argv.push_back("--trace-out");
            argv.push_back(dir_ + "/" + name + ".json");
        }
        const std::string out = dir_ + "/" + name + ".txt";
        const std::string log = dir_ + "/report.log";
        if (runChild(argv, out, log, std::chrono::seconds(120), peakRss) != 0)
            throw std::runtime_error("tracelens report failed: " +
                                     readFile(log));
        std::string text = readFile(out);
        removeTree(out);
        return text;
    }

    /**
     * The D_scn operation: corpus-wide D_scn of the fixed corpus
     * against the sum of its instance durations, as the generator
     * recorded them. ImpactAnalysis sums the initiating threads'
     * top-level event costs instead, which leaves out every gap in an
     * instance's window, so this fails on every input; it is counted
     * in `failed`, once per round.
     */
    bool
    dscnHolds()
    {
        const std::unique_ptr<TraceSource> source =
            openCorpus(dir_ + "/in/fixed/corpus.tlc");
        AnalyzerConfig config;
        config.threads = kBatchThreads;
        Analyzer analyzer(*source, config);
        const DurationNs dScn = analyzer.impactAll().dScn;
        if (dScn == fixedDuration_)
            return true;
        if (!dscnReported_)
            std::cerr << "tlbench: D_scn " << dScn
                      << " ns != sum of instance durations "
                      << fixedDuration_ << " ns (fixed corpus)\n";
        dscnReported_ = true;
        return false;
    }

    static void
    checkImpact(const std::string &what, const ImpactResult &impact,
                RunResult &result)
    {
        if (!(impact.iaOpt() >= 0.0 && impact.iaOpt() <= impact.iaWait()))
            result.fail(what + ": IA_opt outside [0, IA_wait]");
    }

    /**
     * The batch path runs no server. The traced pass still gives the
     * server layer a figure on this workload's inputs: a daemon over
     * the same corpus answers each report scenario once (fresh) and
     * once more (reuse).
     */
    void
    probeServer(RunResult &result)
    {
        Daemon daemon("probe", config_.cli,
                      {"--workers", "2", "--analysis-threads",
                       std::to_string(kBatchThreads), "--trace-out",
                       dir_ + "/probe.trace.json"},
                      dir_);
        std::vector<Session> sessions;
        sessions.push_back(daemon.connect());
        Query warm = catalogQuery(catalogScenarios().front());
        warm.tFastMs *= 0.5;
        expectOk(sessions[0].call(Method::Analyze, warm.params(corpus_)),
                 "probe warm-up");
        ServerPhase phase;
        phase.front = &daemon;
        phase.cachers = {&daemon};
        phase.all = {&daemon};
        phase.spanTimes = false;
        phase.begin(wireBytes(sessions));
        const Truth truth = readTruth(dir_ + "/in/truth.tsv");
        std::vector<double> clientMs;
        std::uint64_t ops = 0, reuse = 0;
        for (int pass = 0; pass < 2; ++pass) {
            for (const ScenarioSpec *spec : selectedScenarios()) {
                if (truth.count(spec->name) == 0)
                    continue;
                const auto t0 = Clock::now();
                expectOk(sessions[0].call(Method::Analyze,
                                          catalogQuery(spec->name).params(
                                              corpus_)),
                         "probe analyze");
                clientMs.push_back(msSince(t0));
                ++ops;
                reuse += pass;
            }
        }
        phase.end(result, wireBytes(sessions), ops, reuse, clientMs);
        daemon.stop();
    }

    RunConfig config_;
    std::string dir_;
    std::string corpus_;
    std::string cache_;
    std::string fill_;
    std::string fresh_;
    DurationNs fixedDuration_ = 0;
    bool dscnReported_ = false;
    std::vector<double> generateMs_;
};

// ------------------------------------------- closed-loop query script

/**
 * Closed-loop `analyze`/`mine` traffic over a fixed number of rounds.
 * Connection c runs rounds c, c+C, c+2C, ...: each round asks every
 * catalog scenario one fresh query, and repeats queries its
 * connection's previous round asked, so every repeat follows its
 * original on the same connection. A group of repeats is sent
 * pipelined and timed together: one round trip's wake-ups are spread
 * over the group instead of paid by every sub-millisecond repeat.
 */
class QueryScript
{
  public:
    struct Shape
    {
        std::size_t connections = 1;
        std::size_t groups = 1;
        std::size_t groupSize = 1;
        double roundsPerSecond = 1.0;
    };

    struct Answer
    {
        Query query;
        std::string render;
    };

    QueryScript(Shape shape, std::string corpus, std::uint64_t seed)
        : shape_(shape), corpus_(std::move(corpus)), seed_(seed),
          names_(catalogScenarios())
    {
    }

    /** Set-up: open the sessions and ask each scenario once. */
    void
    warmUp(const Daemon &target)
    {
        for (std::size_t c = 0; c < shape_.connections; ++c)
            sessions_.push_back(target.connect());
        for (const std::string &name : names_) {
            const Query query = catalogQuery(name);
            warm_.push_back(
                {query, expectOk(sessions_[0].call(query.method,
                                                   query.params(corpus_)),
                                 "warm-up " + name)
                            .result.render()});
        }
    }

    void
    run(RunResult &result, unsigned seconds)
    {
        const std::uint64_t total = rounds(shape_.roundsPerSecond, seconds);
        const std::size_t perRound =
            names_.size() + shape_.groups * shape_.groupSize;
        std::vector<Lane> lanes(shape_.connections);
        const auto start = Clock::now();
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < shape_.connections; ++c)
            threads.emplace_back([&, c] { runLane(c, total, lanes[c]); });
        for (std::thread &thread : threads)
            thread.join();
        result.timedSeconds = msSince(start) / 1000.0;
        for (Lane &lane : lanes) {
            result.fresh.ms.insert(result.fresh.ms.end(), lane.fresh.begin(),
                                   lane.fresh.end());
            result.reuse.ms.insert(result.reuse.ms.end(), lane.reuse.begin(),
                                   lane.reuse.end());
            result.reuseEach.ms.insert(result.reuseEach.ms.end(),
                                       lane.reuseEach.begin(),
                                       lane.reuseEach.end());
            result.failed += lane.failed;
            if (!lane.mismatch.empty())
                result.fail(lane.mismatch);
            answers_.insert(answers_.end(), lane.answers.begin(),
                            lane.answers.end());
        }
        result.attempted += total * perRound;
    }

    std::uint64_t
    reuseOps(unsigned seconds) const
    {
        return rounds(shape_.roundsPerSecond, seconds) * shape_.groups *
               shape_.groupSize;
    }

    std::vector<Session> &sessions() { return sessions_; }
    /** Warm-up answers, then every fresh answer. */
    std::vector<Answer>
    answers() const
    {
        std::vector<Answer> all = warm_;
        all.insert(all.end(), answers_.begin(), answers_.end());
        return all;
    }
    /** Every individual latency of the timed phase. */
    std::vector<double> clientMs(const RunResult &result) const
    {
        std::vector<double> all = result.fresh.ms;
        all.insert(all.end(), result.reuseEach.ms.begin(),
                   result.reuseEach.ms.end());
        return all;
    }

  private:
    struct Lane
    {
        std::vector<double> fresh, reuse, reuseEach;
        std::vector<Answer> answers;
        std::uint64_t failed = 0;
        std::string mismatch;
    };

    void
    runLane(std::size_t c, std::uint64_t total, Lane &lane)
    {
        Session &session = sessions_[c];
        std::vector<Answer> previous = warm_;
        const std::size_t n = names_.size();
        const std::size_t chunk = (n + shape_.groups - 1) / shape_.groups;
        for (std::uint64_t round = c; round < total;
             round += shape_.connections) {
            std::vector<Answer> current;
            for (std::size_t k = 0; k < n; ++k) {
                const Query query = freshQuery((k + round) % n, round, seed_);
                const auto t0 = Clock::now();
                Expected<Response> response =
                    session.call(query.method, query.params(corpus_));
                lane.fresh.push_back(msSince(t0));
                if (!response || !response.value().ok) {
                    ++lane.failed;
                } else {
                    current.push_back(
                        {query, response.value().result.render()});
                }
                if ((k + 1) % chunk == 0 || k + 1 == n)
                    repeatGroup((k / chunk) * shape_.groupSize, previous,
                                session, lane);
            }
            lane.answers.insert(lane.answers.end(), current.begin(),
                                current.end());
            if (!current.empty())
                previous = std::move(current);
        }
    }

    void
    repeatGroup(std::size_t first, const std::vector<Answer> &previous,
                Session &session, Lane &lane)
    {
        std::vector<const Answer *> originals;
        std::vector<JsonValue> params;
        for (std::size_t i = 0; i < shape_.groupSize; ++i) {
            originals.push_back(&previous[(first + i) % previous.size()]);
            params.push_back(originals.back()->query.params(corpus_));
        }
        const auto group = Clock::now();
        std::vector<Expected<std::uint64_t>> handles;
        for (std::size_t i = 0; i < shape_.groupSize; ++i)
            handles.push_back(
                session.send(originals[i]->query.method, params[i]));
        std::vector<Expected<Response>> responses;
        for (std::size_t i = 0; i < shape_.groupSize; ++i) {
            responses.push_back(handles[i]
                                    ? session.wait(handles[i].value())
                                    : Expected<Response>(handles[i].error()));
            lane.reuseEach.push_back(msSince(group));
        }
        lane.reuse.push_back(msSince(group) /
                             static_cast<double>(shape_.groupSize));
        for (std::size_t i = 0; i < shape_.groupSize; ++i) {
            const Expected<Response> &response = responses[i];
            if (!response || !response.value().ok) {
                ++lane.failed;
            } else if (lane.mismatch.empty() &&
                       response.value().result.render() !=
                           originals[i]->render) {
                lane.mismatch = "repeat of " + originals[i]->query.scenario +
                                " differs from its first answer";
            }
        }
    }

    Shape shape_;
    std::string corpus_;
    std::uint64_t seed_;
    std::vector<std::string> names_;
    std::vector<Session> sessions_;
    std::vector<Answer> warm_;
    std::vector<Answer> answers_;
};

/** Classes of every `analyze` answer, and T_slow monotonicity. */
void
checkAnalyzeAnswers(const std::vector<QueryScript::Answer> &answers,
                    const Truth &truth, RunResult &result)
{
    std::vector<ClassPoint> points;
    for (const QueryScript::Answer &answer : answers) {
        if (answer.query.method != Method::Analyze)
            continue;
        Expected<JsonValue> value = JsonValue::parse(answer.render);
        if (!value) {
            result.fail("unparsable answer");
            continue;
        }
        result.check(checkAnswerClasses(value.value(), truth,
                                        answer.query.scenario,
                                        answer.query.tFastMs,
                                        answer.query.tSlowMs));
        const JsonValue *classes = value.value().find("classes");
        const JsonValue *slow =
            classes != nullptr ? classes->find("slow") : nullptr;
        if (slow != nullptr && slow->isNumber())
            points.push_back({answer.query.scenario, answer.query.tFastMs,
                              answer.query.tSlowMs,
                              static_cast<std::uint64_t>(slow->asNumber())});
    }
    result.check(checkSlowMonotone(std::move(points)));
}

// -------------------------------------------------- daemon-explore

class DaemonExplore : public Workload
{
  public:
    explicit DaemonExplore(const RunConfig &config)
        : config_(config),
          script_({kExploreConnections, kExploreGroups, kExploreGroupSize,
                   kExploreRoundsPerSecond},
                  "", config.seed)
    {
    }

    void
    setup(const std::string &dir) override
    {
        dir_ = dir;
        generate(config_, dir + "/in", generateMs_);
        const std::string corpus = dir + "/in/corpus.tlc";
        std::vector<std::string> args = {
            "--workers", std::to_string(kExploreWorkers),
            "--analysis-threads", "1"};
        for (const std::string &arg : traceArgs(config_, dir, "daemon"))
            args.push_back(arg);
        daemon_ = std::make_unique<Daemon>("daemon", config_.cli, args, dir);
        script_ = QueryScript({kExploreConnections, kExploreGroups,
                               kExploreGroupSize, kExploreRoundsPerSecond},
                              corpus, config_.seed);
        script_.warmUp(*daemon_);
    }

    void
    measure(RunResult &result) override
    {
        result.generateMs = generateMs_;
        ServerPhase phase;
        if (config_.traced) {
            phase.front = daemon_.get();
            phase.cachers = {daemon_.get()};
            phase.all = {daemon_.get()};
            phase.begin(wireBytes(script_.sessions()));
        }
        script_.run(result, config_.seconds);
        result.peakRssMb = peakRssMb(daemon_->pid());
        if (config_.traced)
            phase.end(result, wireBytes(script_.sessions()), result.attempted,
                      script_.reuseOps(config_.seconds),
                      script_.clientMs(result));
    }

    void
    check(RunResult &result) override
    {
        checkAnalyzeAnswers(script_.answers(),
                            readTruth(dir_ + "/in/truth.tsv"), result);
    }

    void
    teardown() override
    {
        script_.sessions().clear();
        if (daemon_)
            daemon_->stop();
        daemon_.reset();
    }

    std::string inputs() const override { return dir_ + "/in"; }

  private:
    RunConfig config_;
    std::string dir_;
    std::unique_ptr<Daemon> daemon_;
    QueryScript script_;
    std::vector<double> generateMs_;
};

// -------------------------------------------------- cluster-gather

class ClusterGather : public Workload
{
  public:
    explicit ClusterGather(const RunConfig &config)
        : config_(config), script_(shape(), "", config.seed)
    {
    }

    void
    setup(const std::string &dir) override
    {
        dir_ = dir;
        generate(config_, dir + "/in", generateMs_);
        shards_ = dir + "/in/shards";
        auto worker = [&](const std::string &name) {
            std::vector<std::string> args = {"--workers",
                                             "2",
                                             "--analysis-threads",
                                             "1",
                                             "--max-sessions",
                                             "64"};
            for (const std::string &arg : traceArgs(config_, dir, name))
                args.push_back(arg);
            return std::make_unique<Daemon>(name, config_.cli, args, dir);
        };
        w1_ = worker("worker1");
        w2_ = worker("worker2");
        std::vector<std::string> args = {
            "--workers",         "2",
            "--coordinator",     "--cluster-workers",
            w1_->addr() + "," + w2_->addr(),
            "--shard-deadline-ms", "60000"};
        for (const std::string &arg : traceArgs(config_, dir, "coordinator"))
            args.push_back(arg);
        coordinator_ =
            std::make_unique<Daemon>("coordinator", config_.cli, args, dir);
        script_ = QueryScript(shape(), shards_, config_.seed);
        script_.warmUp(*coordinator_);
    }

    void
    measure(RunResult &result) override
    {
        result.generateMs = generateMs_;
        ServerPhase phase;
        if (config_.traced) {
            phase.front = coordinator_.get();
            phase.cachers = {w1_.get(), w2_.get()};
            phase.all = {coordinator_.get(), w1_.get(), w2_.get()};
            phase.begin(wireBytes(script_.sessions()));
        }
        script_.run(result, config_.seconds);
        result.peakRssMb = peakRssMb(coordinator_->pid()) +
                           peakRssMb(w1_->pid()) + peakRssMb(w2_->pid());
        if (config_.traced)
            phase.end(result, wireBytes(script_.sessions()), result.attempted,
                      script_.reuseOps(config_.seconds) * kClusterShards,
                      script_.clientMs(result));
    }

    void
    check(RunResult &result) override
    {
        const std::vector<QueryScript::Answer> answers = script_.answers();
        checkAnalyzeAnswers(answers, readTruth(dir_ + "/in/truth.tsv"),
                            result);
        // A single-node daemon over the same shard directory answers a
        // sample: the warm-up queries and the first two rounds.
        Daemon single("single", config_.cli, {"--workers", "2"}, dir_);
        Session session = single.connect();
        const std::size_t sample = std::min<std::size_t>(
            answers.size(), 3 * catalogScenarios().size());
        for (std::size_t i = 0; i < sample; ++i) {
            const Query &query = answers[i].query;
            Expected<Response> response =
                session.call(query.method, query.params(shards_));
            if (!response || !response.value().ok) {
                result.fail("single-node " + query.scenario + " failed");
                continue;
            }
            Expected<JsonValue> gathered = JsonValue::parse(answers[i].render);
            if (!gathered) {
                result.fail("unparsable gathered answer");
                continue;
            }
            result.check(
                checkGathered(gathered.value(), response.value().result));
        }
        for (const QueryScript::Answer &answer : answers)
            if (answer.render.find("\"partial_results\"") !=
                    std::string::npos ||
                answer.render.find("\"missing_shards\"") != std::string::npos)
                result.fail("a gathered answer is degraded");
        single.stop();
    }

    void
    teardown() override
    {
        script_.sessions().clear();
        for (auto *daemon : {&coordinator_, &w1_, &w2_}) {
            if (*daemon)
                (*daemon)->stop();
            daemon->reset();
        }
    }

    std::string inputs() const override { return dir_ + "/in"; }

  private:
    static QueryScript::Shape
    shape()
    {
        return {kClusterConnections, kClusterGroups, 1,
                kClusterRoundsPerSecond};
    }

    RunConfig config_;
    std::string dir_;
    std::string shards_;
    std::unique_ptr<Daemon> w1_, w2_, coordinator_;
    QueryScript script_;
    std::vector<double> generateMs_;
};

// ------------------------------------------------------ fleet-push

class FleetPush : public Workload
{
  public:
    explicit FleetPush(const RunConfig &config) : config_(config) {}

    void
    setup(const std::string &dir) override
    {
        dir_ = dir;
        generate(config_, dir + "/in", generateMs_);
        spool_ = dir + "/spool";
        makeDirs(spool_);
        std::vector<std::string> args = {
            "--workers",         "2",
            "--analysis-threads", "1",
            "--watch",           spool_,
            "--window-ms",       std::to_string(kFleetWindowMs),
            "--max-windows",     "64",
            "--poll-ms",         "250",
            "--baseline-windows", "3",
            "--max-line-bytes",  std::to_string(64u << 20)};
        for (const std::string &arg : traceArgs(config_, dir, "fleet"))
            args.push_back(arg);
        daemon_ = std::make_unique<Daemon>("fleet", config_.cli, args, dir);

        const std::size_t total =
            fleetSetupShards() + fleetTimedShards(config_.seconds);
        pushes_.clear();
        for (std::size_t i = 0; i < total; ++i) {
            IngestPushRequest request;
            request.name = shardName(i);
            request.payloadBase64 =
                base64Encode(readFile(dir + "/in/push/" + request.name));
            request.fleetRevision = fleetRevision();
            request.timestampMs =
                kFleetEpochMs + (i / kFleetShardsPerWindow) * kFleetWindowMs +
                (i % kFleetShardsPerWindow) * 1000;
            pushes_.push_back(request.toParams());
        }
        for (std::size_t c = 0; c < 2 * kFleetSenders; ++c)
            sessions_.push_back(daemon_->connect());
        // The baseline windows land in set-up; a batch `analyze` over
        // the spool opens the warm session that every push then
        // updates.
        for (std::size_t i = 0; i < fleetSetupShards(); ++i)
            expectOk(sessions_[0].call(Method::IngestPush, pushes_[i]),
                     "set-up push");
        Query warm = catalogQuery(catalogScenarios().front());
        expectOk(sessions_[0].call(Method::Analyze, warm.params(spool_)),
                 "warm session");
        expectOk(sessions_[0].call(Method::WindowSummary, summary(0)),
                 "warm summary");
    }

    void
    measure(RunResult &result) override
    {
        result.generateMs = generateMs_;
        ServerPhase phase;
        if (config_.traced) {
            phase.front = daemon_.get();
            phase.cachers = {daemon_.get()};
            phase.all = {daemon_.get()};
            phase.begin(wireBytes(sessions_));
        }
        const std::size_t timed = pushes_.size() - fleetSetupShards();
        const auto period = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / kFleetPushesPerSecond));
        std::vector<Sender> senders(2 * kFleetSenders);
        const auto start = Clock::now() + std::chrono::milliseconds(20);
        std::vector<std::thread> threads;
        for (std::size_t s = 0; s < senders.size(); ++s) {
            threads.emplace_back([&, s] {
                const bool push = s < kFleetSenders;
                const std::size_t lane = s % kFleetSenders;
                for (std::size_t i = lane; i < timed; i += kFleetSenders) {
                    const auto due = start + period * i +
                                     (push ? Clock::duration::zero()
                                           : period / 2);
                    std::this_thread::sleep_until(due);
                    const auto sent = Clock::now();
                    senders[s].lateMs.push_back(
                        std::chrono::duration<double, std::milli>(sent - due)
                            .count());
                    Expected<Response> response =
                        push ? sessions_[s].call(
                                   Method::IngestPush,
                                   pushes_[fleetSetupShards() + i])
                             : sessions_[s].call(Method::WindowSummary,
                                                 summary(i));
                    senders[s].ms.push_back(
                        std::chrono::duration<double, std::milli>(
                            Clock::now() - due)
                            .count());
                    if (!response || !response.value().ok)
                        ++senders[s].failed;
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
        result.timedSeconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        double lateMax = 0;
        for (std::size_t s = 0; s < senders.size(); ++s) {
            Samples &into = s < kFleetSenders ? result.fresh : result.reuse;
            into.ms.insert(into.ms.end(), senders[s].ms.begin(),
                           senders[s].ms.end());
            if (s >= kFleetSenders)
                result.reuseEach.ms.insert(result.reuseEach.ms.end(),
                                           senders[s].ms.begin(),
                                           senders[s].ms.end());
            result.failed += senders[s].failed;
            for (double late : senders[s].lateMs)
                lateMax = std::max(lateMax, late);
        }
        result.attempted += 2 * timed;
        result.peakRssMb = peakRssMb(daemon_->pid());
        if (config_.traced) {
            std::vector<double> client = result.fresh.ms;
            client.insert(client.end(), result.reuse.ms.begin(),
                          result.reuse.ms.end());
            phase.end(result, wireBytes(sessions_), result.attempted, timed,
                      client);
            result.layer["fleet.send_lateness_ms"] = {lateMax, "ms"};
        }
    }

    void
    check(RunResult &result) override
    {
        Session &session = sessions_[0];
        AlertsRequest request;
        const Response answer =
            expectOk(session.call(Method::Alerts, request.toParams()),
                     "alerts");
        std::vector<Alert> alerts;
        if (const JsonValue *list = answer.result.find("alerts");
            list != nullptr && list->isArray())
            for (const JsonValue &item : list->asArray())
                if (std::optional<Alert> alert = parseAlert(item))
                    alerts.push_back(*alert);
        const std::uint64_t regressed =
            kFleetEpochMs / kFleetWindowMs +
            (pushes_.size() - 1) / kFleetShardsPerWindow;
        result.check(checkAlerts(alerts, regressed, kInjectedComponent));
        if (config_.traced)
            result.layer["fleet.alerts"] = {double(alerts.size()), "count"};

        for (const std::string &name : catalogScenarios()) {
            WindowSummaryRequest all;
            all.scenario = name;
            all.windows = "all";
            const Response rolling = expectOk(
                session.call(Method::WindowSummary, all.toParams()),
                "all-windows summary");
            const JsonValue *summary = rolling.result.find("summary");
            const Response batch = expectOk(
                session.call(Method::Analyze,
                             catalogQuery(name).params(spool_)),
                "batch analyze over the spool");
            result.check(checkIdentical(
                name + " all-windows summary and batch analyze",
                summary != nullptr ? summary->render() : "",
                batch.result.render()));
        }
    }

    void
    teardown() override
    {
        sessions_.clear();
        if (daemon_)
            daemon_->stop();
        daemon_.reset();
    }

    std::string inputs() const override { return dir_ + "/in"; }

  private:
    struct Sender
    {
        std::vector<double> ms, lateMs;
        std::uint64_t failed = 0;
    };

    /**
     * The i-th summary: trailing three windows, the selected scenarios
     * in turn (each is common enough to be in any three windows).
     */
    JsonValue
    summary(std::size_t i) const
    {
        const std::vector<const ScenarioSpec *> names = selectedScenarios();
        WindowSummaryRequest request;
        request.scenario = names[i % names.size()]->name;
        request.windows = "current";
        request.trailing = 3;
        return request.toParams();
    }

    RunConfig config_;
    std::string dir_;
    std::string spool_;
    std::unique_ptr<Daemon> daemon_;
    std::vector<Session> sessions_;
    std::vector<JsonValue> pushes_;
    std::vector<double> generateMs_;
};

TruthRows
truthRows(const TraceCorpus &corpus)
{
    TruthRows rows;
    const auto scenarios = corpus.instanceScenarios();
    const auto durations = corpus.instanceDurations();
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        rows.emplace_back(corpus.scenarioName(scenarios[i]), durations[i]);
    return rows;
}

} // namespace

int
generateInputs(const std::string &workload, std::uint64_t seed,
               unsigned seconds, const std::string &out)
{
    makeDirs(out);
    CorpusSpec spec;
    spec.seed = seed;
    if (workload == "fleet-push") {
        // The set-up windows' shards, then the timed pushes. Calm
        // windows have no storage encryption and few slow disks; the
        // last window is the regressed cohort: every machine encrypted
        // (the se.sys driver) and most disks slow. Calm windows
        // without se.sys are what lets the check tell the regression
        // apart from the sentinel's alerts on calm windows.
        makeDirs(out + "/push");
        const std::size_t total =
            fleetSetupShards() + fleetTimedShards(seconds);
        for (std::size_t i = 0; i < total; ++i) {
            CorpusSpec shard = spec;
            shard.seed = seed * 1000 + i;
            shard.machines = kFleetShardMachines;
            const bool regressed = i + kFleetShardsPerWindow >= total;
            shard.encryptedFraction = regressed ? 1.0 : 0.0;
            shard.hddFraction = regressed ? 0.9 : 0.1;
            writeCorpusFile(generateCorpus(shard),
                            out + "/push/" + shardName(i));
        }
        return 0;
    }
    spec.machines = workload == "batch-report"     ? kBatchMachines
                    : workload == "daemon-explore" ? kExploreMachines
                    : workload == "cluster-gather" ? kClusterMachines
                                                   : 0;
    if (spec.machines == 0)
        return 2;
    if (workload == "batch-report") {
        CorpusSpec fixed;
        fixed.seed = kFixedSeed;
        fixed.machines = kFixedMachines;
        const TraceCorpus corpus = generateCorpus(fixed);
        makeDirs(out + "/fixed");
        writeCorpusFile(corpus, out + "/fixed/corpus.tlc");
        writeTruth(out + "/fixed/truth.tsv", truthRows(corpus));
    }
    const TraceCorpus corpus = generateCorpus(spec);
    if (workload == "cluster-gather")
        writeShardedCorpusDir(corpus, out + "/shards", kClusterShards);
    else
        writeCorpusFile(corpus, out + "/corpus.tlc");
    writeTruth(out + "/truth.tsv", truthRows(corpus));
    return 0;
}

unsigned
analysisThreads(const std::string &workload)
{
    return workload == "batch-report" ? kBatchThreads : 1;
}

std::string
corpusPath(const std::string &workload, const std::string &inputs)
{
    if (workload == "cluster-gather")
        return inputs + "/shards";
    if (workload == "fleet-push")
        return inputs + "/push";
    return inputs + "/corpus.tlc";
}

std::vector<Query>
scriptQueries(const std::string &workload, std::uint64_t seed)
{
    std::vector<Query> queries;
    if (workload == "daemon-explore" || workload == "cluster-gather") {
        for (std::size_t k = 0; k < catalogScenarios().size(); ++k)
            queries.push_back(freshQuery(k, 0, seed));
    } else {
        for (const ScenarioSpec *spec : selectedScenarios())
            queries.push_back(catalogQuery(spec->name));
    }
    return queries;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "batch-report", "daemon-explore", "cluster-gather", "fleet-push"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const RunConfig &config)
{
    if (config.workload == "batch-report")
        return std::make_unique<BatchReport>(config);
    if (config.workload == "daemon-explore")
        return std::make_unique<DaemonExplore>(config);
    if (config.workload == "cluster-gather")
        return std::make_unique<ClusterGather>(config);
    if (config.workload == "fleet-push")
        return std::make_unique<FleetPush>(config);
    throw std::runtime_error("unknown workload " + config.workload);
}

RunResult
runWorkload(const RunConfig &config, bool keepInputs)
{
    RunResult result;
    std::unique_ptr<Workload> workload;
    std::string dir;
    for (int i = 0; i < config.setups; ++i) {
        if (workload) {
            workload->teardown();
            removeTree(dir);
        }
        dir = config.dir + "/setup" + std::to_string(i);
        makeDirs(dir);
        const auto start = Clock::now();
        workload = makeWorkload(config);
        workload->setup(dir);
        result.setupSeconds.push_back(msSince(start) / 1000.0);
    }
    try {
        workload->measure(result);
        workload->check(result);
    } catch (...) {
        workload->teardown();
        throw;
    }
    workload->teardown();
    if (keepInputs)
        result.inputs = workload->inputs();
    else
        removeTree(dir);
    return result;
}

} // namespace tlbench
