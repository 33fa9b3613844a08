/**
 * @file
 * Shared pieces of the tlbench runner: timing and statistics, child
 * processes and daemons, the generator's ground truth, the workload
 * scripts, and the correctness checkers.
 *
 * The benchmark measures tracelens from outside: it calls the
 * library's public functions in-process, drives `tracelens serve`
 * daemons over the typed client, and reads the daemons' `metrics`
 * and `telemetry_pull` methods. Nothing here reaches into src/.
 */

#ifndef TLBENCH_BENCH_H
#define TLBENCH_BENCH_H

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/fleet/alerts.h"
#include "src/server/client.h"
#include "src/trace/source.h"
#include "src/util/json.h"
#include "src/util/types.h"

namespace tlbench
{

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

// ------------------------------------------------------------ metrics

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Metric name -> value, in name order. */
using Metrics = std::map<std::string, Metric>;

/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> values);

/** Nearest-rank percentile, q in [0, 1]; 0 when empty. */
double percentile(std::vector<double> values, double q);

/** A named set of latency samples in milliseconds. */
struct Samples
{
    std::vector<double> ms;
    double p50() const { return median(ms); }
};

// ------------------------------------------------------- processes

/** Peak resident set (VmHWM) of @p pid in MiB; 0 if unreadable. */
double peakRssMb(pid_t pid);
/** Current resident set (VmRSS) of @p pid in MiB; 0 if unreadable. */
double rssMb(pid_t pid);

/**
 * One child process. The destructor kills and reaps a child that is
 * still running, so no process outlives its owner.
 */
class Child
{
  public:
    Child() = default;
    ~Child();
    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    /** Start @p argv with stdout written to @p outPath and stderr
     *  appended to @p errPath (they may be the same file). */
    static std::unique_ptr<Child> spawn(const std::vector<std::string> &argv,
                                        const std::string &outPath,
                                        const std::string &errPath);

    pid_t pid() const { return pid_; }
    bool running() const { return pid_ > 0; }

    /** Wait up to @p timeout for exit; exit code, or -1 on timeout or
     *  abnormal termination (the child is then killed and reaped). */
    int wait(std::chrono::milliseconds timeout);

    /** Peak resident set of the reaped child, in MiB. */
    double peakRssMb() const { return peakRssMb_; }

    /** SIGKILL and reap. */
    void kill();

  private:
    pid_t pid_ = -1;
    double peakRssMb_ = 0;
};

/** Run @p argv to completion; returns its exit code (-1 on failure)
 *  and, through @p peakRss, the child's peak resident set in MiB. */
int runChild(const std::vector<std::string> &argv, const std::string &outPath,
             const std::string &errPath, std::chrono::milliseconds timeout,
             double *peakRss = nullptr);

/**
 * A `tracelens serve` process on an ephemeral localhost port, with
 * its log in the run directory.
 */
class Daemon
{
  public:
    Daemon(std::string name, const std::string &cli,
           const std::vector<std::string> &serveArgs,
           const std::string &dir);
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &name() const { return name_; }
    std::string addr() const { return "127.0.0.1:" + std::to_string(port_); }
    pid_t pid() const { return child_ ? child_->pid() : -1; }

    /** A new v2 session to this daemon (throws on failure). */
    tracelens::server::Session connect() const;

    /** The `metrics` method's snapshot (throws on failure). */
    tracelens::JsonValue metrics() const;

    /** Graceful shutdown over the wire, then reap (kill on timeout). */
    void stop();

  private:
    std::string name_;
    std::string log_;
    std::unique_ptr<Child> child_;
    std::uint16_t port_ = 0;
};

/** Throws std::runtime_error with @p what on a failed call. */
tracelens::server::Response expectOk(
    tracelens::Expected<tracelens::server::Response> response,
    const std::string &what);

// ---------------------------------------------------------- files

/** openSource() over @p path; throws with the source error. */
std::unique_ptr<tracelens::TraceSource> openCorpus(const std::string &path);

void makeDirs(const std::string &path);
void removeTree(const std::string &path);
std::string readFile(const std::string &path);
/** Total size of the regular files under @p path, in bytes. */
std::uint64_t treeBytes(const std::string &path);

// ------------------------------------------------------ ground truth

/** (scenario name, instance duration) rows, in corpus order. */
using TruthRows = std::vector<std::pair<std::string, tracelens::DurationNs>>;

/**
 * The generator's own record of what it produced, written by the
 * `gen` child before the corpus is ever decoded: one
 * (scenario, duration) row per instance, in corpus order. The
 * checkers count classes from it, independently of the analysis.
 */
struct Truth
{
    TruthRows instances;

    /** Instances of @p scenario. */
    std::uint64_t count(const std::string &scenario) const;
    /** Sum of all instance durations. */
    tracelens::DurationNs totalDuration() const;
};

struct Tally
{
    std::uint64_t fast = 0;
    std::uint64_t middle = 0;
    std::uint64_t slow = 0;
    tracelens::DurationNs slowDuration = 0;
};

/** The paper's classification, counted from the truth rows. */
Tally countClasses(const Truth &truth, const std::string &scenario,
                   tracelens::DurationNs tFast, tracelens::DurationNs tSlow);

void writeTruth(const std::string &path, const TruthRows &rows);
Truth readTruth(const std::string &path);

// ------------------------------------------------------- checkers
//
// Each returns an empty string when the output passes and a
// one-line reason when it does not. They take plain outputs so the
// benchmark's tests can hand them deliberately altered answers.

/** A `tracelens report` text against the truth: instance count and
 *  every scenario's fast/middle/slow tally. */
std::string checkReportTallies(const std::string &report, const Truth &truth);

/** Two renderings that must be byte-identical. */
std::string checkIdentical(const std::string &what, const std::string &a,
                           const std::string &b);

/** An `analyze`/`mine` answer's class tally against the truth. */
std::string checkAnswerClasses(const tracelens::JsonValue &answer,
                               const Truth &truth, const std::string &scenario,
                               double tFastMs, double tSlowMs);

/** One answered query, for the monotonicity check. */
struct ClassPoint
{
    std::string scenario;
    double tFastMs = 0;
    double tSlowMs = 0;
    std::uint64_t slow = 0;
};

/** For a fixed scenario and T_fast, the slow class never grows as
 *  T_slow rises. */
std::string checkSlowMonotone(std::vector<ClassPoint> points);

/** A coordinator answer against the single-node answer to the same
 *  query: byte-identical, and no degradation markers. */
std::string checkGathered(const tracelens::JsonValue &gathered,
                          const tracelens::JsonValue &single);

/**
 * The sentinel's alerts: at least one in @p regressedWindow names the
 * component the regression injected, and no (rule, scenario,
 * component, window) repeats.
 */
std::string checkAlerts(const std::vector<tracelens::Alert> &alerts,
                        std::uint64_t regressedWindow,
                        const std::string &injectedComponent);

// ---------------------------------------------------------- scripts

/** One query of a closed-loop script (`analyze` or `mine`). */
struct Query
{
    tracelens::server::Method method = tracelens::server::Method::Analyze;
    std::string scenario;
    double tFastMs = 0;
    double tSlowMs = 0;
    std::size_t top = 5;

    tracelens::JsonValue params(const std::string &corpus) const;
};

/** Catalog thresholds in milliseconds (the warm-up query). */
Query catalogQuery(const std::string &scenario);

/**
 * Round @p round's fresh query for catalog scenario @p index: its
 * thresholds are unique to the round, so no earlier query asked it.
 * Rounds sixteen apart share T_fast and raise T_slow, which is what
 * the monotonicity check compares.
 */
Query freshQuery(std::size_t index, std::uint64_t round, std::uint64_t seed);

/** Every catalog scenario name, selected and background. */
std::vector<std::string> catalogScenarios();

} // namespace tlbench

#endif // TLBENCH_BENCH_H
