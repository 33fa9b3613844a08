/**
 * @file
 * The four workloads and the run that drives them.
 *
 * A run sets a workload up several times (reporting the median set-up
 * time), then executes a fixed seeded script on the last set-up,
 * timing fresh and reuse operations apart, and finally checks the
 * outputs. The script's length is fixed by --seconds, not by the
 * clock, so every run's medians are taken over the same population.
 */

#ifndef TLBENCH_WORKLOADS_H
#define TLBENCH_WORKLOADS_H

#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace tlbench
{

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned seconds = 10;
    /** Record spans and daemon-side figures (the traced pass). */
    bool traced = false;
    /** Set-ups per run; the last one is measured. */
    int setups = 3;
    /** The `tracelens` CLI binary. */
    std::string cli;
    /** This binary (the input generator runs as `self gen`). */
    std::string self;
    /** Scratch root for this run; removed at the end. */
    std::string dir;
};

struct RunResult
{
    bool correct = true;
    std::string failure; //!< First failed check.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    Samples fresh;
    /** Reuse latencies as timed (per group where grouped). */
    Samples reuse;
    /** Every reuse operation's own latency (reference tails). */
    Samples reuseEach;
    double timedSeconds = 0;
    std::vector<double> setupSeconds;
    std::vector<double> generateMs;
    double peakRssMb = 0;

    /** Per-layer figures the workload's daemons report (traced). */
    Metrics layer;
    /** Span self-time per span name over the timed phase (traced). */
    std::vector<std::pair<std::string, double>> spanSelfMs;
    /** Inputs kept for the module probes (traced). */
    std::string inputs;

    void
    fail(const std::string &why)
    {
        if (correct)
            failure = why;
        correct = false;
    }
    /** Record a check's result (empty = passed). */
    void
    check(const std::string &why)
    {
        if (!why.empty())
            fail(why);
    }
};

/** One workload's set-up, script and checks. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Generate inputs under @p dir, start daemons, warm up. */
    virtual void setup(const std::string &dir) = 0;
    /** Run the timed script. */
    virtual void measure(RunResult &result) = 0;
    /** Check the outputs (not timed). */
    virtual void check(RunResult &result) = 0;
    /** Stop every process the set-up started. */
    virtual void teardown() = 0;
    /** Where the module probes find this workload's inputs. */
    virtual std::string inputs() const = 0;
};

std::unique_ptr<Workload> makeWorkload(const RunConfig &config);

/** Names accepted by --workload. */
const std::vector<std::string> &workloadNames();

/** Set up, measure, check and tear down one workload. */
RunResult runWorkload(const RunConfig &config, bool keepInputs);

/** Analysis threads the workload runs at (the probes use the same). */
unsigned analysisThreads(const std::string &workload);

/** The corpus (file or shard directory) under the workload's inputs. */
std::string corpusPath(const std::string &workload, const std::string &inputs);

/** The queries the workload's script asks first (the probes ask the
 *  same ones). */
std::vector<Query> scriptQueries(const std::string &workload,
                                 std::uint64_t seed);

/**
 * In-process per-layer probes: time calls into each module's public
 * functions over the workload's inputs under @p inputs, at the
 * workload's analysis thread count.
 */
Metrics probeModules(const std::string &workload, const std::string &inputs,
                     std::uint64_t seed);

/** The `gen` child: write @p workload's inputs under @p out. */
int generateInputs(const std::string &workload, std::uint64_t seed,
                   unsigned seconds, const std::string &out);

} // namespace tlbench

#endif // TLBENCH_WORKLOADS_H
