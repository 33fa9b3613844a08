/**
 * @file
 * Impact analysis (paper Section 3).
 *
 * Given scenario-instance Wait Graphs and a component filter (e.g.
 * "*.sys" for all device drivers), the impact analysis measures:
 *
 *  - D_scn: aggregated execution time of all instances (sum of the
 *    time periods of top-level events, instance by instance),
 *  - D_wait: aggregated duration of *top-level* wait events of the
 *    chosen components (BFS that does not descend into counted waits,
 *    so child events already covered by a parent are not re-counted),
 *  - D_run: aggregated duration of running events whose callstacks
 *    contain the chosen components,
 *  - D_waitdist: D_wait with duplicate wait events (same stream event
 *    appearing in multiple instances' graphs) counted once,
 *
 * and derives the output metrics:
 *
 *  - IA_run  = D_run / D_scn,
 *  - IA_wait = D_wait / D_scn,
 *  - IA_opt  = (D_wait - D_waitdist) / D_scn — the share of waiting
 *    introduced by cost propagation, an upper bound on the optimization
 *    potential.
 *
 * The scan splits at the instance boundary: collect() reduces one
 * graph to its ImpactContribution, which depends on neither the other
 * instances nor the thresholds, and PartialImpact (src/core/partial.h)
 * folds contributions in instance order. The Analyzer keeps each
 * instance's contribution, so a query at new thresholds only folds
 * its slow class's contributions.
 *
 * The same scan splits the component time by module (ComponentSplit),
 * answering "which driver hurts the most?" without a second walk.
 */

#ifndef TRACELENS_IMPACT_IMPACT_H
#define TRACELENS_IMPACT_IMPACT_H

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/trace/stream.h"
#include "src/util/wildcard.h"
#include "src/waitgraph/waitgraph.h"

namespace tracelens
{

/** Aggregated impact metrics for one set of instances. */
struct ImpactResult
{
    DurationNs dScn = 0;      //!< Total instance duration.
    DurationNs dWait = 0;     //!< Total component wait duration.
    DurationNs dRun = 0;      //!< Total component running duration.
    DurationNs dWaitDist = 0; //!< Distinct-wait duration.
    std::size_t instances = 0;

    /** IA_run = D_run / D_scn. */
    double iaRun() const;
    /** IA_wait = D_wait / D_scn. */
    double iaWait() const;
    /** IA_opt = (D_wait - D_waitdist) / D_scn. */
    double iaOpt() const;
    /** D_wait / D_waitdist: average instances one wait propagates to. */
    double waitAmplification() const;

    /** One-line summary for reports. */
    std::string render() const;
};

/** Aggregated impact of one component (module). */
struct ComponentImpact
{
    std::string component;
    DurationNs wait = 0;      //!< Top-level wait time attributed here.
    DurationNs run = 0;       //!< Running time attributed here.
    std::uint64_t waitEvents = 0;

    DurationNs total() const { return wait + run; }
};

/**
 * One component's share of one instance graph: the top-level matching
 * waits whose signature (topmost matching frame) it owns, and every
 * running node whose signature it owns. Unlike D_run, a running event
 * reached twice in one graph counts twice.
 */
struct ComponentShare
{
    std::uint32_t component = 0; //!< SymbolTable::componentId.
    FrameId frame = kNoFrame;    //!< A frame of the component (its name).
    DurationNs wait = 0;
    DurationNs run = 0;
    std::uint64_t waitEvents = 0;
};

/**
 * One instance graph's share of the impact metrics: the sums, which
 * merge commutatively, and the matched top-level waits in BFS order,
 * whose D_waitdist dedup must be replayed in instance order
 * (PartialImpact::absorbInstance).
 */
struct ImpactContribution
{
    DurationNs dScn = 0;
    DurationNs dRun = 0;
    /** Matched top-level waits (ref, clipped cost), in BFS order. */
    std::vector<std::pair<EventRef, DurationNs>> waitHits;
    /** Per-component split, one entry per component matched. */
    std::vector<ComponentShare> components;
};

/**
 * The per-component split of a set of instances: their contributions'
 * component shares summed by component. Integer sums, so the fold
 * order does not matter.
 */
class ComponentSplit
{
  public:
    void absorb(const ImpactContribution &contribution);

    /** Every component matched, heaviest total first, ties by name. */
    std::vector<ComponentImpact> finalize(const SymbolTable &symbols) const;

  private:
    /** Indexed by component id; frame is kNoFrame where none matched. */
    std::vector<ComponentShare> byId_;
};

/**
 * Measures component performance impact over Wait Graphs.
 *
 * The distinct-wait set is tracked per analyze() call, so a single call
 * over many instances yields the corpus-level D_waitdist.
 */
class ImpactAnalysis
{
  public:
    /**
     * @param corpus Corpus the graphs were built from.
     * @param components Component name filter (e.g. {"*.sys"}).
     */
    ImpactAnalysis(const TraceCorpus &corpus, NameFilter components);

    /**
     * Aggregate impact over the given instance graphs.
     *
     * @param threads Worker count for the per-graph scan (0 = all
     *        hardware threads, 1 = serial). The D_waitdist dedup is
     *        order-sensitive (the same wait event can carry different
     *        window-clipped costs in different graphs), so the scan is
     *        parallelized per graph and the dedup fold runs serially
     *        in graph order — the result is bit-identical to the
     *        serial path for every thread count.
     */
    ImpactResult analyze(std::span<const WaitGraph> graphs,
                         unsigned threads = 1) const;

    /**
     * Aggregate impact separately per scenario id. Note D_waitdist is
     * de-duplicated within each scenario's own instance set. Same
     * determinism contract as analyze().
     */
    std::unordered_map<std::uint32_t, ImpactResult>
    analyzePerScenario(std::span<const WaitGraph> graphs,
                       unsigned threads = 1) const;

    /**
     * Scan one graph: its contribution, for the caller to fold in
     * instance order. Thread-safe: reads only the filter's match
     * column, which the constructor primed.
     */
    ImpactContribution collect(const WaitGraph &graph) const;

    const NameFilter &components() const { return components_; }

  private:
    const TraceCorpus &corpus_;
    NameFilter components_;
    /** The filter's match column; the corpus interns no frame while
     *  this analysis lives. */
    std::span<const char> matches_;
};

/**
 * Split component impact by module over a set of wait graphs: each
 * graph's collect() shares, folded by a ComponentSplit. A top-level
 * matching wait's time goes to the component of its topmost matching
 * frame, as do running samples. Sorted by total time descending.
 */
std::vector<ComponentImpact>
impactByComponent(const TraceCorpus &corpus,
                  std::span<const WaitGraph> graphs,
                  const NameFilter &components);

} // namespace tracelens

#endif // TRACELENS_IMPACT_IMPACT_H
