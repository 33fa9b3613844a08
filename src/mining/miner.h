/**
 * @file
 * Contrast pattern mining (paper Section 4.2.3).
 *
 * Given the Aggregated Wait Graphs of a fast and a slow instance class,
 * the miner works in three steps:
 *
 *  1. Meta-pattern enumeration: all downward path segments of length
 *     1..k in each AWG are projected to Signature Set Tuples; segments
 *     sharing a tuple aggregate their P.C (end-node cost) and P.N
 *     (end-node occurrence count).
 *  2. Meta-pattern contrast discovery, by two criteria:
 *      (a) a meta-pattern appears only in the slow class;
 *      (b) a meta-pattern is common to both classes but its average
 *          cost ratio exceeds the threshold ratio:
 *          (Ps.C / Ps.N) / (Pf.C / Pf.N) > T_slow / T_fast.
 *  3. Contrast-pattern discovery: each full root-to-leaf path of the
 *     slow AWG that contains a contrast meta-pattern (one of its own
 *     length-<=k sub-segments projects onto one) is selected;
 *     identical path patterns merge their P.C / P.N, and results are
 *     ranked by impact P.C / P.N.
 *
 * The steps run over two AwgColumns of one PathTrie
 * (src/mining/pathtrie.h): the segments ending at a node are its
 * interned upward chains, so step 1 is array adds by tuple id, step 2
 * compares two tallies by tuple id, and step 3 passes a "selected"
 * flag from each root down to its leaves.
 */

#ifndef TRACELENS_MINING_MINER_H
#define TRACELENS_MINING_MINER_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/awg/awg.h"
#include "src/mining/pathtrie.h"
#include "src/mining/signature.h"

namespace tracelens
{

/** Mining parameters. */
struct MiningOptions
{
    /** Maximum path-segment length k (the paper's evaluation uses 5). */
    std::uint32_t maxSegmentLength = 5;
    /** Fast-class threshold T_fast. */
    DurationNs tFast = fromMs(300.0);
    /** Slow-class threshold T_slow. */
    DurationNs tSlow = fromMs(500.0);
    /**
     * When false, skip meta-pattern gating and emit every full slow-
     * class path as a pattern (the ablation of the meta-pattern step).
     */
    bool useMetaPatternGate = true;
};

/** One discovered contrast pattern (a merged set of full slow paths). */
struct ContrastPattern
{
    SignatureSetTuple tuple;
    DurationNs cost = 0;     //!< P.C — aggregated execution cost.
    std::uint64_t count = 0; //!< P.N — occurrence counter.
    DurationNs maxExec = 0;  //!< Largest single execution observed.

    /** Ranking key: average execution cost P.C / P.N. */
    double impact() const;

    /**
     * The automated high-impact rule of RQ1: at least one execution
     * exceeded T_slow.
     */
    bool highImpact(DurationNs t_slow) const { return maxExec > t_slow; }
};

/** Aggregated (C, N) of one meta-pattern in one class. */
struct MetaPatternStats
{
    DurationNs cost = 0;
    std::uint64_t count = 0;
};

/** Observability counters of one mine() run. */
struct MiningStats
{
    std::size_t fastMetaPatterns = 0;
    std::size_t slowMetaPatterns = 0;
    std::size_t slowOnlyContrasts = 0;
    std::size_t ratioContrasts = 0;
    std::size_t fullPaths = 0;
    std::size_t selectedPaths = 0;

    std::string render() const;
};

/** The ranked output of causality analysis. */
struct MiningResult
{
    /** Contrast patterns, highest impact first. */
    std::vector<ContrastPattern> patterns;
    MiningStats stats;

    /** Sum of P.C over all patterns. */
    DurationNs totalPatternCost() const;
};

/**
 * Mines contrast patterns between a fast-class and a slow-class AWG.
 */
class ContrastMiner
{
  public:
    ContrastMiner(const TraceCorpus &corpus, MiningOptions options = {});

    /**
     * Run the three mining steps over the column pair of a trie built
     * from @p fast and @p slow, which must already be reduced.
     *
     * @param threads Ignored: the steps are linear passes over a few
     *        thousand trie nodes and tuple ids, and run serially.
     */
    MiningResult mine(const AggregatedWaitGraph &fast,
                      const AggregatedWaitGraph &slow,
                      unsigned threads = 1) const;

    /**
     * Run the three mining steps over two class columns of @p trie,
     * whose segment length must be options().maxSegmentLength. Only
     * nodes in a class (N > 0) take part, and only the ranked patterns
     * become SignatureSetTuples.
     */
    MiningResult mine(const PathTrie &trie, const AwgColumn &fast,
                      const AwgColumn &slow) const;

    /**
     * Step 1 alone: enumerate and aggregate the meta-patterns of one
     * AWG (exposed for tests and the ablation bench). @p threads is
     * ignored, as in mine().
     */
    std::unordered_map<SignatureSetTuple, MetaPatternStats,
                       SignatureSetTupleHash>
    enumerateMetaPatterns(const AggregatedWaitGraph &awg,
                          unsigned threads = 1) const;

    const MiningOptions &options() const { return options_; }

  private:
    const TraceCorpus &corpus_;
    MiningOptions options_;
};

} // namespace tracelens

#endif // TRACELENS_MINING_MINER_H
