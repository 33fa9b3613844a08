/**
 * @file
 * Mergeable partial results: the explicit merge layer of the pipeline.
 *
 * Every reduction in the analysis stack — the thread-level folds inside
 * ImpactAnalysis / AwgBuilder, the fleet's rolling windows, and the
 * cross-machine scatter/gather of coordinator mode (docs/SERVER.md) —
 * goes through the Partial* types in this header. Each type is an
 * accumulator with an associative `merge()`; merging the per-shard
 * partials in shard order and then finalizing produces results
 * *byte-identical* to a single sequential pass over the merged
 * corpus. That invariant (associativity +
 * order-preserving determinism, see docs/ARCHITECTURE.md
 * "Partial-result merge layer") is what makes thread counts, shard
 * splits, and machine boundaries all invisible in the output.
 *
 * The cross-machine types additionally carry a versioned binary
 * wire encoding ("TLP1": magic, revision, typed payload —
 * src/util/bytecodec.h primitives, every read bounds-checked). Frame
 * identity across machines: a scenario partial embeds its shard's full
 * frame-name table in interning order; the coordinator interns the
 * tables shard by shard into its own SymbolTable, which reproduces the
 * exact FrameId assignment of a single-node analyzer ingesting the
 * same shards in the same order (interning is idempotent and
 * order-determined). Mixed-revision clusters are rejected up front —
 * `health` advertises partialEncodingRevision() — and again at decode.
 */

#ifndef TRACELENS_CORE_PARTIAL_H
#define TRACELENS_CORE_PARTIAL_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/awg/awg.h"
#include "src/impact/impact.h"
#include "src/trace/symbols.h"
#include "src/util/bytecodec.h"
#include "src/util/expected.h"

namespace tracelens
{

/**
 * Revision of the partial-result wire encoding. Bumped whenever the
 * TLP1 payload layout or the semantics of any encoded field change;
 * coordinator and workers must agree (advertised by `health` and
 * `tracelens version`, checked before any decode).
 */
std::uint32_t partialEncodingRevision();

// --------------------------------------------------------------- classes

/**
 * Partial contrast-classification tally of one instance subset: class
 * sizes plus the slow class's total instance time (the
 * driver_cost_share denominator). Merge is integer summation.
 */
struct PartialClasses
{
    std::uint64_t fast = 0;
    std::uint64_t middle = 0;
    std::uint64_t slow = 0;
    DurationNs slowDuration = 0;

    void
    merge(const PartialClasses &other)
    {
        fast += other.fast;
        middle += other.middle;
        slow += other.slow;
        slowDuration += other.slowDuration;
    }
};

// ---------------------------------------------------------------- impact

/**
 * Partial impact accumulator over a prefix of an instance-graph
 * sequence. Scalar sums merge commutatively; D_waitdist depends on
 * *first-seen* wait dedup, so the accumulator keeps the distinct waits
 * in first-seen order and `merge()` replays the other side's distinct
 * sequence through its own seen-set — exactly the fold the serial path
 * performs, hence associative and order-preserving.
 */
class PartialImpact
{
  public:
    /**
     * Fold one instance graph's contribution
     * (ImpactAnalysis::collect): its sums, and its matched top-level
     * waits through the first-seen dedup in BFS order.
     */
    void absorbInstance(const ImpactContribution &contribution);

    /** Append @p other, which must cover the *following* instances. */
    void merge(const PartialImpact &other);

    /** The accumulated metrics. */
    ImpactResult finalize() const;

    /**
     * Shift every distinct wait's stream id by @p base. Cross-machine
     * gather rebases each shard's stream-local EventRefs onto the
     * merged corpus's stream numbering (stream ids concatenate in
     * shard order) so refs from different shards can never collide.
     */
    void rebaseStreams(std::uint32_t base);

    void encode(std::string &out) const;
    static bool decode(ByteReader &reader, PartialImpact &out);

  private:
    std::uint64_t instances_ = 0;
    DurationNs dScn_ = 0;
    DurationNs dWait_ = 0;
    DurationNs dRun_ = 0;
    DurationNs dWaitDist_ = 0;
    /** Distinct counted waits, in first-seen order. */
    std::vector<std::pair<EventRef, DurationNs>> distinct_;
    std::unordered_set<EventRef, EventRefHash> seen_;
};

// ------------------------------------------------------------------- awg

/**
 * Partial Aggregated Wait Graph: the trie under construction, before
 * the non-optimizable reduction. Owns the node-creation bookkeeping
 * (per-node parent, (parent, key) lookup), so that the same
 * first-encounter node layout is reproduced whether per-graph
 * fragments are absorbed (AwgBuilder, scenario partials and the
 * Analyzer's AWG drawings) or whole shard tries are merged
 * (coordinator gather). Partials stay
 * *unreduced* — a root prunable within one shard may gain children
 * from another — and `finalize()` applies the reduction exactly once
 * over the merged trie.
 */
class PartialAwg
{
  public:
    PartialAwg();
    PartialAwg(PartialAwg &&) noexcept;
    PartialAwg &operator=(PartialAwg &&) noexcept;
    PartialAwg(const PartialAwg &);
    PartialAwg &operator=(const PartialAwg &);
    ~PartialAwg();

    /**
     * Fold one source graph's fragment (AwgBuilder::summarize) into
     * the trie: every fragment node, in preorder, finds or creates the
     * (parent, key) child, adds its cost and counts one occurrence.
     * This is Algorithm 1's step-3 trie merge; the fragment counts as
     * one aggregated source graph.
     */
    void absorb(const AwgFragment &fragment);

    /**
     * Merge @p other's whole trie. Nodes are replayed in creation
     * order with parents mapped through this trie, which reproduces
     * the node layout of absorbing both inputs' source graphs
     * sequentially — the associativity that makes shard-order gather
     * byte-identical to a single-node aggregation.
     */
    void merge(const PartialAwg &other);

    /**
     * Apply the non-optimizable reduction (when @p reduce) and release
     * the finished AWG. The partial is consumed.
     */
    AggregatedWaitGraph finalize(bool reduce);

    /** Rewrite every node key's frames through @p remap (decode-side
     *  frame-table translation); kNoFrame is preserved. */
    void remapFrames(std::span<const FrameId> remap);

    void encode(std::string &out) const;
    static bool decode(ByteReader &reader, PartialAwg &out);

  private:
    /** Find-or-create the (parent, key) child and add the aggregates
     *  (absorb() adds one occurrence, merge() a whole node's). */
    std::uint32_t absorbAggregated(std::uint32_t parent,
                                   const AwgKey &key, DurationNs cost,
                                   std::uint64_t count,
                                   DurationNs maxCost);

    AggregatedWaitGraph awg_;
    /** Parent node id per node (kInvalidIndex for roots); a node's
     *  parent always precedes it, which is what lets merge() replay
     *  another trie in one forward pass. */
    std::vector<std::uint32_t> parents_;
    /** (parent, key) -> node id + 1 (0 = absent). */
    std::unordered_map<
        std::uint32_t,
        std::unordered_map<AwgKey, std::uint32_t, AwgKeyHash>>
        lookup_;
};

// ------------------------------------------------- cross-machine bundles

/**
 * One shard's contribution to a scenario analysis (the
 * `analyze_partial` / `mine_partial` payload): classification tally,
 * slow-class impact, and the two unreduced AWG fragments, plus the
 * shard's frame-name table (interning order) and stream count that let
 * the coordinator rebuild global frame/stream identity.
 */
struct ScenarioPartial
{
    PartialClasses classes;
    PartialImpact slowImpact;
    PartialAwg awgFast;
    PartialAwg awgSlow;
    /** Shard frame names, index = shard-local FrameId. */
    std::vector<std::string> frames;
    /** Streams in the shard corpus (EventRef rebase unit). */
    std::uint32_t streamCount = 0;

    /**
     * Intern this shard's frames into @p symbols (the coordinator's
     * table) and rewrite the AWG fragments' keys to the global ids.
     * Called in global shard order, this reproduces the FrameId
     * assignment of a single-node merged corpus.
     */
    void remapFrames(SymbolTable &symbols);
};

/**
 * The shard-order gather fold over scenario partials: the coordinator
 * runs it over its workers' answers, the fleet windows over their
 * cached shard partials. Adding every shard of a corpus in shard order
 * gives the bytes of a single-node analysis of that corpus, which is
 * the byte-identity contract of cluster and rolling-window answers.
 */
struct ScenarioFold
{
    SymbolTable symbols; //!< Global frame table, shard-order interned.
    PartialClasses classes;
    PartialImpact slowImpact;
    PartialAwg awgFast;
    PartialAwg awgSlow;
    /** Streams folded so far: the next shard's EventRef base. */
    std::uint32_t streams = 0;

    /** Fold the next shard's @p partial, rewriting it in place. */
    void add(ScenarioPartial &partial);
};

/**
 * One shard's corpus-wide impact partial (the `impact_partial`
 * payload): the "all" accumulator plus per-scenario accumulators keyed
 * by scenario *name* (names are global; ids are shard-local).
 */
struct ImpactPartial
{
    PartialImpact all;
    std::vector<std::pair<std::string, PartialImpact>> perScenario;
    std::uint32_t streamCount = 0;

    void rebaseStreams(std::uint32_t base);
};

/** Encode with the TLP1 envelope (magic, revision, payload). */
std::string encodeScenarioPartial(const ScenarioPartial &partial);
std::string encodeImpactPartial(const ImpactPartial &partial);

/**
 * Decode a TLP1 envelope. Fails with a "revision mismatch" message
 * when the producer spoke a different partialEncodingRevision() — the
 * mixed-version backstop behind the health handshake — and a "corrupt"
 * message on any framing violation.
 */
Expected<ScenarioPartial> decodeScenarioPartial(const std::string &bytes);
Expected<ImpactPartial> decodeImpactPartial(const std::string &bytes);

// ----------------------------------------------------------------- base64

/** Standard base64 (RFC 4648, with padding). */
std::string base64Encode(std::string_view bytes);
/** Decode; nullopt on any non-base64 input. */
std::optional<std::string> base64Decode(std::string_view text);

} // namespace tracelens

#endif // TRACELENS_CORE_PARTIAL_H
