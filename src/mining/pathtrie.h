/**
 * @file
 * A scenario's path trie: the union of the AWGs its instance classes
 * can produce, with the Signature Set Tuple of every path segment
 * interned once.
 *
 * An AWG is a trie by signature prefix (Algorithm 1 step 3), so the
 * AWG of any class of a scenario's instances is a sub-trie of the
 * trie over all their fragments, and the path segments of length
 * <= k that end at a node are exactly its upward chains of length
 * 1..k. A PathTrie interns, when it adds a node, the tuple id of each
 * of those chains and of the node's root path. A class AWG is then an
 * AwgColumn: (C, N, maxCost) per trie node, folded by index from its
 * members' node maps, where N == 0 means the node is not in the class.
 * ContrastMiner mines two columns of one trie with array passes
 * (src/mining/miner.h).
 *
 * Node ids and tuple ids follow insertion order — in the Analyzer,
 * which classes grew the trie first. No output may depend on them:
 * every sum over a column is an integer sum, and the ranking breaks
 * ties on tuple contents.
 */

#ifndef TRACELENS_MINING_PATHTRIE_H
#define TRACELENS_MINING_PATHTRIE_H

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/awg/awg.h"
#include "src/mining/signature.h"

namespace tracelens
{

/**
 * The trie of one scenario's fragment paths, with interned segment
 * tuples. Not thread-safe: the Analyzer grows it under an exclusive
 * lock and reads it under a shared one.
 */
class PathTrie
{
  public:
    /** A trie whose nodes intern their chains of length 1..@p k. */
    explicit PathTrie(std::uint32_t k);

    /**
     * The child of @p parent (kInvalidIndex: a root) under @p key. A
     * new child gets the next id and its chain and root-path tuples.
     */
    std::uint32_t child(std::uint32_t parent, const AwgKey &key);

    /**
     * Append the trie node of each node of @p fragment to @p nodes, in
     * fragment order, adding the nodes the trie lacks.
     */
    void map(const AwgFragment &fragment, std::vector<std::uint32_t> &nodes);

    /** Nodes so far; a parent's id is below its children's. */
    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(parents_.size());
    }
    /** The maximum segment length k the chains were interned for. */
    std::uint32_t maxSegmentLength() const { return k_; }
    /** Parent node id, kInvalidIndex for a root. */
    std::uint32_t parent(std::uint32_t node) const { return parents_[node]; }
    const AwgKey &key(std::uint32_t node) const { return keys_[node]; }

    /**
     * Tuple ids of the segments ending at @p node, by length: entry
     * L - 1 is the chain of the node and its L - 1 nearest ancestors,
     * for L up to k or the node's depth + 1.
     */
    std::span<const std::uint32_t> chains(std::uint32_t node) const
    {
        return {chains_.data() + std::size_t{node} * k_, chainCounts_[node]};
    }
    /** Tuple id of the path from @p node's root down to it. */
    std::uint32_t rootPath(std::uint32_t node) const
    {
        return rootPaths_[node];
    }

    /** Distinct tuples interned so far (id 0 is the empty tuple). */
    std::uint32_t tupleCount() const
    {
        return static_cast<std::uint32_t>(tuples_.size());
    }
    const SignatureSetTuple &tuple(std::uint32_t id) const
    {
        return *tuples_[id];
    }

  private:
    /** Id of tuple @p base with @p key's signatures added. */
    std::uint32_t extend(std::uint32_t base, const AwgKey &key);

    struct ChildKey
    {
        std::uint32_t parent;
        AwgKey key;

        friend bool operator==(const ChildKey &, const ChildKey &) = default;
    };
    struct ChildKeyHash
    {
        std::size_t operator()(const ChildKey &k) const
        {
            return AwgKeyHash{}(k.key) * 0x9e3779b97f4a7c15ULL + k.parent;
        }
    };

    std::uint32_t k_;
    std::vector<std::uint32_t> parents_;
    std::vector<AwgKey> keys_;
    /** k_ entries per node; the first chainCounts_[node] are set. */
    std::vector<std::uint32_t> chains_;
    std::vector<std::uint32_t> chainCounts_;
    std::vector<std::uint32_t> rootPaths_;
    std::unordered_map<ChildKey, std::uint32_t, ChildKeyHash> children_;
    /** Tuple -> id; tuples_ points at the keys (stable in a node map). */
    std::unordered_map<SignatureSetTuple, std::uint32_t,
                       SignatureSetTupleHash>
        tupleIds_;
    std::vector<const SignatureSetTuple *> tuples_;
    /** extend()'s candidate, kept to reuse its capacity. */
    SignatureSetTuple scratch_;
};

/**
 * A class AWG as a column over a PathTrie: per trie node, the class's
 * aggregated cost v.C, occurrence count v.N and largest single cost.
 * N == 0 marks a node outside the class, as does every node the trie
 * gained after the column was folded.
 */
struct AwgColumn
{
    std::vector<DurationNs> cost;
    std::vector<std::uint64_t> count;
    std::vector<DurationNs> maxCost;
    /** Cost that finalize() removed as non-optimizable. */
    DurationNs reducedCost = 0;
    /** Total cost of the class's roots, set by finalize(). */
    DurationNs rootCost = 0;

    /** An empty class over the first @p nodes trie nodes. */
    explicit AwgColumn(std::size_t nodes = 0);

    /** The column of @p awg, whose paths are added to @p trie. */
    static AwgColumn of(PathTrie &trie, const AggregatedWaitGraph &awg);

    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(count.size());
    }

    /**
     * Fold one source graph, as PartialAwg::absorb() does: fragment
     * node j adds its cost and one occurrence at trie node @p nodes[j].
     */
    void absorb(const AwgFragment &fragment,
                std::span<const std::uint32_t> nodes);

    /**
     * Close the fold, as PartialAwg::finalize() does: when @p reduce,
     * apply Algorithm 1 step 4 (a prunableRoot() root and its hardware
     * leaves drop out of the class, their cost moving to reducedCost),
     * then total the kept roots' cost.
     */
    void finalize(const PathTrie &trie, bool reduce);
};

} // namespace tracelens

#endif // TRACELENS_MINING_PATHTRIE_H
