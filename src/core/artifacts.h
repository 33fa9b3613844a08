/**
 * @file
 * The artifact store of the incremental analysis pipeline.
 *
 * The derived results of an analysis (contrast classes, impact
 * metrics, AWGs, mined patterns) are *artifacts*: immutable values
 * keyed by a content hash of everything that influenced them — the
 * digest chain of the input shards plus a fingerprint of the analysis
 * configuration (see docs/ARCHITECTURE.md, "Pipeline stage graph &
 * artifact keys").
 *
 * ArtifactStore memoizes artifacts per key:
 *
 *  - in memory, always: a thread-safe map of type-erased values with
 *    per-entry once-semantics, so concurrent analyses (the
 *    analyzeScenarios fan-out) share one build per key;
 *  - on disk, optionally: aggregated wait graphs serialize to
 *    "awg-<keyhex>.tla" files under a cache directory (CLI:
 *    --artifact-cache DIR), so a later process skips aggregating them.
 *    Corrupt or stale cache files are never trusted: every load
 *    validates magic, version, stage, key echo, and a payload
 *    checksum, and any mismatch falls back to a rebuild that
 *    overwrites the bad file.
 *
 * Wait graphs are not stored: the Analyzer builds each shard's graphs
 * once into its own vector, since rebuilding them beats reloading them
 * from disk (docs/PERFORMANCE.md). The store still traces and counts
 * that stage through track(), so PipelineStats covers every stage.
 *
 * Because keys are content hashes, incrementality falls out for free:
 * appending a shard changes only the chain suffix, so every artifact
 * derived from the unchanged prefix keeps its key and is served from
 * the store, while artifacts downstream of the new data miss and
 * rebuild. PipelineStats counts exactly that (hits, misses, disk
 * traffic, build wall time) per stage.
 *
 * The store does not bound itself. Its owner erases what it no longer
 * needs: the Analyzer keeps, per scenario, only the per-query
 * artifacts of the coordinates the scenario was last asked at.
 * Entries are shared, so erasing a key never frees a value, or a
 * build, that a running query still holds.
 */

#ifndef TRACELENS_CORE_ARTIFACTS_H
#define TRACELENS_CORE_ARTIFACTS_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>

#include "src/awg/awg.h"
#include "src/util/hash.h"
#include "src/util/telemetry.h"

namespace tracelens
{

/** The memoized stages of the analysis pipeline. */
enum class Stage : std::uint8_t
{
    WaitGraphs = 0, //!< Per-shard wait graphs (held by the Analyzer).
    Classes = 1,    //!< Per-scenario fast/slow contrast classes.
    Impact = 2,     //!< Corpus / per-scenario / slow-class impact.
    Awg = 3,        //!< Fast and slow aggregated wait graphs (disk-backed).
    Mining = 4,     //!< Per-scenario contrast-mining results.
};

/** Number of pipeline stages (array sizing). */
inline constexpr std::size_t kStageCount = 5;

/** Human-readable stage name ("wait-graphs", ...). */
std::string_view stageName(Stage stage);

/** Cache counters of one pipeline stage. */
struct StageStats
{
    std::uint64_t hits = 0;       //!< Served from the in-memory map.
    std::uint64_t misses = 0;     //!< Built from the inputs.
    std::uint64_t diskHits = 0;   //!< Deserialized from the disk cache.
    std::uint64_t diskWrites = 0; //!< Artifact files written.
    std::uint64_t diskBytes = 0;  //!< Bytes read from + written to disk.
    double buildMs = 0.0;         //!< Wall time spent producing values.
    /** Per-instance summaries computed for the stage's class folds
     *  (impact contributions, AWG fragments); not rendered. */
    std::uint64_t summaries = 0;
};

/**
 * Per-stage cache counters of one pipeline run. This is a *snapshot
 * view* over the store's MetricsRegistry ("pipeline.<stage>.<name>"
 * counters), kept as a struct so existing callers and the CLI's
 * --pipeline-stats rendering stay byte-compatible.
 */
struct PipelineStats
{
    StageStats stages[kStageCount];

    const StageStats &of(Stage stage) const
    {
        return stages[static_cast<std::size_t>(stage)];
    }

    /** Multi-line human-readable rendering (CLI --pipeline-stats). */
    std::string render() const;
};

/**
 * Thread-safe keyed memoization of pipeline artifacts. Values are
 * immutable once published; concurrent requests for one key run the
 * build exactly once (the others block and then share the result).
 * Lookups for *different* keys never serialize behind a build.
 */
class ArtifactStore
{
  public:
    /**
     * @param diskDir Directory for the optional on-disk cache of AWGs
     *        (created on first write); empty = memory-only.
     */
    explicit ArtifactStore(std::string diskDir = {});

    /** Folds this store's counters into MetricsRegistry::global(), so
     *  --metrics-out reports process-wide pipeline totals. */
    ~ArtifactStore();

    ArtifactStore(const ArtifactStore &) = delete;
    ArtifactStore &operator=(const ArtifactStore &) = delete;

    /**
     * The artifact for @p key, building it via @p build on first
     * request. @p T must match the type every caller uses for this
     * key (keys embed a stage salt, so stages cannot collide).
     */
    template <typename T, typename F>
    std::shared_ptr<const T>
    get(Stage stage, const Digest &key, F &&build)
    {
        auto erased = getOrBuild(stage, key, [&]() -> BuildOutcome {
            return {std::make_shared<const T>(build()), false, 0};
        });
        return std::static_pointer_cast<const T>(erased);
    }

    /**
     * An aggregated wait graph: in-memory memoized and, when a disk
     * directory is configured, persisted/restored as an
     * "awg-<keyhex>.tla" file.
     */
    std::shared_ptr<const AggregatedWaitGraph>
    awg(const Digest &key,
        const std::function<AggregatedWaitGraph()> &build);

    /**
     * Trace and count one value of @p stage that the caller holds
     * itself (the Analyzer's per-shard wait graphs): a "stage.<name>"
     * span carrying @p key, then a hit when @p held, or else a miss
     * that runs @p build and counts its wall time.
     */
    void track(Stage stage, const Digest &key, bool held,
               const std::function<void()> &build);

    /**
     * Drop @p keys from the in-memory map (disk files stay). A
     * request still holding an erased entry finishes with it; the
     * next request for the key builds it again.
     */
    void erase(std::span<const Digest> keys);

    /** Count @p n per-instance summaries computed for @p stage. */
    void countSummaries(Stage stage, std::uint64_t n);

    /** Snapshot of the per-stage counters. */
    PipelineStats stats() const;

    const std::string &diskDir() const { return diskDir_; }

  private:
    struct Entry
    {
        std::once_flag once;
        std::shared_ptr<const void> value;
    };

    /** One erased build's result plus how the value was produced. */
    struct BuildOutcome
    {
        std::shared_ptr<const void> value;
        bool fromDisk = false;        //!< Deserialized, not computed.
        std::uint64_t diskBytes = 0;  //!< Payload bytes read.
    };

    using ErasedBuild = std::function<BuildOutcome()>;

    /**
     * Core memoization: find-or-insert the entry under the map mutex,
     * then run @p build under the entry's once_flag *outside* it, so
     * builds for distinct keys proceed concurrently. The build is
     * timed and counted as a miss or disk hit per its outcome; a
     * value already present counts as a hit. Every request records a
     * "stage.<name>" telemetry span carrying the artifact key and the
     * hit/miss/disk-hit outcome as span args.
     */
    std::shared_ptr<const void>
    getOrBuild(Stage stage, const Digest &key, const ErasedBuild &build);

    /** Path of the artifact file for @p key in @p stage. */
    std::string artifactPath(Stage stage, const Digest &key) const;

    void countHit(Stage stage);
    void recordBuild(Stage stage, bool fromDisk, std::uint64_t diskBytes,
                     double ms);
    void countDiskWrite(Stage stage, std::uint64_t bytes);

    std::string diskDir_;

    mutable std::mutex mutex_;
    std::unordered_map<Digest, std::shared_ptr<Entry>, DigestHash>
        entries_;

    /**
     * Per-store metrics backing PipelineStats: lock-free handles into
     * metrics_, one set per stage ("pipeline.<stage>.hits", ...).
     * Build wall time accumulates in nanoseconds (a counter) and is
     * rendered back to milliseconds by stats().
     */
    struct StageCounters
    {
        Counter *hits = nullptr;
        Counter *misses = nullptr;
        Counter *diskHits = nullptr;
        Counter *diskWrites = nullptr;
        Counter *diskBytes = nullptr;
        Counter *buildNs = nullptr;
        Counter *summaries = nullptr;
    };

    MetricsRegistry metrics_;
    StageCounters counters_[kStageCount];
};

/** Binary codec of aggregated wait graphs for the disk cache. */
struct AwgCodec
{
    static void encode(const AggregatedWaitGraph &awg, std::string &out);
    static bool decode(const std::string &bytes,
                       AggregatedWaitGraph &awg);
};

/** On-disk artifact (TLA1) format revision (`tracelens version`). */
std::uint32_t artifactCacheVersion();

} // namespace tracelens

#endif // TRACELENS_CORE_ARTIFACTS_H
