/**
 * @file
 * TraceSource: the ingestion boundary between trace storage and the
 * analyses.
 *
 * The pipeline consumes a TraceSource: an abstraction over *where the
 * bytes live* — one file, a sharded directory, or an already-loaded
 * corpus. EagerSource is its implementation: it wraps an in-memory
 * TraceCorpus, or reads each shard file through
 * readCorpusFileChecked(), the one TLC1 decoder, on the thread count
 * the caller gave openSource() (the one it analyzes with).
 *
 * Per-shard errors are isolated: a corrupt trace file is recorded in
 * IngestStats::errors and skipped — never fatal.
 */

#ifndef TRACELENS_TRACE_SOURCE_H
#define TRACELENS_TRACE_SOURCE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/trace/stream.h"
#include "src/util/expected.h"

namespace tracelens
{

/** Ingestion counters and the per-shard errors that were isolated. */
struct IngestStats
{
    /** Shard files discovered (or 1 for an in-memory corpus). */
    std::size_t shards = 0;
    /** Shards decoded successfully at least once. */
    std::size_t loadedShards = 0;
    /** Corrupt/unreadable shards reported and skipped. */
    std::size_t skippedShards = 0;
    /** File bytes the reader decoded (their length at open) of the
     *  usable shards. */
    std::uint64_t ingestBytes = 0;
    /** One entry per skipped shard: file, offset, reason. */
    std::vector<SourceError> errors;

    /** Multi-line human-readable rendering. */
    std::string render() const;
};

/** Shared handle to a decoded shard corpus. */
using CorpusPtr = std::shared_ptr<const TraceCorpus>;

/**
 * Pure interface the Analyzer (and CLI) ingest through. Implementations
 * are not required to be thread-safe; share one source across threads
 * only behind external synchronization. corpus() may decode and so
 * may be expensive on first call; it is cached afterwards.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** One-line description ("eager(8 shard files)", ...). */
    virtual std::string describe() const = 0;

    virtual std::size_t shardCount() const = 0;

    /**
     * The decoded corpus of one shard; error for a corrupt shard
     * (also recorded in stats()).
     */
    virtual Expected<CorpusPtr> shard(std::size_t shard) = 0;

    /**
     * The merged analysis corpus over all usable shards. Corrupt
     * shards are skipped and recorded in stats().errors; an all-bad
     * source yields an empty corpus, never a fatal error.
     */
    virtual const TraceCorpus &corpus() = 0;

    virtual const IngestStats &stats() const = 0;
};

/**
 * TraceSource over the classic eager-load path: either wrapping an
 * existing in-memory corpus (borrowed or owned — zero behavior
 * change), or reading shard files fully into memory on use.
 */
class EagerSource : public TraceSource
{
  public:
    /** Borrow an already-built corpus (caller keeps ownership). */
    explicit EagerSource(const TraceCorpus &corpus);
    /** Take ownership of a corpus (rvalues only, so a const lvalue
     * unambiguously borrows). */
    explicit EagerSource(TraceCorpus &&corpus);
    /** Read these shard files on first corpus()/shard(), decoding
     *  each on @p threads workers (0 = all hardware threads). */
    explicit EagerSource(std::vector<std::string> paths,
                         unsigned threads = 1);

    std::string describe() const override;
    std::size_t shardCount() const override;
    Expected<CorpusPtr> shard(std::size_t shard) override;
    const TraceCorpus &corpus() override;
    const IngestStats &stats() const override;

  private:
    void ensureLoaded();
    /** Decode shard @p shard, counting it as loaded or recording its
     *  error (each once per shard). */
    Expected<TraceCorpus> readShard(std::size_t shard);

    const TraceCorpus *borrowed_ = nullptr;
    std::optional<TraceCorpus> owned_;
    std::vector<std::string> paths_;
    unsigned threads_ = 1;
    bool loaded_ = false;
    /** Shards whose errors were already counted. */
    std::vector<bool> reported_;
    /** Shards that counted toward loadedShards already. */
    std::vector<bool> everLoaded_;
    IngestStats stats_;
};

/**
 * The shard files of the corpus at @p path, in the order every reader
 * ingests them: a regular file is a single-shard corpus; a directory
 * is a sharded corpus of its finished shard files (isShardFilename)
 * in filename order (see docs/TRACE_FORMAT.md, "Sharded corpora").
 * Shard order is merge order, so openSource() and the coordinator's
 * gathers both take it from here. Fails only when @p path itself is
 * unusable (missing, or a directory with no shards).
 */
Expected<std::vector<std::string>> listShardFiles(const std::string &path);

/**
 * Open @p path as a TraceSource over listShardFiles(@p path), whose
 * shards decode on @p threads workers (0 = all hardware threads; pass
 * the analysis thread count). Fails only when @p path itself is
 * unusable — corrupt shard *files* are isolated later, per shard.
 */
Expected<std::unique_ptr<TraceSource>> openSource(const std::string &path,
                                                  unsigned threads = 1);

/**
 * True when @p filename (the final path component, no directory) is a
 * finished shard a corpus-directory scan should pick up: a `*.tlc`
 * name that is not hidden. Dotfiles and any other extension —
 * notably the `*.tmp` staging names of the rename-into-place
 * convention (docs/TRACE_FORMAT.md "Sharded corpora") — are skipped,
 * so a writer racing a reader can never surface a torn shard as a
 * corrupt-input error. Every directory scan (listShardFiles, the
 * fleet watcher) shares this predicate: shard *selection* feeding
 * shard order IS merge order, so any divergence breaks byte-identity.
 */
bool isShardFilename(std::string_view filename);

} // namespace tracelens

#endif // TRACELENS_TRACE_SOURCE_H
