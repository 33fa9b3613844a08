/**
 * @file
 * Session registry of the analysis service: the layer that keeps
 * corpora *warm* between requests.
 *
 * A session owns the state of one corpus as it was when the session
 * opened: the TraceSource, the Analyzer with the results it keeps,
 * and a byte-bounded response cache keyed by digests of (method,
 * params). Nothing in a session changes after the open.
 * The registry maps a (corpus path, component filter) pair to an open
 * session with
 *
 *  - once-semantics on open: concurrent first requests for one corpus
 *    share a single ingestion instead of racing N of them;
 *  - ref-counting: a SessionHandle pins the session for the duration
 *    of one request, so eviction can never pull an Analyzer out from
 *    under a running analysis;
 *  - idle eviction: sessions with no active handle and no use for
 *    idleTimeout are dropped (the shared_ptr keeps late handles
 *    safe), and maxSessions bounds the resident set LRU-style;
 *  - retirement: when the corpus at a path changes (a shard arrives
 *    in a watched spool), retire() drops every session over that
 *    path, whatever its filter. A request already holding one keeps
 *    it; the next request opens a fresh session over the new corpus.
 *
 * Thread-safety: acquire()/retire()/evictIdle()/stats() may be called
 * from any thread. A *session's* Analyzer is safe for concurrent
 * analyze calls (it builds each kept result once); the TraceSource is
 * only touched during the single-threaded open.
 */

#ifndef TRACELENS_SERVER_REGISTRY_H
#define TRACELENS_SERVER_REGISTRY_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/analyzer.h"
#include "src/trace/source.h"
#include "src/util/hash.h"

namespace tracelens
{
namespace server
{

/** Registry configuration (a slice of ServerConfig). */
struct RegistryConfig
{
    /**
     * Worker threads of each session's Analyzer. Requests already run
     * concurrently on the server pool, so the default avoids
     * oversubscribing cores with nested parallelism.
     */
    unsigned analysisThreads = 1;
    /** Resident-session bound; oldest inactive session evicts first. */
    std::size_t maxSessions = 8;
    /** Idle sessions older than this are evicted by evictIdle(). */
    std::chrono::seconds idleTimeout{300};
};

/** Per-scenario tallies precomputed at session open (the `ingest`
 *  method answers from this, never re-touching the TraceSource). */
struct ScenarioTally
{
    std::string name;
    std::size_t instances = 0;
    double meanMs = 0.0;
};

/** Immutable ingest summary captured when the session opened. */
struct SessionIngestInfo
{
    std::string describe;
    std::size_t shards = 0;
    std::size_t loadedShards = 0;
    std::size_t skippedShards = 0;
    std::uint64_t ingestBytes = 0;
    std::uint64_t events = 0;
    std::size_t instances = 0;
    std::vector<ScenarioTally> scenarios;
};

/** One warm corpus: source + analyzer + response cache. */
class CorpusSession
{
  public:
    const std::string &path() const { return path_; }
    Analyzer &analyzer() const { return *analyzer_; }
    const SessionIngestInfo &ingestInfo() const { return ingest_; }

    /** Bound on the rendered bytes the response cache holds. */
    static constexpr std::size_t kMaxCachedResponseBytes = 64u << 20;

    /**
     * Response cache: rendered responses keyed by a digest of
     * (method, params). The session fixes the corpus and the
     * component filter, so a repeated query is answered without
     * re-entering the pipeline at all. Past kMaxCachedResponseBytes,
     * the oldest-inserted answers are evicted first.
     */
    std::shared_ptr<const std::string>
    cachedResponse(const Digest &key) const;
    void cacheResponse(const Digest &key,
                       std::shared_ptr<const std::string> line);

  private:
    friend class SessionRegistry;

    std::string path_;
    std::unique_ptr<TraceSource> source_;
    std::unique_ptr<Analyzer> analyzer_;
    SessionIngestInfo ingest_;

    mutable std::mutex responseMutex_;
    std::unordered_map<Digest, std::shared_ptr<const std::string>,
                       DigestHash>
        responses_;
    /** Keys of responses_, oldest first (the eviction order). */
    std::deque<Digest> responseOrder_;
    /** Rendered bytes responses_ holds. */
    std::size_t responseBytes_ = 0;
};

/** Registry counters (the `stats` method reports these). */
struct RegistryStats
{
    std::size_t openSessions = 0;   //!< Sessions currently resident.
    std::size_t activeHandles = 0;  //!< Outstanding request pins.
    std::uint64_t opened = 0;       //!< Sessions ever opened.
    std::uint64_t reused = 0;       //!< acquire() hits on a warm session.
    std::uint64_t evicted = 0;      //!< Idle / LRU / retire drops.
    std::uint64_t openFailures = 0; //!< Opens that failed.
};

class SessionRegistry
{
  private:
    struct Entry; // one registry slot (see registry.cpp)

  public:
    explicit SessionRegistry(RegistryConfig config = {});

    SessionRegistry(const SessionRegistry &) = delete;
    SessionRegistry &operator=(const SessionRegistry &) = delete;

    /**
     * RAII pin on a session: keeps it resident (and its analyzer
     * usable) until destruction, and stamps last-use on release.
     */
    class Handle
    {
      public:
        Handle() = default;
        ~Handle() { release(); }
        Handle(Handle &&other) noexcept { swap(other); }
        Handle &
        operator=(Handle &&other) noexcept
        {
            release();
            swap(other);
            return *this;
        }
        Handle(const Handle &) = delete;
        Handle &operator=(const Handle &) = delete;

        explicit operator bool() const { return session_ != nullptr; }
        CorpusSession *operator->() const { return session_.get(); }
        CorpusSession &operator*() const { return *session_; }

      private:
        friend class SessionRegistry;
        Handle(std::shared_ptr<Entry> entry,
               std::shared_ptr<CorpusSession> session,
               SessionRegistry *registry);
        void release();
        void
        swap(Handle &other) noexcept
        {
            std::swap(entry_, other.entry_);
            std::swap(session_, other.session_);
            std::swap(registry_, other.registry_);
        }

        std::shared_ptr<Entry> entry_;
        std::shared_ptr<CorpusSession> session_;
        SessionRegistry *registry_ = nullptr;
    };

    /**
     * Open (or reuse) the session for @p path with the session-level
     * @p components filter (empty = analyzer default). Expensive on a
     * cold corpus — call from a worker thread, never the accept loop.
     */
    Expected<Handle> acquire(const std::string &path,
                             const std::vector<std::string> &components =
                                 {});

    /**
     * Drop every session over @p path, under any component filter,
     * active or not: the corpus there changed. Handles already held
     * keep their session; the next acquire() opens a fresh one.
     * Returns the number dropped (counted as evictions).
     */
    std::size_t retire(const std::string &path);

    /** Evict inactive sessions idle beyond the timeout; returns the
     *  number evicted. Cheap — callable from a housekeeping tick. */
    std::size_t evictIdle();

    /** Drop every inactive session regardless of age (tests, drain). */
    std::size_t evictAll();

    RegistryStats stats() const;

    const RegistryConfig &config() const { return config_; }

  private:
    /** Evict oldest inactive sessions until <= maxSessions remain. */
    void enforceCapacityLocked();

    /** Drop every session @p doomed selects, counting each as an
     *  eviction; returns how many it dropped. */
    template <typename Doomed>
    std::size_t evictIf(const char *why, Doomed &&doomed);

    RegistryConfig config_;

    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<Entry>> sessions_;

    std::atomic<std::uint64_t> opened_{0};
    std::atomic<std::uint64_t> reused_{0};
    std::atomic<std::uint64_t> evicted_{0};
    std::atomic<std::uint64_t> openFailures_{0};
    std::atomic<std::size_t> activeHandles_{0};
};

} // namespace server
} // namespace tracelens

#endif // TRACELENS_SERVER_REGISTRY_H
