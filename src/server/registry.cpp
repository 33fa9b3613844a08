/**
 * @file
 * SessionRegistry implementation (src/server/registry.h): open-once
 * semantics via per-entry once_flags, ref-counted handles, and
 * idle/LRU eviction, with "server.sessions.*" metrics in the global
 * registry.
 */

#include "src/server/registry.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <utility>

#include "src/util/logging.h"
#include "src/util/telemetry.h"

namespace tracelens
{
namespace server
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Canonical registry key: resolved path plus the component filter. */
std::string
sessionKey(const std::string &path,
           const std::vector<std::string> &components)
{
    std::error_code ec;
    const std::filesystem::path canonical =
        std::filesystem::weakly_canonical(path, ec);
    std::string key = ec ? path : canonical.string();
    for (const std::string &component : components) {
        key.push_back('\x1f'); // unit separator, not valid in globs
        key += component;
    }
    return key;
}

} // namespace

/** One registry slot: session storage plus open/ref/idle bookkeeping. */
struct SessionRegistry::Entry
{
    std::string key;
    std::once_flag openOnce;
    std::shared_ptr<CorpusSession> session; //!< Null until opened.
    /** Set when the open failed (the entry is then a tombstone). */
    std::optional<SourceError> openError;
    std::atomic<std::size_t> active{0};
    std::atomic<Clock::rep> lastUsed{0};
};

std::shared_ptr<const std::string>
CorpusSession::cachedResponse(const Digest &key) const
{
    std::lock_guard<std::mutex> lock(responseMutex_);
    const auto it = responses_.find(key);
    return it == responses_.end() ? nullptr : it->second;
}

void
CorpusSession::cacheResponse(const Digest &key,
                             std::shared_ptr<const std::string> line)
{
    std::lock_guard<std::mutex> lock(responseMutex_);
    const std::size_t bytes = line->size();
    // A key already present holds the same answer (a concurrent miss
    // rendered it too).
    if (!responses_.try_emplace(key, std::move(line)).second)
        return;
    responseOrder_.push_back(key);
    responseBytes_ += bytes;
    while (responseBytes_ > kResponseCacheBytes) {
        const auto oldest = responses_.find(responseOrder_.front());
        responseBytes_ -= oldest->second->size();
        responses_.erase(oldest);
        responseOrder_.pop_front();
    }
}

void
CorpusSession::absorbShard(const TraceCorpus &corpus)
{
    const std::unique_lock<std::shared_mutex> lock(analysisMutex_);
    analyzer_->addStreams(corpus);
    corpusDigest_ = analyzer_->corpusDigest();
    const std::lock_guard<std::mutex> responseLock(responseMutex_);
    responses_.clear();
    responseOrder_.clear();
    responseBytes_ = 0;
}

SessionRegistry::Handle::Handle(std::shared_ptr<Entry> entry,
                                std::shared_ptr<CorpusSession> session,
                                SessionRegistry *registry)
    : entry_(std::move(entry)), session_(std::move(session)),
      registry_(registry)
{
}

void
SessionRegistry::Handle::release()
{
    if (entry_ != nullptr) {
        entry_->lastUsed.store(
            Clock::now().time_since_epoch().count(),
            std::memory_order_relaxed);
        entry_->active.fetch_sub(1, std::memory_order_acq_rel);
        registry_->activeHandles_.fetch_sub(
            1, std::memory_order_relaxed);
    }
    entry_.reset();
    session_.reset();
    registry_ = nullptr;
}

SessionRegistry::SessionRegistry(RegistryConfig config)
    : config_(std::move(config))
{
}

Expected<SessionRegistry::Handle>
SessionRegistry::acquire(const std::string &path,
                         const std::vector<std::string> &components)
{
    const std::string key = sessionKey(path, components);

    std::shared_ptr<Entry> entry;
    bool fresh = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] = sessions_.try_emplace(key);
        if (inserted) {
            it->second = std::make_shared<Entry>();
            it->second->key = key;
            fresh = true;
        }
        entry = it->second;
        // Pin before dropping the lock so a concurrent evict pass
        // can never free the entry between lookup and open.
        entry->active.fetch_add(1, std::memory_order_acq_rel);
        entry->lastUsed.store(Clock::now().time_since_epoch().count(),
                              std::memory_order_relaxed);
    }
    activeHandles_.fetch_add(1, std::memory_order_relaxed);

    // Expensive open outside the registry lock; once per entry.
    std::call_once(entry->openOnce, [&] {
        TL_SPAN("server.session-open", "server");
        Expected<std::unique_ptr<TraceSource>> source =
            openSource(path, config_.source);
        if (!source) {
            entry->openError = source.error();
            return;
        }
        auto session = std::make_shared<CorpusSession>();
        session->path_ = path;
        session->source_ = std::move(source.value());

        AnalyzerConfig analyzerConfig;
        analyzerConfig.threads = config_.analysisThreads;
        if (!components.empty())
            analyzerConfig.components = components;
        session->analyzer_ = std::make_unique<Analyzer>(
            *session->source_, analyzerConfig);

        const IngestStats &stats = session->source_->stats();
        if (stats.shards > 0 && stats.loadedShards == 0) {
            entry->openError =
                stats.errors.empty()
                    ? SourceError{path, 0, "no usable shards in source"}
                    : stats.errors.front();
            return;
        }
        session->corpusDigest_ = session->analyzer_->corpusDigest();

        // Precompute the ingest summary now, single-threaded: the
        // TraceSource is not thread-safe, so request handlers must
        // never touch it again.
        SessionIngestInfo &info = session->ingest_;
        info.describe = session->source_->describe();
        info.shards = stats.shards;
        info.loadedShards = stats.loadedShards;
        info.skippedShards = stats.skippedShards;
        info.ingestBytes = stats.ingestBytes;
        const TraceCorpus &corpus = session->analyzer_->corpus();
        info.events = corpus.totalEvents();
        info.instances = corpus.instances().size();
        std::map<std::string, std::pair<std::size_t, double>> tallies;
        for (const ScenarioInstance &inst : corpus.instances()) {
            auto &[count, totalMs] =
                tallies[corpus.scenarioName(inst.scenario)];
            ++count;
            totalMs += toMs(inst.duration());
        }
        for (const auto &[name, tally] : tallies) {
            info.scenarios.push_back(
                {name, tally.first,
                 tally.second / static_cast<double>(tally.first)});
        }

        entry->session = std::move(session);
        opened_.fetch_add(1, std::memory_order_relaxed);
        MetricsRegistry::global()
            .counter("server.sessions.opened")
            .add(1);
    });

    if (entry->openError) {
        // Unpin and drop the tombstone so a later request may retry
        // (the corpus may appear or be repaired between requests).
        const SourceError error = *entry->openError;
        entry->active.fetch_sub(1, std::memory_order_acq_rel);
        activeHandles_.fetch_sub(1, std::memory_order_relaxed);
        openFailures_.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const auto it = sessions_.find(key);
            if (it != sessions_.end() && it->second == entry)
                sessions_.erase(it);
        }
        return error;
    }

    if (!fresh)
        reused_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        enforceCapacityLocked();
        MetricsRegistry::global()
            .gauge("server.sessions.open")
            .set(static_cast<double>(sessions_.size()));
    }
    return Handle(entry, entry->session, this);
}

void
SessionRegistry::enforceCapacityLocked()
{
    while (sessions_.size() > config_.maxSessions) {
        auto victim = sessions_.end();
        Clock::rep oldest = 0;
        for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
            if (it->second->active.load(std::memory_order_acquire) > 0)
                continue;
            const Clock::rep used =
                it->second->lastUsed.load(std::memory_order_relaxed);
            if (victim == sessions_.end() || used < oldest) {
                victim = it;
                oldest = used;
            }
        }
        if (victim == sessions_.end())
            return; // every session is pinned; nothing evictable
        TL_LOG(Debug, "session registry: LRU-evicting ",
               victim->second->key);
        sessions_.erase(victim);
        evicted_.fetch_add(1, std::memory_order_relaxed);
        MetricsRegistry::global()
            .counter("server.sessions.evicted")
            .add(1);
    }
}

std::size_t
SessionRegistry::evictIdle()
{
    const Clock::rep now = Clock::now().time_since_epoch().count();
    const Clock::rep horizon =
        std::chrono::duration_cast<Clock::duration>(config_.idleTimeout)
            .count();

    std::size_t evicted = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        Entry &entry = *it->second;
        const bool idle =
            entry.active.load(std::memory_order_acquire) == 0 &&
            now - entry.lastUsed.load(std::memory_order_relaxed) >=
                horizon;
        if (idle) {
            TL_LOG(Debug, "session registry: idle-evicting ",
                   entry.key);
            it = sessions_.erase(it);
            ++evicted;
        } else {
            ++it;
        }
    }
    if (evicted > 0) {
        evicted_.fetch_add(evicted, std::memory_order_relaxed);
        MetricsRegistry::global()
            .counter("server.sessions.evicted")
            .add(evicted);
        MetricsRegistry::global()
            .gauge("server.sessions.open")
            .set(static_cast<double>(sessions_.size()));
    }
    return evicted;
}

std::size_t
SessionRegistry::evictAll()
{
    std::size_t evicted = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        if (it->second->active.load(std::memory_order_acquire) == 0) {
            it = sessions_.erase(it);
            ++evicted;
        } else {
            ++it;
        }
    }
    evicted_.fetch_add(evicted, std::memory_order_relaxed);
    return evicted;
}

RegistryStats
SessionRegistry::stats() const
{
    RegistryStats stats;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats.openSessions = sessions_.size();
    }
    stats.activeHandles =
        activeHandles_.load(std::memory_order_relaxed);
    stats.opened = opened_.load(std::memory_order_relaxed);
    stats.reused = reused_.load(std::memory_order_relaxed);
    stats.evicted = evicted_.load(std::memory_order_relaxed);
    stats.openFailures =
        openFailures_.load(std::memory_order_relaxed);
    return stats;
}

} // namespace server
} // namespace tracelens
