/**
 * @file
 * TraceSource implementation: the eager wrapper/loader, the shard
 * listing, and the path-dispatching openSource() factory.
 */

#include "src/trace/source.h"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "src/trace/merge.h"
#include "src/trace/serialize.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/telemetry.h"

namespace tracelens
{

namespace
{

/** Process-wide "source.shard_loads" counter. */
Counter &
shardLoads()
{
    static Counter &counter =
        MetricsRegistry::global().counter("source.shard_loads");
    return counter;
}

} // namespace

std::string
IngestStats::render() const
{
    std::ostringstream oss;
    oss << "shards:   " << shards << " (" << loadedShards
        << " loaded, " << skippedShards << " skipped)\n"
        << "bytes:    " << ingestBytes << " ingested\n";
    for (const SourceError &e : errors)
        oss << "skipped:  " << e.render() << "\n";
    return oss.str();
}

// --------------------------------------------------------------- EagerSource

EagerSource::EagerSource(const TraceCorpus &corpus) : borrowed_(&corpus)
{
    loaded_ = true;
    stats_.shards = 1;
    stats_.loadedShards = 1;
}

EagerSource::EagerSource(TraceCorpus &&corpus) : owned_(std::move(corpus))
{
    loaded_ = true;
    stats_.shards = 1;
    stats_.loadedShards = 1;
}

EagerSource::EagerSource(std::vector<std::string> paths,
                         unsigned threads)
    : paths_(std::move(paths)), threads_(threads),
      reported_(paths_.size(), false), everLoaded_(paths_.size(), false)
{
    stats_.shards = paths_.size();
}

std::string
EagerSource::describe() const
{
    if (paths_.empty())
        return "eager(in-memory corpus)";
    return "eager(" + std::to_string(paths_.size()) + " shard file" +
           (paths_.size() == 1 ? "" : "s") + ")";
}

std::size_t
EagerSource::shardCount() const
{
    return paths_.empty() ? 1 : paths_.size();
}

Expected<TraceCorpus>
EagerSource::readShard(std::size_t shard)
{
    TL_ASSERT(shard < paths_.size(), "bad shard index ", shard);
    Span span("source.decode-shard", "ingest");
    std::uint64_t bytes = 0;
    Expected<TraceCorpus> loaded =
        readCorpusFileChecked(paths_[shard], threads_, &bytes);
    if (span.active()) {
        span.arg("shard", static_cast<std::uint64_t>(shard));
        span.arg("bytes", bytes);
        span.arg("threads",
                 static_cast<std::uint64_t>(resolveThreads(threads_)));
        span.arg("events", static_cast<std::uint64_t>(
                               loaded ? loaded.value().totalEvents() : 0));
    }
    if (!loaded) {
        if (!reported_[shard]) {
            reported_[shard] = true;
            warn("skipping corrupt shard: ", loaded.error().render());
            stats_.skippedShards++;
            stats_.errors.push_back(loaded.error());
        }
    } else if (!everLoaded_[shard]) {
        everLoaded_[shard] = true;
        stats_.loadedShards++;
        stats_.ingestBytes += bytes;
        shardLoads().add(1);
    }
    return loaded;
}

Expected<CorpusPtr>
EagerSource::shard(std::size_t shard)
{
    if (paths_.empty()) {
        // Alias the wrapped corpus; the caller must not outlive it
        // (same contract as borrowing the corpus directly).
        return CorpusPtr(CorpusPtr{}, &corpus());
    }
    Expected<TraceCorpus> loaded = readShard(shard);
    if (!loaded)
        return loaded.error();
    return CorpusPtr(
        std::make_shared<const TraceCorpus>(std::move(loaded.value())));
}

void
EagerSource::ensureLoaded()
{
    if (loaded_)
        return;
    loaded_ = true;
    // Append each shard as it is read, so only the merged corpus and
    // one decoded shard are resident at a time. The first usable shard
    // is moved in whole; appending the rest in order gives the corpus
    // mergeCorpora() would.
    for (std::size_t i = 0; i < paths_.size(); ++i) {
        Expected<TraceCorpus> part = readShard(i);
        if (!part)
            continue;
        if (!owned_)
            owned_ = std::move(part.value());
        else
            appendCorpus(*owned_, part.value());
    }
    if (!owned_)
        owned_.emplace(); // no usable shard: empty corpus
}

const TraceCorpus &
EagerSource::corpus()
{
    if (borrowed_ != nullptr)
        return *borrowed_;
    ensureLoaded();
    return *owned_;
}

const IngestStats &
EagerSource::stats() const
{
    return stats_;
}

// ------------------------------------------------------------- openSource

Expected<std::vector<std::string>>
listShardFiles(const std::string &path)
{
    std::error_code ec;
    const auto status = std::filesystem::status(path, ec);
    if (ec || status.type() == std::filesystem::file_type::not_found) {
        return SourceError{path, 0,
                           "no such file or directory"};
    }
    if (!std::filesystem::is_directory(status))
        return std::vector<std::string>{path};

    std::vector<std::string> shards;
    for (const auto &entry :
         std::filesystem::directory_iterator(path, ec)) {
        if (entry.is_regular_file() &&
            isShardFilename(entry.path().filename().string()))
            shards.push_back(entry.path().string());
    }
    if (ec) {
        return SourceError{path, 0,
                           "cannot list directory: " + ec.message()};
    }
    std::sort(shards.begin(), shards.end());
    if (shards.empty()) {
        return SourceError{
            path, 0, "directory contains no *.tlc shard files"};
    }
    return shards;
}

Expected<std::unique_ptr<TraceSource>>
openSource(const std::string &path, unsigned threads)
{
    Expected<std::vector<std::string>> shards = listShardFiles(path);
    if (!shards)
        return shards.error();
    return std::unique_ptr<TraceSource>(std::make_unique<EagerSource>(
        std::move(shards.value()), threads));
}

bool
isShardFilename(std::string_view filename)
{
    if (filename.empty() || filename.front() == '.')
        return false;
    constexpr std::string_view kExt = ".tlc";
    return filename.size() > kExt.size() &&
           filename.substr(filename.size() - kExt.size()) == kExt;
}

} // namespace tracelens
