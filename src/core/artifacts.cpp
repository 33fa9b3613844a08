/**
 * @file
 * ArtifactStore: thread-safe keyed memoization with an optional
 * on-disk cache, plus the binary codec of the disk-backed artifact
 * kind (AWGs).
 *
 * Disk format ("TLA1"):
 *
 *   magic "TLA1", version u32, stage u32,
 *   key echo (hi u64, lo u64),
 *   payload size u64, payload checksum (hi u64, lo u64),
 *   payload bytes.
 *
 * A load is trusted only when every header field matches what the
 * reader expects *and* the payload re-hashes to the stored checksum;
 * anything else (truncation, bit flips, a stale schema, a key
 * collision in the file name) degrades to a cache miss. Writes go to
 * a temporary file first and are renamed into place, so readers never
 * observe a half-written artifact.
 */

#include "src/core/artifacts.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "src/util/bytecodec.h"
#include "src/util/logging.h"
#include "src/util/telemetry.h"

namespace tracelens
{

namespace
{

constexpr char kMagic[4] = {'T', 'L', 'A', '1'};
constexpr std::uint32_t kVersion = 1;

/** Fixed-size header preceding every artifact payload. */
constexpr std::size_t kHeaderBytes =
    4 + 4 + 4 + 8 + 8 + 8 + 8 + 8; // magic..checksum

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

Digest
payloadChecksum(const std::string &payload)
{
    Digest d;
    d.mixBytes(payload.data(), payload.size());
    return d;
}

/**
 * Read an artifact file and return its payload, or nullopt when the
 * file is missing, truncated, from another schema version/stage/key,
 * or fails its checksum.
 */
std::optional<std::string>
loadArtifactFile(const std::string &path, Stage stage, const Digest &key)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string bytes = std::move(buffer).str();
    if (bytes.size() < kHeaderBytes)
        return std::nullopt;
    if (std::memcmp(bytes.data(), kMagic, 4) != 0)
        return std::nullopt;

    ByteReader reader(bytes);
    reader.u32(); // magic, already checked
    if (reader.u32() != kVersion)
        return std::nullopt;
    if (reader.u32() != static_cast<std::uint32_t>(stage))
        return std::nullopt;
    if (reader.u64() != key.hi() || reader.u64() != key.lo())
        return std::nullopt;
    const std::uint64_t payload_size = reader.u64();
    const std::uint64_t check_hi = reader.u64();
    const std::uint64_t check_lo = reader.u64();
    if (reader.failed() ||
        payload_size != bytes.size() - kHeaderBytes)
        return std::nullopt;

    std::string payload = bytes.substr(kHeaderBytes);
    const Digest check = payloadChecksum(payload);
    if (check.hi() != check_hi || check.lo() != check_lo)
        return std::nullopt;
    return payload;
}

/**
 * Write an artifact file (tmp + rename, so concurrent readers never
 * see a partial file). Failures are logged and swallowed: the disk
 * cache is an optimization, never a correctness dependency.
 */
void
storeArtifactFile(const std::string &path, Stage stage,
                  const Digest &key, const std::string &payload)
{
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);

    std::string header;
    header.reserve(kHeaderBytes);
    header.append(kMagic, 4);
    putU32(header, kVersion);
    putU32(header, static_cast<std::uint32_t>(stage));
    putU64(header, key.hi());
    putU64(header, key.lo());
    putU64(header, payload.size());
    const Digest check = payloadChecksum(payload);
    putU64(header, check.hi());
    putU64(header, check.lo());

    // The temp name must be unique per writer: two processes (or two
    // stores in one process) sharing a cache directory may store the
    // same artifact concurrently, and a shared "path + .tmp" lets one
    // writer rename the other's half-written file into place. The
    // content under a given name is identical across writers, so with
    // unique temp names the last rename wins harmlessly.
    static std::atomic<std::uint64_t> serial{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(serial.fetch_add(1, std::memory_order_relaxed));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            warn("artifact cache: cannot write ", tmp);
            return;
        }
        out.write(header.data(),
                  static_cast<std::streamsize>(header.size()));
        out.write(payload.data(),
                  static_cast<std::streamsize>(payload.size()));
        if (!out) {
            warn("artifact cache: short write to ", tmp);
            return;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        warn("artifact cache: rename failed for ", path, ": ",
             ec.message());
}

} // namespace

std::string_view
stageName(Stage stage)
{
    switch (stage) {
    case Stage::WaitGraphs:
        return "wait-graphs";
    case Stage::Classes:
        return "classes";
    case Stage::Impact:
        return "impact";
    case Stage::Awg:
        return "awg";
    case Stage::Mining:
        return "mining";
    }
    return "unknown";
}

namespace
{

/** Span name literal per stage (span names must outlive the flush). */
const char *
stageSpanName(Stage stage)
{
    switch (stage) {
    case Stage::WaitGraphs:
        return "stage.wait-graphs";
    case Stage::Classes:
        return "stage.classes";
    case Stage::Impact:
        return "stage.impact";
    case Stage::Awg:
        return "stage.awg";
    case Stage::Mining:
        return "stage.mining";
    }
    return "stage.unknown";
}

} // namespace

std::string
PipelineStats::render() const
{
    std::ostringstream oss;
    oss << "pipeline stages:\n";
    for (std::size_t i = 0; i < kStageCount; ++i) {
        const StageStats &s = stages[i];
        oss << "  " << stageName(static_cast<Stage>(i)) << ": "
            << s.hits << " hit" << (s.hits == 1 ? "" : "s") << ", "
            << s.misses << " miss" << (s.misses == 1 ? "" : "es");
        if (s.diskHits || s.diskWrites || s.diskBytes)
            oss << ", " << s.diskHits << " disk hit"
                << (s.diskHits == 1 ? "" : "s") << ", " << s.diskWrites
                << " disk write" << (s.diskWrites == 1 ? "" : "s")
                << ", " << s.diskBytes << " disk bytes";
        oss << ", " << s.buildMs << " ms build\n";
    }
    return oss.str();
}

ArtifactStore::ArtifactStore(std::string diskDir)
    : diskDir_(std::move(diskDir))
{
    // Resolve the per-stage metric handles once; every hot-path
    // update after this is a relaxed atomic increment.
    for (std::size_t i = 0; i < kStageCount; ++i) {
        const std::string prefix =
            "pipeline." + std::string(stageName(static_cast<Stage>(i)));
        counters_[i].hits = &metrics_.counter(prefix + ".hits");
        counters_[i].misses = &metrics_.counter(prefix + ".misses");
        counters_[i].diskHits =
            &metrics_.counter(prefix + ".disk_hits");
        counters_[i].diskWrites =
            &metrics_.counter(prefix + ".disk_writes");
        counters_[i].diskBytes =
            &metrics_.counter(prefix + ".disk_bytes");
        counters_[i].buildNs = &metrics_.counter(prefix + ".build_ns");
        counters_[i].summaries =
            &metrics_.counter(prefix + ".summaries");
    }
}

ArtifactStore::~ArtifactStore()
{
    metrics_.mergeInto(MetricsRegistry::global());
}

std::shared_ptr<const void>
ArtifactStore::getOrBuild(Stage stage, const Digest &key,
                          const ErasedBuild &build)
{
    Span span(stageSpanName(stage), "pipeline");
    if (span.active())
        span.arg("key", key.hex());

    // A shared handle: the entry outlives an erase() that races this
    // build or read.
    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] = entries_.try_emplace(key);
        if (inserted)
            it->second = std::make_shared<Entry>();
        entry = it->second;
    }

    bool builtHere = false;
    bool fromDisk = false;
    std::call_once(entry->once, [&] {
        const auto start = std::chrono::steady_clock::now();
        BuildOutcome outcome = build();
        entry->value = std::move(outcome.value);
        fromDisk = outcome.fromDisk;
        recordBuild(stage, outcome.fromDisk, outcome.diskBytes,
                    msSince(start));
        builtHere = true;
    });
    if (!builtHere)
        countHit(stage);
    if (span.active()) {
        span.arg("outcome", std::string(builtHere
                                            ? (fromDisk ? "disk-hit"
                                                        : "miss")
                                            : "hit"));
    }
    return entry->value;
}

std::string
ArtifactStore::artifactPath(Stage stage, const Digest &key) const
{
    return (std::filesystem::path(diskDir_) /
            (std::string(stageName(stage)) + "-" + key.hex() + ".tla"))
        .string();
}

std::shared_ptr<const AggregatedWaitGraph>
ArtifactStore::awg(const Digest &key,
                   const std::function<AggregatedWaitGraph()> &build)
{
    auto erased = getOrBuild(Stage::Awg, key, [&]() -> BuildOutcome {
        if (!diskDir_.empty()) {
            const std::string path = artifactPath(Stage::Awg, key);
            if (auto payload = loadArtifactFile(path, Stage::Awg, key)) {
                AggregatedWaitGraph awg;
                if (AwgCodec::decode(*payload, awg)) {
                    return {std::make_shared<const AggregatedWaitGraph>(
                                std::move(awg)),
                            true, payload->size()};
                }
            }
        }
        auto awg =
            std::make_shared<const AggregatedWaitGraph>(build());
        if (!diskDir_.empty()) {
            std::string payload;
            AwgCodec::encode(*awg, payload);
            storeArtifactFile(artifactPath(Stage::Awg, key), Stage::Awg,
                              key, payload);
            countDiskWrite(Stage::Awg, payload.size());
        }
        return {std::move(awg), false, 0};
    });
    return std::static_pointer_cast<const AggregatedWaitGraph>(erased);
}

void
ArtifactStore::track(Stage stage, const Digest &key, bool held,
                     const std::function<void()> &build)
{
    Span span(stageSpanName(stage), "pipeline");
    if (span.active()) {
        span.arg("key", key.hex());
        span.arg("outcome", std::string(held ? "hit" : "miss"));
    }
    if (held) {
        countHit(stage);
        return;
    }
    const auto start = std::chrono::steady_clock::now();
    build();
    recordBuild(stage, false, 0, msSince(start));
}

void
ArtifactStore::erase(std::span<const Digest> keys)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Digest &key : keys)
        entries_.erase(key);
}

void
ArtifactStore::countSummaries(Stage stage, std::uint64_t n)
{
    counters_[static_cast<std::size_t>(stage)].summaries->add(n);
}

PipelineStats
ArtifactStore::stats() const
{
    // A snapshot view over the registry counters: same struct, same
    // render, no second set of books.
    PipelineStats stats;
    for (std::size_t i = 0; i < kStageCount; ++i) {
        StageStats &s = stats.stages[i];
        const StageCounters &c = counters_[i];
        s.hits = c.hits->value();
        s.misses = c.misses->value();
        s.diskHits = c.diskHits->value();
        s.diskWrites = c.diskWrites->value();
        s.diskBytes = c.diskBytes->value();
        s.buildMs = static_cast<double>(c.buildNs->value()) / 1e6;
        s.summaries = c.summaries->value();
    }
    return stats;
}

void
ArtifactStore::countHit(Stage stage)
{
    counters_[static_cast<std::size_t>(stage)].hits->add(1);
}

void
ArtifactStore::recordBuild(Stage stage, bool fromDisk,
                           std::uint64_t diskBytes, double ms)
{
    const StageCounters &c = counters_[static_cast<std::size_t>(stage)];
    if (fromDisk) {
        c.diskHits->add(1);
        c.diskBytes->add(diskBytes);
    } else {
        c.misses->add(1);
    }
    c.buildNs->add(static_cast<std::uint64_t>(ms * 1e6));
}

void
ArtifactStore::countDiskWrite(Stage stage, std::uint64_t bytes)
{
    const StageCounters &c = counters_[static_cast<std::size_t>(stage)];
    c.diskWrites->add(1);
    c.diskBytes->add(bytes);
}

// ---------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------

void
AwgCodec::encode(const AggregatedWaitGraph &awg, std::string &out)
{
    putU64(out, awg.nodes_.size());
    for (const AggregatedWaitGraph::Node &node : awg.nodes_) {
        putU8(out, static_cast<std::uint8_t>(node.key.status));
        putU32(out, node.key.primary);
        putU32(out, node.key.secondary);
        putI64(out, node.cost);
        putU64(out, node.count);
        putI64(out, node.maxCost);
        putU64(out, node.children.size());
        for (std::uint32_t child : node.children)
            putU32(out, child);
    }
    putU64(out, awg.roots_.size());
    for (std::uint32_t root : awg.roots_)
        putU32(out, root);
    putI64(out, awg.reducedCost_);
    putU64(out, awg.reducedNodes_);
    putU64(out, awg.sourceGraphs_);
}

bool
AwgCodec::decode(const std::string &bytes, AggregatedWaitGraph &awg)
{
    ByteReader reader(bytes);
    const std::uint64_t node_count = reader.u64();
    if (!reader.countFits(node_count, 41)) // fixed node bytes
        return false;
    awg.nodes_.clear();
    awg.nodes_.reserve(node_count);
    for (std::uint64_t n = 0; n < node_count; ++n) {
        AggregatedWaitGraph::Node node;
        const std::uint8_t status = reader.u8();
        if (status > static_cast<std::uint8_t>(AwgStatus::Hardware))
            return false;
        node.key.status = static_cast<AwgStatus>(status);
        node.key.primary = reader.u32();
        node.key.secondary = reader.u32();
        node.cost = reader.i64();
        node.count = reader.u64();
        node.maxCost = reader.i64();
        const std::uint64_t child_count = reader.u64();
        if (!reader.countFits(child_count, 4))
            return false;
        node.children.reserve(child_count);
        for (std::uint64_t c = 0; c < child_count; ++c) {
            const std::uint32_t child = reader.u32();
            if (child >= node_count)
                return false;
            node.children.push_back(child);
        }
        awg.nodes_.push_back(std::move(node));
    }
    const std::uint64_t root_count = reader.u64();
    if (!reader.countFits(root_count, 4))
        return false;
    awg.roots_.clear();
    awg.roots_.reserve(root_count);
    for (std::uint64_t r = 0; r < root_count; ++r) {
        const std::uint32_t root = reader.u32();
        if (root >= node_count)
            return false;
        awg.roots_.push_back(root);
    }
    awg.reducedCost_ = reader.i64();
    awg.reducedNodes_ = reader.u64();
    awg.sourceGraphs_ = reader.u64();
    return !reader.failed() && reader.atEnd();
}

std::uint32_t
artifactCacheVersion()
{
    return kVersion;
}

} // namespace tracelens
