/**
 * @file
 * Tests for the ingestion layer (src/trace/source.h): file and
 * sharded sources against the in-memory corpus, corrupt-shard
 * isolation, and hostile-input robustness of the bounds-checked
 * parser.
 */

#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/analyzer.h"
#include "src/core/report.h"
#include "src/trace/builder.h"
#include "src/trace/merge.h"
#include "src/trace/serialize.h"
#include "src/trace/source.h"
#include "src/trace/validate.h"
#include "src/workload/generator.h"
#include "src/workload/scenarios.h"

namespace tracelens
{
namespace
{

namespace fs = std::filesystem;

/**
 * Fresh scratch directory under /tmp, removed on destruction. The
 * path embeds the process id: this file builds into more than one
 * test binary, and ctest -j runs those binaries concurrently, so a
 * fixed name would let two processes stomp each other's fixtures.
 */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : path_(fs::temp_directory_path() /
                ("tracelens_source_test_" +
                 std::to_string(::getpid()) + "_" + name))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() { fs::remove_all(path_); }

    const fs::path &path() const { return path_; }
    std::string str() const { return path_.string(); }
    std::string file(const std::string &name) const
    {
        return (path_ / name).string();
    }

  private:
    fs::path path_;
};

CorpusSpec
smallSpec()
{
    CorpusSpec spec;
    spec.machines = 10;
    spec.seed = 777;
    return spec;
}

/** Thresholds for every catalog scenario present in @p corpus. */
std::vector<ScenarioThresholds>
catalogThresholds(const TraceCorpus &corpus)
{
    std::vector<ScenarioThresholds> scenarios;
    for (const ScenarioSpec &spec : scenarioCatalog()) {
        if (spec.selected &&
            corpus.findScenario(spec.name) != UINT32_MAX)
            scenarios.push_back({spec.name, spec.tFast, spec.tSlow});
    }
    return scenarios;
}

/** The full analysis report a source yields — the equivalence probe. */
std::string
reportFor(TraceSource &source)
{
    Analyzer analyzer(source);
    return buildReport(analyzer, catalogThresholds(analyzer.corpus()));
}

/** A tiny hand-built corpus serialized to bytes (for fuzz loops). */
std::vector<std::byte>
tinyCorpusBytes()
{
    TraceCorpus corpus;
    StreamBuilder b(corpus, "machine-x");
    const CallstackId app = b.stack({"app!Main", "fs.sys!Read"});
    const CallstackId drv = b.stack({"se.sys!Decrypt"});
    b.running(1, 0, 100, app);
    b.wait(1, 100, app);
    b.running(2, 100, 50, drv);
    b.unwait(2, 150, 1, drv);
    b.running(1, 150, 30, app);
    b.instance("S", 1, 0, 200);
    b.finish();

    std::ostringstream oss;
    writeCorpus(corpus, oss);
    const std::string raw = oss.str();
    std::vector<std::byte> bytes(raw.size());
    std::memcpy(bytes.data(), raw.data(), raw.size());
    return bytes;
}

// ------------------------------------------------ in-memory equivalence

TEST(Source, SingleFileReportEqualsInMemoryCorpus)
{
    const ScratchDir dir("equiv");
    const TraceCorpus corpus = generateCorpus(smallSpec());

    const std::string single = dir.file("corpus.tlc");
    writeCorpusFile(corpus, single);
    const std::string sharded = dir.file("shards");
    writeShardedCorpusDir(corpus, sharded, 4);

    // Reference: the in-memory corpus through the legacy wrapper. A
    // serialized round-trip reproduces interning order, so the
    // single-file report must equal this byte for byte. The sharded
    // layout re-interns symbols per shard (different ids, same
    // semantics), so it only has to open and load every shard.
    EagerSource reference(corpus);
    const std::string expected = reportFor(reference);
    ASSERT_FALSE(expected.empty());

    for (const std::string &path : {single, sharded}) {
        auto source = openSource(path);
        ASSERT_TRUE(source.ok()) << source.error().render();
        const std::string report = reportFor(*source.value());
        EXPECT_EQ(source.value()->stats().skippedShards, 0u);
        if (path == single) {
            EXPECT_EQ(report, expected);
        }
    }
}

TEST(Source, CompressedCorpusYieldsIdenticalReports)
{
    const ScratchDir dir("compressed");
    const TraceCorpus corpus = generateCorpus(smallSpec());

    CorpusWriteOptions packed;
    packed.compressEvents = true;
    const std::string raw = dir.file("raw.tlc");
    const std::string compact = dir.file("compact.tlc");
    writeCorpusFile(corpus, raw);
    writeCorpusFile(corpus, compact, packed);
    const std::string shards = dir.file("shards");
    writeShardedCorpusDir(corpus, shards, 4, packed);

    // The delta encoding has to actually pay for its format tag.
    EXPECT_LT(fs::file_size(compact), fs::file_size(raw));

    EagerSource reference(corpus);
    const std::string expected = reportFor(reference);

    for (const std::string &path : {raw, compact, shards}) {
        auto source = openSource(path);
        ASSERT_TRUE(source.ok()) << source.error().render();
        EXPECT_EQ(source.value()->stats().skippedShards, 0u);
        if (path != shards) {
            EXPECT_EQ(reportFor(*source.value()), expected) << path;
        }
    }

    // Sharded compressed and sharded raw agree with each other even
    // though per-shard re-interning keeps them off the single-file
    // reference.
    const std::string rawShards = dir.file("raw-shards");
    writeShardedCorpusDir(corpus, rawShards, 4);
    auto a = openSource(shards), b = openSource(rawShards);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(reportFor(*a.value()), reportFor(*b.value()));
}

TEST(Source, ShardedDirectoryEqualsMonolithicFile)
{
    // The sharded layout must analyze identically to the single file
    // it was split from (lazy re-interning in appendCorpusStreams).
    const ScratchDir dir("split");
    const TraceCorpus corpus = generateCorpus(smallSpec());
    const std::string sharded = dir.file("shards");
    const std::vector<std::string> paths =
        writeShardedCorpusDir(corpus, sharded, 3);

    auto source = openSource(sharded);
    ASSERT_TRUE(source.ok());
    const TraceCorpus &merged = source.value()->corpus();
    EXPECT_EQ(merged.streamCount(), corpus.streamCount());
    EXPECT_EQ(merged.totalEvents(), corpus.totalEvents());
    EXPECT_EQ(merged.instances().size(), corpus.instances().size());

    // corpus() appends each shard as it is read; that must give the
    // bytes of merging all the decoded shards at once.
    std::vector<TraceCorpus> parts;
    for (const std::string &path : paths)
        parts.push_back(readCorpusFileChecked(path).value());
    std::ostringstream streamed, mergedAtOnce;
    writeCorpus(merged, streamed);
    writeCorpus(mergeCorpora(parts), mergedAtOnce);
    EXPECT_EQ(streamed.str(), mergedAtOnce.str());

    EagerSource mono_source(corpus);
    const ImpactResult a = Analyzer(mono_source).impactAll();
    const ImpactResult b = Analyzer(*source.value()).impactAll();
    EXPECT_EQ(a.dScn, b.dScn);
    EXPECT_EQ(a.dWait, b.dWait);
    EXPECT_EQ(a.dRun, b.dRun);
    EXPECT_EQ(a.dWaitDist, b.dWaitDist);
}

// ----------------------------------------------------- error isolation

TEST(Source, CorruptShardIsSkippedAndReported)
{
    const ScratchDir dir("corrupt");
    const std::string sharded = dir.file("shards");
    const auto paths =
        writeShardedCorpusDir(generateCorpus(smallSpec()), sharded, 4);
    ASSERT_EQ(paths.size(), 4u);

    // Tally the instances the healthy shards contribute.
    std::size_t good_instances = 0;
    for (std::size_t i = 0; i < paths.size(); ++i) {
        if (i == 2)
            continue;
        auto part = readCorpusFileChecked(paths[i]);
        ASSERT_TRUE(part.ok());
        good_instances += part.value().instances().size();
    }

    // Wreck shard 2: keep the magic, garbage after it.
    {
        std::ofstream out(paths[2], std::ios::binary | std::ios::trunc);
        out << "TLC1 this is not a corpus";
    }

    auto opened = openSource(sharded);
    ASSERT_TRUE(opened.ok());
    TraceSource &source = *opened.value();

    const TraceCorpus &merged = source.corpus(); // never fatal
    EXPECT_EQ(merged.instances().size(), good_instances);

    const IngestStats &stats = source.stats();
    EXPECT_EQ(stats.shards, 4u);
    EXPECT_EQ(stats.loadedShards, 3u);
    EXPECT_EQ(stats.skippedShards, 1u);
    ASSERT_EQ(stats.errors.size(), 1u);
    EXPECT_NE(stats.errors[0].file.find("shard-0002"),
              std::string::npos);
    EXPECT_FALSE(stats.errors[0].reason.empty());
    EXPECT_FALSE(source.shard(2).ok());
    // Repeated access must not double-count the skip.
    EXPECT_EQ(source.stats().skippedShards, 1u);

    const ValidationReport report = validateSource(source);
    EXPECT_EQ(report.skippedShards, 1u);
    EXPECT_FALSE(report.clean());
    EXPECT_NE(report.render().find("load error"),
              std::string::npos);
}

TEST(Source, OpenSourceRejectsMissingAndEmptyPaths)
{
    const ScratchDir dir("open");
    EXPECT_FALSE(openSource(dir.file("nope.tlc")).ok());
    // A directory with no *.tlc shards is an error up front.
    fs::create_directories(dir.file("empty"));
    auto empty = openSource(dir.file("empty"));
    ASSERT_FALSE(empty.ok());
    EXPECT_NE(empty.error().reason.find("no"), std::string::npos);
}

// ------------------------------------------------- hostile-input fuzzing

TEST(Source, ParseCorpusSurvivesEveryTruncation)
{
    const std::vector<std::byte> bytes = tinyCorpusBytes();
    ASSERT_TRUE(
        parseCorpus({bytes.data(), bytes.size()}, "full").ok());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        auto result = parseCorpus({bytes.data(), len}, "trunc");
        EXPECT_FALSE(result.ok()) << "prefix of " << len << " bytes";
        EXPECT_LE(result.error().offset, len);
    }
}

TEST(Source, ParseCorpusSurvivesEveryByteFlip)
{
    const std::vector<std::byte> bytes = tinyCorpusBytes();
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::vector<std::byte> mutated = bytes;
        mutated[i] ^= std::byte{0xFF};
        // Must either reject cleanly or decode something; never crash
        // or read out of bounds (the ASan preset checks the latter).
        auto result =
            parseCorpus({mutated.data(), mutated.size()}, "flip");
        if (!result.ok())
            ++rejected;
    }
    EXPECT_GT(rejected, 0u);
}

TEST(Source, ParseCorpusRejectsImpossibleCounts)
{
    // A frame count of 0xFFFFFFFF cannot fit in the file; the parser
    // must reject it up front instead of attempting the allocation.
    std::vector<std::byte> bytes = tinyCorpusBytes();
    const std::size_t frame_count_at = 8; // magic + version
    ASSERT_GE(bytes.size(), frame_count_at + 4);
    std::memset(bytes.data() + frame_count_at, 0xFF, 4);
    auto result = parseCorpus({bytes.data(), bytes.size()}, "huge");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().reason.find("corpus"), std::string::npos);
}

TEST(Source, BorrowingEagerSourceIsTheCorpusCompatibilityPath)
{
    // A corpus wrapped in a borrowing EagerSource analyzes without a
    // copy and yields the same results as any other source of it.
    const TraceCorpus corpus = generateCorpus(smallSpec());
    EagerSource borrowed(corpus);
    Analyzer current(borrowed);
    EXPECT_EQ(&current.source(), &borrowed);
    EXPECT_EQ(&current.corpus(), &corpus); // aliased, not merged

    EagerSource again(corpus);
    Analyzer other(again);
    EXPECT_EQ(current.impactAll().dWait, other.impactAll().dWait);
}

} // namespace
} // namespace tracelens
