/**
 * @file
 * Tests for the ingestion layer (src/trace/source.h): file and
 * sharded sources against the in-memory corpus, corrupt-shard
 * isolation, hostile-input robustness of the bounds-checked parser,
 * and memory and file input decoding alike at every thread count.
 */

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
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
#include "src/trace/tlcformat.h"
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

/** @p corpus as the TLC1 image writeCorpus() makes of it. */
std::vector<std::byte>
corpusBytes(const TraceCorpus &corpus, const CorpusWriteOptions &options)
{
    std::ostringstream oss;
    writeCorpus(corpus, oss, options);
    const std::string raw = oss.str();
    std::vector<std::byte> bytes(raw.size());
    std::memcpy(bytes.data(), raw.data(), raw.size());
    return bytes;
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
    return corpusBytes(corpus, CorpusWriteOptions{});
}

/** The decode thread counts every decode test runs at. */
constexpr unsigned kDecodeThreads[] = {1, 4};

/**
 * Equal symbols, scenarios, streams (name, tags, every column,
 * endTime) and instances: what two decodes of one image must share.
 */
::testing::AssertionResult
sameCorpus(const TraceCorpus &a, const TraceCorpus &b)
{
    const auto same = [](auto x, auto y) {
        return std::equal(x.begin(), x.end(), y.begin(), y.end());
    };
    const SymbolTable &sa = a.symbols();
    const SymbolTable &sb = b.symbols();
    if (sa.frameCount() != sb.frameCount() ||
        sa.stackCount() != sb.stackCount())
        return ::testing::AssertionFailure() << "symbol counts differ";
    for (FrameId f = 0; f < sa.frameCount(); ++f) {
        if (sa.frameName(f) != sb.frameName(f))
            return ::testing::AssertionFailure() << "frame " << f;
    }
    for (CallstackId k = 0; k < sa.stackCount(); ++k) {
        if (!same(sa.stackFrames(k), sb.stackFrames(k)))
            return ::testing::AssertionFailure() << "stack " << k;
    }
    if (a.scenarioCount() != b.scenarioCount())
        return ::testing::AssertionFailure() << "scenario counts differ";
    for (std::uint32_t i = 0; i < a.scenarioCount(); ++i) {
        if (a.scenarioName(i) != b.scenarioName(i))
            return ::testing::AssertionFailure() << "scenario " << i;
    }
    if (a.streamCount() != b.streamCount())
        return ::testing::AssertionFailure() << "stream counts differ";
    for (std::uint32_t i = 0; i < a.streamCount(); ++i) {
        const TraceStream &x = a.stream(i);
        const TraceStream &y = b.stream(i);
        const EventColumns &cx = x.columns();
        const EventColumns &cy = y.columns();
        if (x.name != y.name || x.tags != y.tags ||
            x.endTime() != y.endTime() ||
            !same(cx.timestamps(), cy.timestamps()) ||
            !same(cx.costs(), cy.costs()) ||
            !same(cx.tids(), cy.tids()) ||
            !same(cx.wtids(), cy.wtids()) ||
            !same(cx.stacks(), cy.stacks()) ||
            !same(cx.types(), cy.types()))
            return ::testing::AssertionFailure() << "stream " << i;
    }
    const auto &ia = a.instances();
    const auto &ib = b.instances();
    if (ia.size() != ib.size())
        return ::testing::AssertionFailure() << "instance counts differ";
    for (std::size_t i = 0; i < ia.size(); ++i) {
        if (ia[i].stream != ib[i].stream ||
            ia[i].scenario != ib[i].scenario || ia[i].tid != ib[i].tid ||
            ia[i].t0 != ib[i].t0 || ia[i].t1 != ib[i].t1)
            return ::testing::AssertionFailure() << "instance " << i;
    }
    return ::testing::AssertionSuccess();
}

/** Two decode outcomes agree: equal corpora, or equal errors. */
::testing::AssertionResult
sameDecode(const Expected<TraceCorpus> &a, const Expected<TraceCorpus> &b)
{
    if (a.ok() != b.ok()) {
        return ::testing::AssertionFailure()
               << (a.ok() ? b : a).error().render() << " against a corpus";
    }
    if (a.ok())
        return sameCorpus(a.value(), b.value());
    if (a.error().render() != b.error().render()) {
        return ::testing::AssertionFailure()
               << a.error().render() << " against "
               << b.error().render();
    }
    return ::testing::AssertionSuccess();
}

void
writeBytes(const std::string &path, std::span<const std::byte> bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/**
 * Three tagged streams with a handful of events each: small enough to
 * decode every truncation and byte flip of, with enough blocks that
 * four decode threads share them.
 */
TraceCorpus
multiStreamCorpus()
{
    TraceCorpus corpus;
    for (const char *name : {"stream-a", "stream-b", "stream-c"}) {
        StreamBuilder b(corpus, name);
        const CallstackId app = b.stack({"app!Main", "fs.sys!Read"});
        const CallstackId drv = b.stack({"se.sys!Decrypt"});
        b.running(1, 0, 100, app);
        b.wait(1, 100, app);
        b.running(2, 100, 50, drv);
        b.hardware(9, 120, 20, kNoCallstack);
        b.unwait(2, 150, 1, drv);
        b.running(1, 150, 30, app);
        b.instance("S", 1, 0, 200);
        const std::uint32_t index = b.finish();
        if (index > 0)
            corpus.stream(index).tags["disk"] = index == 1 ? "hdd" : "ssd";
    }
    return corpus;
}

/**
 * Decode @p bytes from memory and from a file holding them, at every
 * decode thread count, and check every outcome against the one-thread
 * memory decode. @p path names both inputs, so errors match in full.
 */
::testing::AssertionResult
decodesAlike(std::span<const std::byte> bytes, const std::string &path)
{
    writeBytes(path, bytes);
    const Expected<TraceCorpus> reference = parseCorpus(bytes, path, 1);
    for (unsigned threads : kDecodeThreads) {
        auto memory = sameDecode(reference,
                                 parseCorpus(bytes, path, threads));
        if (!memory)
            return memory << " (memory, " << threads << " threads)";
        auto file = sameDecode(reference,
                               readCorpusFileChecked(path, threads));
        if (!file)
            return file << " (file, " << threads << " threads)";
    }
    return ::testing::AssertionSuccess();
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

    for (unsigned threads : kDecodeThreads) {
        for (const std::string &path : {single, sharded}) {
            auto source = openSource(path, threads);
            ASSERT_TRUE(source.ok()) << source.error().render();
            const std::string report = reportFor(*source.value());
            EXPECT_EQ(source.value()->stats().skippedShards, 0u);
            if (path == single) {
                EXPECT_EQ(report, expected) << threads << " threads";
                EXPECT_TRUE(sameCorpus(source.value()->corpus(), corpus))
                    << threads << " threads";
            }
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

    const std::string rawShards = dir.file("raw-shards");
    writeShardedCorpusDir(corpus, rawShards, 4);
    for (unsigned threads : kDecodeThreads) {
        for (const std::string &path : {raw, compact, shards}) {
            auto source = openSource(path, threads);
            ASSERT_TRUE(source.ok()) << source.error().render();
            EXPECT_EQ(source.value()->stats().skippedShards, 0u);
            if (path != shards) {
                EXPECT_EQ(reportFor(*source.value()), expected)
                    << path << ", " << threads << " threads";
                EXPECT_TRUE(sameCorpus(source.value()->corpus(), corpus))
                    << path << ", " << threads << " threads";
            }
        }

        // Sharded compressed and sharded raw agree with each other
        // even though per-shard re-interning keeps them off the
        // single-file reference.
        auto a = openSource(shards, threads);
        auto b = openSource(rawShards, threads);
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_TRUE(sameCorpus(a.value()->corpus(), b.value()->corpus()))
            << threads << " threads";
        EXPECT_EQ(reportFor(*a.value()), reportFor(*b.value()));
    }
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

TEST(Source, MemoryAndFileDecodeAlikeAtEveryThreadCount)
{
    // Every prefix and every single-byte flip of a v2 and a v3 image
    // decodes to the same corpus, or fails with the same offset and
    // reason, from memory and from a file, at every thread count.
    const ScratchDir dir("alike");
    const std::string path = dir.file("image.tlc");
    const TraceCorpus corpus = multiStreamCorpus();
    for (bool compress : {false, true}) {
        CorpusWriteOptions options;
        options.compressEvents = compress;
        const std::vector<std::byte> bytes = corpusBytes(corpus, options);
        ASSERT_TRUE(sameDecode(parseCorpus(bytes, path), corpus));
        for (std::size_t len = 0; len <= bytes.size(); ++len) {
            ASSERT_TRUE(decodesAlike({bytes.data(), len}, path))
                << (compress ? "v3" : "v2") << " prefix of " << len;
        }
        for (std::size_t i = 0; i < bytes.size(); ++i) {
            std::vector<std::byte> mutated = bytes;
            mutated[i] ^= std::byte{0xFF};
            ASSERT_TRUE(decodesAlike(mutated, path))
                << (compress ? "v3" : "v2") << " flip at " << i;
        }
    }
}

TEST(Source, FirstErrorInFileOrderWins)
{
    // A bad event type in stream 0 lies in front of a corrupt header
    // in stream 2, so it is the error at every thread count, though
    // the header scan meets the corrupt header first.
    const ScratchDir dir("first-error");
    const std::string path = dir.file("image.tlc");
    std::vector<std::byte> bytes =
        corpusBytes(multiStreamCorpus(), CorpusWriteOptions{});
    const auto find = [&](std::string_view text) {
        const auto *data = reinterpret_cast<const char *>(bytes.data());
        const std::size_t at =
            std::string_view(data, bytes.size()).find(text);
        EXPECT_NE(at, std::string_view::npos) << text;
        return at + text.size();
    };
    // stream-a has no tags: its tag count and event count, then the
    // records. The type is the last field of a 32-byte record.
    const std::size_t records = find("stream-a") + 8;
    const std::uint32_t bad_type = 99;
    std::memcpy(bytes.data() + records + 28, &bad_type, 4);
    // stream-c's tag count follows its name.
    std::memset(bytes.data() + find("stream-c"), 0xFF, 4);

    for (unsigned threads : kDecodeThreads) {
        const Expected<TraceCorpus> got = parseCorpus(bytes, path, threads);
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.error().offset, records + 32) << threads;
        EXPECT_EQ(got.error().reason, "corpus event has invalid type 99")
            << threads;
    }
    EXPECT_TRUE(decodesAlike(bytes, path));
}

TEST(Source, RecordErrorPastTheFirstReadChunkKeepsItsOffset)
{
    // Raw records are decoded a read chunk (2048 records) at a time;
    // an error in a later chunk is still located at the end of its
    // record, as a whole-block decode located it.
    const ScratchDir dir("chunk-error");
    const std::string path = dir.file("image.tlc");
    TraceCorpus corpus;
    StreamBuilder b(corpus, "long");
    const CallstackId app = b.stack({"app!Main"});
    for (TimeNs t = 0; t < 2100; ++t)
        b.running(1, 10 * t, 5, app);
    b.finish();
    std::vector<std::byte> bytes =
        corpusBytes(corpus, CorpusWriteOptions{});
    const auto *data = reinterpret_cast<const char *>(bytes.data());
    // No tags: the tag count and the event count, then the records.
    const std::size_t records =
        std::string_view(data, bytes.size()).find("long") + 4 + 8;
    const TimeNs back_in_time = 0;
    std::memcpy(bytes.data() + records + 2048 * 32, &back_in_time, 8);

    writeBytes(path, bytes);
    for (unsigned threads : kDecodeThreads) {
        for (const Expected<TraceCorpus> &got :
             {parseCorpus(bytes, path, threads),
              readCorpusFileChecked(path, threads)}) {
            ASSERT_FALSE(got.ok());
            EXPECT_EQ(got.error().offset, records + 2049 * 32) << threads;
            EXPECT_EQ(got.error().reason, "corpus events out of time order")
                << threads;
        }
    }
}

TEST(Source, FileThatShrinksUnderTheReaderIsTruncated)
{
    // The reader trusts the length fstat gave at open; a file cut
    // shorter after that fails its short pread with a truncation
    // error, in the header window or in an event block alike.
    const ScratchDir dir("shrink");
    const std::string path = dir.file("image.tlc");
    for (bool compress : {false, true}) {
        CorpusWriteOptions options;
        options.compressEvents = compress;
        const std::vector<std::byte> bytes =
            corpusBytes(multiStreamCorpus(), options);
        for (std::size_t len = 0; len < bytes.size(); ++len) {
            writeBytes(path, {bytes.data(), len});
            const int fd = ::open(path.c_str(), O_RDONLY);
            ASSERT_GE(fd, 0);
            for (unsigned threads : kDecodeThreads) {
                const Expected<TraceCorpus> got = tlc::parse(
                    tlc::CorpusInput(fd, bytes.size(), path), threads);
                ASSERT_FALSE(got.ok()) << len;
                EXPECT_EQ(got.error().reason.rfind(
                              "truncated corpus file", 0),
                          0u)
                    << len << ": " << got.error().render();
                EXPECT_LE(got.error().offset, len);
            }
            ::close(fd);
        }
    }
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
