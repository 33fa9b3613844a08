/**
 * @file
 * Binary reader/writer for the TLC1 corpus container (see
 * docs/TRACE_FORMAT.md for the byte-level layout).
 *
 * All decoding funnels through one parser, tlc::parse(), over a
 * tlc::CorpusInput: an in-memory image (parseCorpus) or a file read
 * with pread (readCorpusFileChecked). It scans the headers on the
 * calling thread, then decodes the stream blocks on the caller's
 * threads. On-disk counts, string lengths, ids, and record arrays
 * are validated against the input's size before any allocation or
 * access, so truncated and hostile inputs fail with a located
 * SourceError instead of overrunning a buffer.
 */

#include "src/trace/serialize.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <optional>
#include <ostream>
#include <sstream>
#include <system_error>

#include "src/trace/merge.h"
#include "src/trace/tlcformat.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/varint.h"

namespace tracelens
{

namespace
{

using tlc::ByteCursor;
using tlc::kEventRecordBytes;
using tlc::kInstanceRecordBytes;
using tlc::kMagic;
using tlc::kVersion;

void
putU32(std::ostream &out, std::uint32_t v)
{
    out.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putI64(std::ostream &out, std::int64_t v)
{
    out.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putString(std::ostream &out, const std::string &s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/**
 * Encode one stream's events as a delta-varint block: field-major,
 * timestamps and thread/stack ids as zigzag deltas (sorted timestamps
 * and clustered ids make these tiny), costs and types as plain
 * zigzag/varints. Field-major beats record-major here because runs of
 * zero deltas compress to runs of single zero bytes.
 */
std::string
encodeDeltaEvents(const TraceStream &stream)
{
    std::string block;
    block.reserve(stream.size() * 4);
    std::int64_t prev = 0;
    for (const Event &e : stream.events()) {
        putVarint(block, zigzagEncode(e.timestamp - prev));
        prev = e.timestamp;
    }
    for (const Event &e : stream.events())
        putVarint(block, zigzagEncode(e.cost));
    prev = 0;
    for (const Event &e : stream.events()) {
        putVarint(block,
                  zigzagEncode(static_cast<std::int64_t>(e.tid) - prev));
        prev = static_cast<std::int64_t>(e.tid);
    }
    prev = 0;
    for (const Event &e : stream.events()) {
        putVarint(block, zigzagEncode(
                             static_cast<std::int64_t>(e.wtid) - prev));
        prev = static_cast<std::int64_t>(e.wtid);
    }
    prev = 0;
    for (const Event &e : stream.events()) {
        putVarint(block, zigzagEncode(
                             static_cast<std::int64_t>(e.stack) - prev));
        prev = static_cast<std::int64_t>(e.stack);
    }
    for (const Event &e : stream.events())
        putVarint(block, static_cast<std::uint32_t>(e.type));
    return block;
}

} // namespace

void
writeCorpus(const TraceCorpus &corpus, std::ostream &out)
{
    writeCorpus(corpus, out, CorpusWriteOptions{});
}

void
writeCorpus(const TraceCorpus &corpus, std::ostream &out,
            const CorpusWriteOptions &options)
{
    putU32(out, kMagic);
    putU32(out, options.compressEvents ? tlc::kVersionCompressed
                                       : kVersion);

    const SymbolTable &sym = corpus.symbols();

    putU32(out, static_cast<std::uint32_t>(sym.frameCount()));
    for (FrameId f = 0; f < sym.frameCount(); ++f)
        putString(out, sym.frameName(f));

    putU32(out, static_cast<std::uint32_t>(sym.stackCount()));
    for (CallstackId s = 0; s < sym.stackCount(); ++s) {
        const auto frames = sym.stackFrames(s);
        putU32(out, static_cast<std::uint32_t>(frames.size()));
        for (FrameId f : frames)
            putU32(out, f);
    }

    putU32(out, static_cast<std::uint32_t>(corpus.scenarioCount()));
    for (std::uint32_t i = 0; i < corpus.scenarioCount(); ++i)
        putString(out, corpus.scenarioName(i));

    putU32(out, static_cast<std::uint32_t>(corpus.streamCount()));
    for (std::uint32_t i = 0; i < corpus.streamCount(); ++i) {
        const TraceStream &stream = corpus.stream(i);
        putString(out, stream.name);
        putU32(out, static_cast<std::uint32_t>(stream.tags.size()));
        for (const auto &[key, value] : stream.tags) {
            putString(out, key);
            putString(out, value);
        }
        putU32(out, static_cast<std::uint32_t>(stream.size()));
        if (options.compressEvents) {
            const std::string block = encodeDeltaEvents(stream);
            putU32(out, tlc::kEventEncodingDelta);
            putU32(out, static_cast<std::uint32_t>(block.size()));
            out.write(block.data(),
                      static_cast<std::streamsize>(block.size()));
        } else {
            for (const Event &e : stream.events()) {
                putI64(out, e.timestamp);
                putI64(out, e.cost);
                putU32(out, e.tid);
                putU32(out, e.wtid);
                putU32(out, e.stack);
                putU32(out, static_cast<std::uint32_t>(e.type));
            }
        }
    }

    putU32(out, static_cast<std::uint32_t>(corpus.instances().size()));
    for (const ScenarioInstance &inst : corpus.instances()) {
        putU32(out, inst.stream);
        putU32(out, inst.scenario);
        putU32(out, inst.tid);
        putI64(out, inst.t0);
        putI64(out, inst.t1);
    }
}

void
writeCorpusFile(const TraceCorpus &corpus, const std::string &path,
                const CorpusWriteOptions &options)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        TL_FATAL("cannot open '", path, "' for writing");
    writeCorpus(corpus, out, options);
    if (!out)
        TL_FATAL("write to '", path, "' failed");
}

std::vector<std::string>
writeShardedCorpusDir(const TraceCorpus &corpus, const std::string &dir,
                      std::size_t shards,
                      const CorpusWriteOptions &options)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        TL_FATAL("cannot create shard directory '", dir, "': ",
                 ec.message());
    }
    const std::vector<TraceCorpus> parts = splitCorpus(corpus, shards);
    std::vector<std::string> paths;
    paths.reserve(parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
        std::ostringstream name;
        name << "shard-" << std::setfill('0') << std::setw(4) << i
             << ".tlc";
        const std::string path =
            (std::filesystem::path(dir) / name.str()).string();
        writeCorpusFile(parts[i], path, options);
        paths.push_back(path);
    }
    return paths;
}

Expected<EventColumns>
decodeDeltaEventBlock(std::span<const std::byte> block,
                      std::uint32_t event_count,
                      std::uint32_t stack_count, const std::string &file,
                      std::uint64_t block_offset)
{
    const auto *data =
        reinterpret_cast<const unsigned char *>(block.data());
    const std::size_t size = block.size();
    std::size_t pos = 0;

    const auto fail = [&](const char *what) -> SourceError {
        return SourceError{file, block_offset + pos,
                           detail::concat(
                               "corrupt compressed event block (", what,
                               ")")};
    };

    // Decode field-major into canonical packed records, then run the
    // same bulk columnar decode as the raw path so every validation
    // (type range, cost sanity, stack bounds) applies unchanged.
    std::vector<std::byte> records(
        static_cast<std::size_t>(event_count) * kEventRecordBytes);
    const auto put = [&](std::size_t event, std::size_t field_offset,
                         const void *src, std::size_t n) {
        std::memcpy(records.data() + event * kEventRecordBytes +
                        field_offset,
                    src, n);
    };

    std::uint64_t raw = 0;
    std::int64_t prev = 0;
    for (std::uint32_t i = 0; i < event_count; ++i) {
        if (!getVarint(data, size, pos, raw))
            return fail("timestamp");
        const std::int64_t ts = prev + zigzagDecode(raw);
        prev = ts;
        put(i, 0, &ts, 8);
    }
    for (std::uint32_t i = 0; i < event_count; ++i) {
        if (!getVarint(data, size, pos, raw))
            return fail("cost");
        const std::int64_t cost = zigzagDecode(raw);
        put(i, 8, &cost, 8);
    }
    static constexpr struct {
        std::size_t offset;
        const char *name;
    } kU32DeltaFields[] = {{16, "tid"}, {20, "wtid"}, {24, "stack"}};
    for (const auto &field : kU32DeltaFields) {
        prev = 0;
        for (std::uint32_t i = 0; i < event_count; ++i) {
            if (!getVarint(data, size, pos, raw))
                return fail(field.name);
            const std::int64_t wide = prev + zigzagDecode(raw);
            prev = wide;
            if (wide < 0 || wide > 0xffffffffll) {
                return SourceError{
                    file, block_offset + pos,
                    detail::concat("corrupt compressed event block (",
                                   field.name, " out of u32 range)")};
            }
            const std::uint32_t v = static_cast<std::uint32_t>(wide);
            put(i, field.offset, &v, 4);
        }
    }
    for (std::uint32_t i = 0; i < event_count; ++i) {
        if (!getVarint(data, size, pos, raw))
            return fail("type");
        if (raw > 0xffffffffull)
            return fail("type out of u32 range");
        const std::uint32_t v = static_cast<std::uint32_t>(raw);
        put(i, 28, &v, 4);
    }
    if (pos != size)
        return fail("trailing bytes after last event");

    EventColumns columns;
    columns.reserve(event_count);
    if (auto issue = columns.appendTlcRecords(records, event_count,
                                              stack_count)) {
        return SourceError{file, block_offset, std::move(issue->reason)};
    }
    return columns;
}

Expected<std::span<const std::byte>>
tlc::CorpusInput::read(std::uint64_t offset, std::size_t n,
                       std::vector<std::byte> &buffer) const
{
    if (fd_ < 0)
        return image_.subspan(offset, n);
    if (buffer.size() < n)
        buffer.resize(n);
    std::size_t got = 0;
    while (got < n) {
        const ssize_t r = ::pread(fd_, buffer.data() + got, n - got,
                                  static_cast<off_t>(offset + got));
        if (r < 0 && errno == EINTR)
            continue;
        if (r < 0) {
            // generic_category, not strerror: this runs on pool workers.
            return SourceError{
                file_, offset + got,
                detail::concat("read of '", file_, "' failed: ",
                               std::generic_category().message(errno))};
        }
        if (r == 0)
            break; // the file ended early: it shrank since fstat
        got += static_cast<std::size_t>(r);
    }
    return std::span<const std::byte>(buffer.data(), got);
}

namespace
{

/** A read-only file descriptor, closed when it goes out of scope. */
class OpenFile
{
  public:
    explicit OpenFile(const std::string &path)
        : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC))
    {
    }
    ~OpenFile()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    OpenFile(const OpenFile &) = delete;
    OpenFile &operator=(const OpenFile &) = delete;

    /** The descriptor, or -1 when the open failed. */
    int fd() const { return fd_; }

  private:
    int fd_;
};

/** Where one stream's event block lies, as the header scan found it. */
struct EventBlock
{
    std::uint64_t offset = 0; //!< File offset of the first byte.
    std::uint64_t bytes = 0;  //!< Encoded size.
    std::uint32_t events = 0;
    bool delta = false; //!< Delta-varint encoded, else raw records.
};

/** Raw records read and decoded per step (64 KiB), so a worker's read
 *  buffer stays small and in cache. */
constexpr std::uint32_t kChunkRecords = 2048;

/**
 * Scan a TLC1 image in file order on the calling thread: frames,
 * stacks and scenarios into @p corpus, each stream's name and tags
 * into a new stream of it and its event block's extent into
 * @p blocks, then the instances. Event blocks are stepped over, not
 * read. The scan stops at the first bad header, latched in @p cur;
 * @p blocks then holds the blocks in front of it.
 */
void
scanHeaders(ByteCursor &cur, TraceCorpus &corpus,
            std::vector<EventBlock> &blocks)
{
    std::uint32_t magic = 0;
    if (!cur.u32(magic, "magic"))
        return;
    if (magic != kMagic) {
        cur.fail("not a TraceLens corpus (bad magic)");
        return;
    }
    std::uint32_t version = 0;
    if (!cur.u32(version, "version"))
        return;
    if (version != kVersion && version != tlc::kVersionCompressed) {
        cur.fail(detail::concat("unsupported corpus version ", version));
        return;
    }

    SymbolTable &sym = corpus.symbols();

    std::uint32_t frame_count = 0;
    if (!cur.count(frame_count, sizeof(std::uint32_t), "frame"))
        return;
    for (std::uint32_t i = 0; i < frame_count; ++i) {
        std::string_view name;
        if (!cur.stringView(name, "frame name"))
            return;
        if (sym.internFrame(name) != i) {
            cur.fail("corpus contains duplicate frame entries");
            return;
        }
    }

    std::uint32_t stack_count = 0;
    if (!cur.count(stack_count, sizeof(std::uint32_t), "stack"))
        return;
    std::vector<FrameId> frames;
    for (std::uint32_t i = 0; i < stack_count; ++i) {
        std::uint32_t len = 0;
        if (!cur.count(len, sizeof(FrameId), "stack frame"))
            return;
        frames.resize(len);
        for (auto &f : frames) {
            if (!cur.u32(f, "stack frame id"))
                return;
            if (f >= frame_count) {
                cur.fail("corpus stack references unknown frame");
                return;
            }
        }
        if (sym.internStack(frames) != i) {
            cur.fail("corpus contains duplicate stack entries");
            return;
        }
    }

    std::uint32_t scenario_count = 0;
    if (!cur.count(scenario_count, sizeof(std::uint32_t), "scenario"))
        return;
    for (std::uint32_t i = 0; i < scenario_count; ++i) {
        std::string_view name;
        if (!cur.stringView(name, "scenario name"))
            return;
        if (corpus.internScenario(name) != i) {
            cur.fail("corpus contains duplicate scenario names");
            return;
        }
    }

    std::uint32_t stream_count = 0;
    if (!cur.count(stream_count, sizeof(std::uint32_t), "stream"))
        return;
    for (std::uint32_t i = 0; i < stream_count; ++i) {
        std::string_view name;
        if (!cur.stringView(name, "stream name"))
            return;
        TraceStream &stream =
            corpus.stream(corpus.addStream(std::string(name)));
        std::uint32_t tag_count = 0;
        if (!cur.count(tag_count, 2 * sizeof(std::uint32_t),
                       "stream tag"))
            return;
        for (std::uint32_t t = 0; t < tag_count; ++t) {
            // Copy the key out: reading the value may refill the
            // window the key's view points into.
            std::string_view key, value;
            if (!cur.stringView(key, "tag key"))
                return;
            std::string owned_key(key);
            if (!cur.stringView(value, "tag value"))
                return;
            stream.tags.emplace(std::move(owned_key), std::string(value));
        }
        EventBlock block;
        if (!cur.count(block.events,
                       version == kVersion ? kEventRecordBytes : 1,
                       "event"))
            return;
        std::uint32_t encoding = tlc::kEventEncodingRaw;
        if (version == tlc::kVersionCompressed &&
            !cur.u32(encoding, "event encoding"))
            return;
        const char *what = "event records";
        if (encoding == tlc::kEventEncodingRaw) {
            block.bytes = std::uint64_t{block.events} * kEventRecordBytes;
        } else if (encoding == tlc::kEventEncodingDelta) {
            std::uint32_t encoded_bytes = 0;
            if (!cur.u32(encoded_bytes, "event block size"))
                return;
            if (block.events >
                encoded_bytes / tlc::kDeltaMinBytesPerEvent) {
                cur.fail(detail::concat(
                    "corrupt corpus file: ", block.events,
                    " events cannot fit in a ", encoded_bytes,
                    "-byte compressed block"));
                return;
            }
            block.bytes = encoded_bytes;
            block.delta = true;
            what = "event block";
        } else {
            cur.fail(detail::concat("unknown event encoding ",
                                    encoding));
            return;
        }
        block.offset = cur.offset();
        if (!cur.skip(block.bytes, what))
            return;
        blocks.push_back(block);
    }

    std::uint32_t instance_count = 0;
    if (!cur.count(instance_count, kInstanceRecordBytes, "instance"))
        return;
    for (std::uint32_t i = 0; i < instance_count; ++i) {
        ScenarioInstance inst;
        if (!cur.u32(inst.stream, "instance stream") ||
            !cur.u32(inst.scenario, "instance scenario") ||
            !cur.u32(inst.tid, "instance tid") ||
            !cur.i64(inst.t0, "instance t0") ||
            !cur.i64(inst.t1, "instance t1"))
            return;
        if (inst.scenario >= scenario_count) {
            cur.fail("corpus instance references unknown scenario");
            return;
        }
        if (inst.stream >= stream_count) {
            cur.fail("corpus instance references unknown stream");
            return;
        }
        if (inst.t1 < inst.t0) {
            cur.fail("corpus instance window inverted");
            return;
        }
        corpus.addInstance(inst);
    }
}

/**
 * Decode one event block into columns: raw records kChunkRecords at a
 * time through appendTlcRecords, which checks time order across
 * appends, or a delta block whole through decodeDeltaEventBlock.
 * @p buffer is the calling worker's read buffer.
 */
Expected<EventColumns>
decodeBlock(const tlc::CorpusInput &input, const EventBlock &block,
            std::uint32_t stack_count, std::vector<std::byte> &buffer)
{
    // A file that shrank after the scan: the error a file that short
    // from the start gives when the block does not fit.
    const auto truncated = [&](const char *what) -> SourceError {
        return SourceError{
            input.file(), block.offset,
            detail::concat("truncated corpus file (", what, ")")};
    };
    if (block.delta) {
        Expected<std::span<const std::byte>> bytes =
            input.read(block.offset, block.bytes, buffer);
        if (!bytes)
            return bytes.error();
        if (bytes.value().size() < block.bytes)
            return truncated("event block");
        return decodeDeltaEventBlock(bytes.value(), block.events,
                                     stack_count, input.file(),
                                     block.offset);
    }
    EventColumns columns;
    columns.reserve(block.events);
    for (std::uint32_t done = 0; done < block.events;) {
        const std::uint32_t n = std::min(block.events - done, kChunkRecords);
        const std::size_t n_bytes = std::size_t{n} * kEventRecordBytes;
        const std::uint64_t at =
            block.offset + std::uint64_t{done} * kEventRecordBytes;
        Expected<std::span<const std::byte>> records =
            input.read(at, n_bytes, buffer);
        if (!records)
            return records.error();
        if (records.value().size() < n_bytes)
            return truncated("event records");
        if (auto issue = columns.appendTlcRecords(records.value(), n,
                                                  stack_count)) {
            // The scalar parser read a whole record before validating
            // it, so the historical failure offset is the end of the
            // offending record — reproduce that exactly.
            return SourceError{
                input.file(), at + (issue->index + 1) * kEventRecordBytes,
                std::move(issue->reason)};
        }
        done += n;
    }
    return columns;
}

/**
 * Decode @p blocks into the streams of @p corpus on up to @p threads
 * workers (0 = all hardware threads). Workers claim blocks in file
 * order, each reading through a buffer of its own that lives only
 * for this call. Returns the error of the first bad block in file
 * order.
 */
std::optional<SourceError>
decodeBlocks(const tlc::CorpusInput &input,
             const std::vector<EventBlock> &blocks, TraceCorpus &corpus,
             unsigned threads)
{
    const auto stack_count =
        static_cast<std::uint32_t>(corpus.symbols().stackCount());
    std::vector<std::optional<SourceError>> errors(blocks.size());
    std::atomic<std::size_t> next{0};
    const std::size_t workers = std::max<std::size_t>(
        1, std::min<std::size_t>(resolveThreads(threads), blocks.size()));
    parallelFor(static_cast<unsigned>(workers), 0, workers,
                [&](std::size_t) {
        std::vector<std::byte> buffer;
        for (std::size_t j = next++; j < blocks.size(); j = next++) {
            Expected<EventColumns> columns =
                decodeBlock(input, blocks[j], stack_count, buffer);
            if (columns) {
                corpus.stream(static_cast<std::uint32_t>(j))
                    .adopt(std::move(columns.value()));
            } else {
                errors[j] = columns.error();
            }
        }
    });
    for (std::optional<SourceError> &error : errors) {
        if (error)
            return std::move(*error);
    }
    return std::nullopt;
}

} // namespace

Expected<TraceCorpus>
tlc::parse(const CorpusInput &input, unsigned threads)
{
    TraceCorpus corpus;
    std::vector<EventBlock> blocks;
    ByteCursor cur(input);
    scanHeaders(cur, corpus, blocks);
    if (std::optional<SourceError> error =
            decodeBlocks(input, blocks, corpus, threads))
        return std::move(*error);
    if (cur.failed())
        return cur.error();
    return corpus;
}

Expected<TraceCorpus>
parseCorpus(std::span<const std::byte> bytes, const std::string &file,
            unsigned threads)
{
    return tlc::parse(tlc::CorpusInput(bytes, file), threads);
}

Expected<TraceCorpus>
readCorpusFileChecked(const std::string &path, unsigned threads,
                      std::uint64_t *file_bytes)
{
    const OpenFile file(path);
    struct stat st = {};
    if (file.fd() < 0 || ::fstat(file.fd(), &st) != 0) {
        return SourceError{path, 0,
                           "cannot open '" + path + "' for reading"};
    }
    const auto size = static_cast<std::uint64_t>(st.st_size);
    if (file_bytes != nullptr)
        *file_bytes = size;
    return tlc::parse(tlc::CorpusInput(file.fd(), size, path), threads);
}

std::string
dumpStream(const TraceCorpus &corpus, std::uint32_t stream,
           std::size_t max_events)
{
    const TraceStream &ts = corpus.stream(stream);
    const SymbolTable &sym = corpus.symbols();
    std::ostringstream oss;
    oss << "stream " << stream << " '" << ts.name << "' ("
        << ts.size() << " events)\n";
    std::size_t shown = 0;
    for (const Event &e : ts.events()) {
        if (shown++ >= max_events) {
            oss << "  ... (" << ts.size() - max_events
                << " more events)\n";
            break;
        }
        oss << "  [" << std::setw(10) << e.timestamp << "ns] "
            << eventTypeName(e.type) << " tid=" << e.tid;
        if (e.type == EventType::Unwait)
            oss << " wtid=" << e.wtid;
        if (e.cost > 0)
            oss << " cost=" << e.cost << "ns";
        if (e.stack != kNoCallstack) {
            const auto frames = sym.stackFrames(e.stack);
            if (!frames.empty())
                oss << " top=" << sym.frameName(frames.back());
        }
        oss << "\n";
    }
    return oss.str();
}

std::uint32_t
traceFormatVersion()
{
    return tlc::kVersionCompressed;
}

} // namespace tracelens
