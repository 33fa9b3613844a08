/**
 * @file
 * Binary reader/writer for the TLC1 corpus container (see
 * docs/TRACE_FORMAT.md for the byte-level layout).
 *
 * All decoding funnels through parseCorpus(), a bounds-checked parser
 * over an in-memory byte image, which readCorpusFileChecked() fills
 * from the file. On-disk counts, string lengths, ids, and record
 * arrays are validated against the actual buffer size before any
 * allocation or access, so truncated and hostile inputs fail with a
 * located SourceError instead of overrunning the buffer.
 */

#include "src/trace/serialize.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

#include "src/trace/merge.h"
#include "src/trace/tlcformat.h"
#include "src/util/logging.h"
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

/** Read a whole file into a byte buffer, or report why not. */
Expected<std::vector<std::byte>>
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) {
        return SourceError{path, 0,
                           "cannot open '" + path + "' for reading"};
    }
    const std::streamoff size = in.tellg();
    in.seekg(0, std::ios::beg);
    std::vector<std::byte> bytes(static_cast<std::size_t>(size));
    if (size > 0 &&
        !in.read(reinterpret_cast<char *>(bytes.data()), size)) {
        return SourceError{path, 0, "read of '" + path + "' failed"};
    }
    return bytes;
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

Expected<TraceCorpus>
parseCorpus(std::span<const std::byte> bytes, const std::string &file)
{
    ByteCursor cur(bytes, file);
    const auto err = [&]() -> SourceError { return cur.error(); };

    std::uint32_t magic = 0;
    if (!cur.u32(magic, "magic"))
        return err();
    if (magic != kMagic) {
        cur.fail("not a TraceLens corpus (bad magic)");
        return err();
    }
    std::uint32_t version = 0;
    if (!cur.u32(version, "version"))
        return err();
    if (version != kVersion && version != tlc::kVersionCompressed) {
        cur.fail(detail::concat("unsupported corpus version ", version));
        return err();
    }

    TraceCorpus corpus;
    SymbolTable &sym = corpus.symbols();

    std::uint32_t frame_count = 0;
    if (!cur.count(frame_count, sizeof(std::uint32_t), "frame"))
        return err();
    for (std::uint32_t i = 0; i < frame_count; ++i) {
        std::string_view name;
        if (!cur.stringView(name, "frame name"))
            return err();
        if (sym.internFrame(name) != i) {
            cur.fail("corpus contains duplicate frame entries");
            return err();
        }
    }

    std::uint32_t stack_count = 0;
    if (!cur.count(stack_count, sizeof(std::uint32_t), "stack"))
        return err();
    std::vector<FrameId> frames;
    for (std::uint32_t i = 0; i < stack_count; ++i) {
        std::uint32_t len = 0;
        if (!cur.count(len, sizeof(FrameId), "stack frame"))
            return err();
        frames.resize(len);
        for (auto &f : frames) {
            if (!cur.u32(f, "stack frame id"))
                return err();
            if (f >= frame_count) {
                cur.fail("corpus stack references unknown frame");
                return err();
            }
        }
        if (sym.internStack(frames) != i) {
            cur.fail("corpus contains duplicate stack entries");
            return err();
        }
    }

    std::uint32_t scenario_count = 0;
    if (!cur.count(scenario_count, sizeof(std::uint32_t), "scenario"))
        return err();
    for (std::uint32_t i = 0; i < scenario_count; ++i) {
        std::string_view name;
        if (!cur.stringView(name, "scenario name"))
            return err();
        if (corpus.internScenario(name) != i) {
            cur.fail("corpus contains duplicate scenario names");
            return err();
        }
    }

    std::uint32_t stream_count = 0;
    if (!cur.count(stream_count, sizeof(std::uint32_t), "stream"))
        return err();
    for (std::uint32_t i = 0; i < stream_count; ++i) {
        std::string_view name;
        if (!cur.stringView(name, "stream name"))
            return err();
        const std::uint32_t index = corpus.addStream(std::string(name));
        TraceStream &stream = corpus.stream(index);
        std::uint32_t tag_count = 0;
        if (!cur.count(tag_count, 2 * sizeof(std::uint32_t),
                       "stream tag"))
            return err();
        for (std::uint32_t t = 0; t < tag_count; ++t) {
            std::string_view key, value;
            if (!cur.stringView(key, "tag key") ||
                !cur.stringView(value, "tag value"))
                return err();
            stream.tags.emplace(std::string(key), std::string(value));
        }
        std::uint32_t event_count = 0;
        if (!cur.count(event_count,
                       version == kVersion ? kEventRecordBytes : 1,
                       "event"))
            return err();
        std::uint32_t encoding = tlc::kEventEncodingRaw;
        if (version == tlc::kVersionCompressed &&
            !cur.u32(encoding, "event encoding"))
            return err();
        if (encoding == tlc::kEventEncodingRaw) {
            const std::uint64_t block_start = cur.offset();
            std::span<const std::byte> records;
            if (!cur.view(records, event_count * kEventRecordBytes,
                          "event records"))
                return err();
            EventColumns columns;
            columns.reserve(event_count);
            if (auto issue = columns.appendTlcRecords(
                    records, event_count, stack_count)) {
                // The scalar parser read a whole record before
                // validating it, so the historical failure offset is
                // the end of the offending record — reproduce that
                // exactly.
                cur.failAt(block_start +
                               (issue->index + 1) * kEventRecordBytes,
                           std::move(issue->reason));
                return err();
            }
            stream.adopt(std::move(columns));
        } else if (encoding == tlc::kEventEncodingDelta) {
            std::uint32_t encoded_bytes = 0;
            if (!cur.u32(encoded_bytes, "event block size"))
                return err();
            if (event_count >
                encoded_bytes / tlc::kDeltaMinBytesPerEvent) {
                cur.fail(detail::concat(
                    "corrupt corpus file: ", event_count,
                    " events cannot fit in a ", encoded_bytes,
                    "-byte compressed block"));
                return err();
            }
            const std::uint64_t block_start = cur.offset();
            std::span<const std::byte> block;
            if (!cur.view(block, encoded_bytes, "event block"))
                return err();
            Expected<EventColumns> columns = decodeDeltaEventBlock(
                block, event_count, stack_count, file, block_start);
            if (!columns)
                return columns.error();
            stream.adopt(std::move(columns.value()));
        } else {
            cur.fail(detail::concat("unknown event encoding ",
                                    encoding));
            return err();
        }
    }

    std::uint32_t instance_count = 0;
    if (!cur.count(instance_count, kInstanceRecordBytes, "instance"))
        return err();
    for (std::uint32_t i = 0; i < instance_count; ++i) {
        ScenarioInstance inst;
        if (!cur.u32(inst.stream, "instance stream") ||
            !cur.u32(inst.scenario, "instance scenario") ||
            !cur.u32(inst.tid, "instance tid") ||
            !cur.i64(inst.t0, "instance t0") ||
            !cur.i64(inst.t1, "instance t1"))
            return err();
        if (inst.scenario >= scenario_count) {
            cur.fail("corpus instance references unknown scenario");
            return err();
        }
        if (inst.stream >= stream_count) {
            cur.fail("corpus instance references unknown stream");
            return err();
        }
        if (inst.t1 < inst.t0) {
            cur.fail("corpus instance window inverted");
            return err();
        }
        corpus.addInstance(inst);
    }

    return corpus;
}

Expected<TraceCorpus>
readCorpusFileChecked(const std::string &path)
{
    Expected<std::vector<std::byte>> bytes = slurpFile(path);
    if (!bytes)
        return bytes.error();
    return parseCorpus(bytes.value(), path);
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
