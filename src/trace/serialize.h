/**
 * @file
 * Binary serialization of trace corpora.
 *
 * The on-disk format plays the role ETW's .etl files play for the paper:
 * corpora can be generated once, persisted, and re-analyzed. The format
 * is a simple little-endian stream:
 *
 *   magic "TLC1", version u32,
 *   frames   (count, then length-prefixed signature strings in id order),
 *   stacks   (count, then length-prefixed FrameId arrays in id order),
 *   scenarios(count, then length-prefixed names in id order),
 *   streams  (count, then per stream: name, event count, packed events),
 *   instances(count, then packed ScenarioInstance records).
 *
 * Ids are assigned first-seen densely, so writing in id order and
 * re-interning in read order reproduces identical ids; round-trips are
 * bit-exact (validated by tests).
 *
 * Decoding is built on one bounds-checked buffer parser, parseCorpus():
 * every count, length, and id on disk is validated against the actual
 * buffer size before use, so truncated or hostile files produce a
 * SourceError (file, byte offset, reason) instead of reading past the
 * end. Every reader returns that error to its caller; the streaming
 * ingestion layer (src/trace/source.h) skips bad shards with it.
 */

#ifndef TRACELENS_TRACE_SERIALIZE_H
#define TRACELENS_TRACE_SERIALIZE_H

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "src/trace/stream.h"
#include "src/util/expected.h"
#include "src/util/hash.h"

namespace tracelens
{

/**
 * Writer knobs for the TLC1 container. With @c compressEvents unset
 * the output is the canonical version-2 image, byte-identical to what
 * every prior release wrote (digestCorpus depends on that). With it
 * set, the file is written as version 3 and each stream's event block is
 * delta-of-timestamp + zigzag-varint encoded (see
 * docs/TRACE_FORMAT.md §"Compressed event blocks"), typically 3-5x
 * smaller on generated corpora. Readers accept both versions
 * transparently.
 */
struct CorpusWriteOptions {
    bool compressEvents = false;
};

/** Serialize @p corpus to a binary ostream. */
void writeCorpus(const TraceCorpus &corpus, std::ostream &out);

/** Serialize @p corpus with explicit writer options. */
void writeCorpus(const TraceCorpus &corpus, std::ostream &out,
                 const CorpusWriteOptions &options);

/**
 * Content digest of @p corpus: the streaming hash of its canonical
 * TLC1 serialization (no buffer is materialized). Two corpora digest
 * equal iff their serialized bytes are equal, so the digest identifies
 * a shard's logical content independently of how it reached memory
 * (eager read, mmap materialization, in-memory generation). The
 * Analyzer folds each shard's digest into its corpus digest, which the
 * analysis service keys its response cache on.
 */
Digest digestCorpus(const TraceCorpus &corpus);

/** Serialize @p corpus to the file at @p path (fatal on I/O failure). */
void writeCorpusFile(const TraceCorpus &corpus, const std::string &path,
                     const CorpusWriteOptions &options = {});

/**
 * Split @p corpus into @p shards parts (see splitCorpus) and write
 * them as "shard-NNNN.tlc" files under @p dir (created if missing).
 * Returns the written paths in shard order. Fatal on I/O failure.
 */
std::vector<std::string> writeShardedCorpusDir(const TraceCorpus &corpus,
                                               const std::string &dir,
                                               std::size_t shards,
                                               const CorpusWriteOptions
                                                   &options = {});

/**
 * Decode one delta-varint event block (TLC1 v3, encoding tag 1) into
 * columns. @p block is exactly the encoded payload; @p block_offset is
 * its position in the containing file, used (with @p file) to locate
 * errors. Validation is identical to the raw path: the decoded fields
 * are re-packed into canonical 32-byte records and run through the
 * same bulk columnar decode, so hostile compressed input fails with a
 * SourceError instead of producing events the raw path would reject.
 */
Expected<EventColumns> decodeDeltaEventBlock(
    std::span<const std::byte> block, std::uint32_t event_count,
    std::uint32_t stack_count, const std::string &file,
    std::uint64_t block_offset);

/**
 * Decode a corpus from an in-memory TLC1 image with full bounds
 * checking; @p file names the origin in any SourceError. The returned
 * corpus owns all its data — @p bytes may be released afterwards —
 * but decoding itself is zero-copy: strings are interned straight from
 * views into the buffer and packed records are decoded in place, which
 * is what makes the mmap path fast.
 */
Expected<TraceCorpus> parseCorpus(std::span<const std::byte> bytes,
                                  const std::string &file = "<memory>");

/**
 * Read and decode a corpus file, reporting failures (including open /
 * read errors) as a SourceError instead of exiting.
 */
Expected<TraceCorpus> readCorpusFileChecked(const std::string &path);

/**
 * Render a human-readable dump of one stream (timestamp-ordered event
 * lines with resolved stacks), for debugging and the examples.
 */
std::string dumpStream(const TraceCorpus &corpus, std::uint32_t stream,
                       std::size_t max_events = 200);

/** On-disk corpus (TLC1) format revision (`tracelens version`). */
std::uint32_t traceFormatVersion();

} // namespace tracelens

#endif // TRACELENS_TRACE_SERIALIZE_H
