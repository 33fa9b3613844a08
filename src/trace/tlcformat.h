/**
 * @file
 * Shared low-level decoding machinery for the TLC1 container: format
 * constants, packed record sizes, the CorpusInput that reads an image
 * or a file, and the bounds-checked ByteCursor the parser in
 * serialize.cpp scans headers with (columns.cpp reuses the record
 * size). Internal to src/trace — not part of the public API.
 */

#ifndef TRACELENS_TRACE_TLCFORMAT_H
#define TRACELENS_TRACE_TLCFORMAT_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/expected.h"

namespace tracelens
{

class TraceCorpus;

namespace tlc
{

inline constexpr std::uint32_t kMagic = 0x31434c54; // "TLC1" LE
inline constexpr std::uint32_t kVersion = 2;

/**
 * Version 3 extends the container with per-stream event-block
 * encodings: each stream carries a u32 encoding tag after its event
 * count. Uncompressed writes still emit version 2 byte-for-byte, so
 * the bytes of an existing corpus file never shift and version 3
 * appears on disk only when block compression was requested. Readers
 * accept both.
 */
inline constexpr std::uint32_t kVersionCompressed = 3;

/** v3 per-stream event-block encoding tags. */
inline constexpr std::uint32_t kEventEncodingRaw = 0;
inline constexpr std::uint32_t kEventEncodingDelta = 1;

/**
 * Lower bound on the encoded size of one event in a delta block (six
 * fields, each at least a one-byte varint) — the guard that keeps a
 * hostile event count from driving a huge allocation before decode.
 */
inline constexpr std::size_t kDeltaMinBytesPerEvent = 6;

/** Exact on-disk sizes of the packed record types (no padding). */
inline constexpr std::size_t kEventRecordBytes = 32;
inline constexpr std::size_t kInstanceRecordBytes = 28;

/**
 * The bytes of one TLC1 image: an in-memory image, whose reads are
 * views into it, or an open file descriptor, read with pread into a
 * buffer the caller owns. size() is the image's length or the file's
 * length at open (fstat); every check against "what remains" uses it,
 * and a file that has since shrunk shows up as a short read, never as
 * a fault.
 */
class CorpusInput
{
  public:
    CorpusInput(std::span<const std::byte> image, std::string file)
        : image_(image), size_(image.size()), file_(std::move(file))
    {
    }
    CorpusInput(int fd, std::uint64_t size, std::string file)
        : fd_(fd), size_(size), file_(std::move(file))
    {
    }

    std::uint64_t size() const { return size_; }
    const std::string &file() const { return file_; }

    /**
     * Bytes [@p offset, @p offset + @p n), which the caller has checked
     * lie within size(): a view of the image, or read into @p buffer
     * (grown to fit). The result is shorter than @p n only when the
     * file ended early; a failed read is an error.
     */
    Expected<std::span<const std::byte>>
    read(std::uint64_t offset, std::size_t n,
         std::vector<std::byte> &buffer) const;

  private:
    std::span<const std::byte> image_;
    int fd_ = -1;
    std::uint64_t size_ = 0;
    std::string file_;
};

/**
 * Bounds-checked little-endian cursor over a CorpusInput. It reads
 * through a window of at least kWindowBytes that is refilled when a
 * read leaves it, so scanning a file's headers never holds more than
 * a window of it. The first failure latches a SourceError (with the
 * byte offset at which the violation was detected) and every
 * subsequent read becomes a no-op returning false, so parse loops
 * can bail out cheaply. All loads go through memcpy: the TLC1
 * sections are packed with no alignment guarantees (see
 * docs/TRACE_FORMAT.md), so records must never be dereferenced
 * through reinterpret_cast.
 */
class ByteCursor
{
  public:
    explicit ByteCursor(const CorpusInput &input) : input_(input) {}

    bool failed() const { return failed_; }
    const SourceError &error() const { return error_; }
    std::uint64_t offset() const { return pos_; }
    std::uint64_t remaining() const { return input_.size() - pos_; }

    /** Latch a failure at the current offset. */
    bool
    fail(std::string reason)
    {
        if (!failed_) {
            failed_ = true;
            error_ = {input_.file(), pos_, std::move(reason)};
        }
        return false;
    }

    /**
     * Step over the next @p n bytes without reading them — how the
     * header scan passes an event block, which is decoded later.
     */
    bool
    skip(std::uint64_t n, const char *what)
    {
        if (failed_)
            return false;
        if (remaining() < n) {
            return fail(
                detail::concat("truncated corpus file (", what, ")"));
        }
        pos_ += n;
        return true;
    }

    bool
    u32(std::uint32_t &v, const char *what)
    {
        if (!need(sizeof(v), what))
            return false;
        std::memcpy(&v, at(), sizeof(v));
        pos_ += sizeof(v);
        return true;
    }

    bool
    i64(std::int64_t &v, const char *what)
    {
        if (!need(sizeof(v), what))
            return false;
        std::memcpy(&v, at(), sizeof(v));
        pos_ += sizeof(v);
        return true;
    }

    /**
     * Length-prefixed string as a view into the window, valid until
     * the next read.
     */
    bool
    stringView(std::string_view &sv, const char *what)
    {
        std::uint32_t len = 0;
        if (!u32(len, what))
            return false;
        if (len > remaining()) {
            return fail(detail::concat(
                "truncated corpus file (", what, "): string of ", len,
                " bytes but only ", remaining(), " left"));
        }
        if (!need(len, what))
            return false;
        sv = std::string_view(reinterpret_cast<const char *>(at()), len);
        pos_ += len;
        return true;
    }

    /**
     * Read a record/element count and reject counts that could not
     * possibly fit in the rest of the input (each element occupies at
     * least @p min_element_bytes). This is the guard that keeps a
     * hostile count field from driving a multi-gigabyte allocation or
     * a long bogus decode loop.
     */
    bool
    count(std::uint32_t &v, std::size_t min_element_bytes,
          const char *what)
    {
        if (!u32(v, what))
            return false;
        if (v > remaining() / min_element_bytes) {
            return fail(detail::concat(
                "corrupt corpus file: ", what, " count ", v,
                " cannot fit in the ", remaining(),
                " bytes that remain"));
        }
        return true;
    }

  private:
    static constexpr std::size_t kWindowBytes = 4096;

    /** Make [pos_, pos_ + n) readable at at(), refilling the window
     *  when it does not hold them. */
    bool
    need(std::size_t n, const char *what)
    {
        if (failed_)
            return false;
        if (remaining() < n) {
            return fail(
                detail::concat("truncated corpus file (", what, ")"));
        }
        if (pos_ >= base_ && pos_ + n <= base_ + window_.size())
            return true;
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining(),
                                    std::max(n, kWindowBytes)));
        Expected<std::span<const std::byte>> got =
            input_.read(pos_, want, buffer_);
        if (!got) {
            failed_ = true;
            error_ = got.error();
            return false;
        }
        window_ = got.value();
        base_ = pos_;
        if (window_.size() < n) {
            return fail(
                detail::concat("truncated corpus file (", what, ")"));
        }
        return true;
    }

    const std::byte *at() const { return window_.data() + (pos_ - base_); }

    const CorpusInput &input_;
    std::vector<std::byte> buffer_;
    std::span<const std::byte> window_;
    std::uint64_t base_ = 0;
    std::uint64_t pos_ = 0;
    bool failed_ = false;
    SourceError error_;
};

/**
 * The one TLC1 parser behind parseCorpus() and
 * readCorpusFileChecked(). It scans the headers on the calling
 * thread, then decodes the event blocks on @p threads workers
 * (0 = all hardware threads). A bad block lies in front of any header
 * the scan failed on after it, so the first error in file order wins.
 */
Expected<TraceCorpus> parse(const CorpusInput &input, unsigned threads);

} // namespace tlc
} // namespace tracelens

#endif // TRACELENS_TRACE_TLCFORMAT_H
