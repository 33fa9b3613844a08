/**
 * @file
 * Shared low-level decoding machinery for the TLC1 container: format
 * constants, packed record sizes, and the bounds-checked ByteCursor
 * both decoders are built on (the eager buffer parser in
 * serialize.cpp and the lazy skip-scan indexer in mmapreader.cpp).
 * Internal to src/trace — not part of the public API.
 */

#ifndef TRACELENS_TRACE_TLCFORMAT_H
#define TRACELENS_TRACE_TLCFORMAT_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

#include "src/util/expected.h"

namespace tracelens
{
namespace tlc
{

inline constexpr std::uint32_t kMagic = 0x31434c54; // "TLC1" LE
inline constexpr std::uint32_t kVersion = 2;

/**
 * Version 3 extends the container with per-stream event-block
 * encodings: each stream carries a u32 encoding tag after its event
 * count. Uncompressed writes still emit version 2 byte-for-byte (the
 * corpus digest — the response-cache key — is the hash of the
 * canonical v2 serialization and must stay stable), so version 3
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
 * Bounds-checked little-endian cursor over a byte image. The first
 * failure latches a SourceError (with the byte offset at which the
 * violation was detected) and every subsequent read becomes a no-op
 * returning false, so parse loops can bail out cheaply. All loads go
 * through memcpy: the TLC1 sections are packed with no alignment
 * guarantees (see docs/TRACE_FORMAT.md), so records inside an mmap'ed
 * image must never be dereferenced through reinterpret_cast.
 */
class ByteCursor
{
  public:
    ByteCursor(std::span<const std::byte> bytes, std::string file)
        : bytes_(bytes), file_(std::move(file))
    {
    }

    bool failed() const { return failed_; }
    const SourceError &error() const { return error_; }
    std::uint64_t offset() const { return pos_; }
    std::size_t remaining() const { return bytes_.size() - pos_; }

    /** Latch a failure at the current offset. */
    bool
    fail(std::string reason)
    {
        if (!failed_) {
            failed_ = true;
            error_ = {file_, pos_, std::move(reason)};
        }
        return false;
    }

    /**
     * Latch a failure at an explicit byte offset — for block decoders
     * that consume a whole record section at once and learn the
     * offending record's position only afterwards.
     */
    bool
    failAt(std::uint64_t offset, std::string reason)
    {
        if (!failed_) {
            failed_ = true;
            error_ = {file_, offset, std::move(reason)};
        }
        return false;
    }

    /**
     * Hand out a zero-copy view of the next @p n bytes and advance
     * past them — the entry point for bulk (whole-section) decoders.
     */
    bool
    view(std::span<const std::byte> &out, std::size_t n,
         const char *what)
    {
        if (!need(n, what))
            return false;
        out = bytes_.subspan(pos_, n);
        pos_ += n;
        return true;
    }

    bool
    u32(std::uint32_t &v, const char *what)
    {
        if (!need(sizeof(v), what))
            return false;
        std::memcpy(&v, bytes_.data() + pos_, sizeof(v));
        pos_ += sizeof(v);
        return true;
    }

    bool
    i64(std::int64_t &v, const char *what)
    {
        if (!need(sizeof(v), what))
            return false;
        std::memcpy(&v, bytes_.data() + pos_, sizeof(v));
        pos_ += sizeof(v);
        return true;
    }

    /** Length-prefixed string as a zero-copy view into the buffer. */
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
        sv = std::string_view(
            reinterpret_cast<const char *>(bytes_.data() + pos_), len);
        pos_ += len;
        return true;
    }

    /** Skip a length-prefixed string without materializing a view. */
    bool
    skipString(const char *what)
    {
        std::string_view sv;
        return stringView(sv, what);
    }

    /** Skip @p n raw bytes (record blobs the caller decodes later). */
    bool
    skip(std::size_t n, const char *what)
    {
        if (!need(n, what))
            return false;
        pos_ += n;
        return true;
    }

    /**
     * Read a record/element count and reject counts that could not
     * possibly fit in the rest of the buffer (each element occupies at
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
    bool
    need(std::size_t n, const char *what)
    {
        if (failed_)
            return false;
        if (remaining() < n) {
            return fail(
                detail::concat("truncated corpus file (", what, ")"));
        }
        return true;
    }

    std::span<const std::byte> bytes_;
    std::string file_;
    std::uint64_t pos_ = 0;
    bool failed_ = false;
    SourceError error_;
};

} // namespace tlc
} // namespace tracelens

#endif // TRACELENS_TRACE_TLCFORMAT_H
