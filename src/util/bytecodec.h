/**
 * @file
 * Little-endian byte-codec helpers of the partial-result wire encoding
 * (TLP1, src/core/partial.h): appenders over std::string payloads and
 * a bounds-checked reader — one place to keep the hostile-input
 * discipline (every read bounds-checked, counts validated against the
 * remaining buffer before any reserve).
 */

#ifndef TRACELENS_UTIL_BYTECODEC_H
#define TRACELENS_UTIL_BYTECODEC_H

#include <cstdint>
#include <string>

namespace tracelens
{

inline void
putU8(std::string &out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

inline void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

inline void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

inline void
putI64(std::string &out, std::int64_t v)
{
    putU64(out, static_cast<std::uint64_t>(v));
}

/** Bounds-checked little-endian reader over an encoded payload. */
class ByteReader
{
  public:
    explicit ByteReader(const std::string &bytes) : bytes_(bytes) {}

    bool failed() const { return failed_; }
    bool atEnd() const { return pos_ == bytes_.size(); }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return static_cast<std::uint8_t>(bytes_[pos_++]);
    }

    std::uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(bytes_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(bytes_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    /** Read @p n raw bytes into @p out; false (and failed) if short. */
    bool
    bytes(std::string &out, std::size_t n)
    {
        if (!need(n))
            return false;
        out.assign(bytes_, pos_, n);
        pos_ += n;
        return true;
    }

    /**
     * Validate a count of records of at least @p recordBytes each
     * against the remaining buffer, so a hostile count cannot drive a
     * multi-gigabyte reserve before the per-record reads would fail.
     */
    bool
    countFits(std::uint64_t count, std::size_t recordBytes)
    {
        const std::uint64_t remaining = bytes_.size() - pos_;
        if (count > remaining / recordBytes) {
            failed_ = true;
            return false;
        }
        return true;
    }

  private:
    bool
    need(std::size_t n)
    {
        if (failed_ || bytes_.size() - pos_ < n) {
            failed_ = true;
            return false;
        }
        return true;
    }

    const std::string &bytes_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

} // namespace tracelens

#endif // TRACELENS_UTIL_BYTECODEC_H
