/**
 * @file
 * Content hashing for cache keys and hash-table functors.
 *
 * Two primitives live here:
 *
 *  - splitmix64(): the finalizer of the SplitMix64 generator, used as a
 *    cheap full-avalanche integer mixer. Unlike ad-hoc shift-and-xor
 *    folds it mixes every input bit into every output bit, and it is
 *    written entirely in std::uint64_t so it behaves identically on
 *    32-bit size_t targets (no undefined shifts).
 *
 *  - Digest: a streaming 128-bit content hash (two independently
 *    seeded FNV-1a lanes plus splitmix absorption for integers). The
 *    analysis service's response-cache keys, digests of (method,
 *    params), are Digests. Not cryptographic — collision resistance is
 *    "good enough for cache keys", nothing more.
 *
 * Digests are deterministic across runs, processes, and platforms
 * (fixed seeds, fixed byte order of absorbed integers).
 */

#ifndef TRACELENS_UTIL_HASH_H
#define TRACELENS_UTIL_HASH_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tracelens
{

/** SplitMix64 finalizer: a full-avalanche 64-bit mixer. */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Streaming 128-bit content digest. Absorb bytes, integers, strings,
 * or other digests in any sequence; equal absorption sequences yield
 * equal digests. Chunk boundaries do not matter for byte absorption
 * (mixBytes(a) then mixBytes(b) == mixBytes(a+b)).
 */
class Digest
{
  public:
    constexpr Digest() = default;

    /** Absorb raw bytes (streaming FNV-1a on both lanes). */
    Digest &
    mixBytes(const void *data, std::size_t size)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            lo_ = (lo_ ^ bytes[i]) * kFnvPrime;
            hi_ = (hi_ ^ bytes[i]) * kFnvPrime;
        }
        return *this;
    }

    /** Absorb one integer (fixed little-endian-independent mixing). */
    constexpr Digest &
    mix(std::uint64_t value)
    {
        lo_ = splitmix64(lo_ ^ value);
        hi_ = splitmix64(hi_ + (value ^ 0x9e3779b97f4a7c15ULL));
        return *this;
    }

    /** Absorb a string's bytes plus its length. */
    Digest &
    mix(std::string_view text)
    {
        mixBytes(text.data(), text.size());
        return mix(static_cast<std::uint64_t>(text.size()));
    }

    /** Absorb another digest. */
    constexpr Digest &
    mix(const Digest &other)
    {
        return mix(other.hi_).mix(other.lo_);
    }

    constexpr std::uint64_t hi() const { return hi_; }
    constexpr std::uint64_t lo() const { return lo_; }

    friend constexpr bool
    operator==(const Digest &a, const Digest &b)
    {
        return a.hi_ == b.hi_ && a.lo_ == b.lo_;
    }

  private:
    static constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

    // Two distinct FNV offset bases so the lanes decorrelate.
    std::uint64_t hi_ = 0xcbf29ce484222325ULL;
    std::uint64_t lo_ = 0x84222325cbf29ce4ULL;
};

/** Hash functor for Digest keys in unordered containers. */
struct DigestHash
{
    std::size_t
    operator()(const Digest &d) const
    {
        return static_cast<std::size_t>(splitmix64(d.hi() ^ d.lo()));
    }
};

} // namespace tracelens

#endif // TRACELENS_UTIL_HASH_H
