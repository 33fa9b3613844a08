/**
 * @file
 * Expected<T>: the result type of the fallible load/validate path.
 *
 * Loading real-world trace files must not be fatal — at fleet scale a
 * corrupt shard is a statistic, not an emergency stop. Every parser in
 * the ingestion layer therefore returns Expected<T>: either the value,
 * or a SourceError pinpointing the file, byte offset, and reason. The
 * legacy fatal entry points (readCorpusFile and friends) keep their
 * contract by rendering the error into TL_FATAL at the outermost
 * layer only.
 */

#ifndef TRACELENS_UTIL_EXPECTED_H
#define TRACELENS_UTIL_EXPECTED_H

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

#include "src/util/logging.h"

namespace tracelens
{

/** Where and why a trace file could not be ingested. */
struct SourceError
{
    /** Path of the offending file ("<memory>" for in-memory buffers). */
    std::string file;
    /** Byte offset at which decoding failed. */
    std::uint64_t offset = 0;
    /** Human-readable cause. */
    std::string reason;

    /** Uniform one-line rendering: "file @ byte N: reason". */
    std::string
    render() const
    {
        return file + " @ byte " + std::to_string(offset) + ": " +
               reason;
    }
};

/**
 * A value or the SourceError explaining its absence. Deliberately
 * minimal (the std::expected subset the ingestion layer needs);
 * accessing the wrong alternative is a panic, not UB.
 */
template <typename T> class Expected
{
  public:
    Expected(T value) : state_(std::move(value)) {}
    Expected(SourceError error) : state_(std::move(error)) {}

    bool ok() const { return std::holds_alternative<T>(state_); }
    explicit operator bool() const { return ok(); }

    T &
    value()
    {
        TL_ASSERT(ok(), "Expected::value() on error: ",
                  std::get<SourceError>(state_).render());
        return std::get<T>(state_);
    }

    const T &
    value() const
    {
        TL_ASSERT(ok(), "Expected::value() on error: ",
                  std::get<SourceError>(state_).render());
        return std::get<T>(state_);
    }

    const SourceError &
    error() const
    {
        TL_ASSERT(!ok(), "Expected::error() on value");
        return std::get<SourceError>(state_);
    }

  private:
    std::variant<T, SourceError> state_;
};

} // namespace tracelens

#endif // TRACELENS_UTIL_EXPECTED_H
