/**
 * @file
 * Structural validation of trace corpora.
 *
 * Real-world traces are noisy: truncated waits, unwaits with no matching
 * waiter, instances that overrun the stream. The validator quantifies
 * such defects so analyses (and tests) can assert corpus health.
 */

#ifndef TRACELENS_TRACE_VALIDATE_H
#define TRACELENS_TRACE_VALIDATE_H

#include <cstddef>
#include <string>
#include <vector>

#include "src/trace/stream.h"

namespace tracelens
{

class TraceSource;

/** Counters produced by validateCorpus(). */
struct ValidationReport
{
    std::size_t streams = 0;
    std::size_t events = 0;
    std::size_t instances = 0;

    /** Wait events with no later unwait targeting the same thread. */
    std::size_t unpairedWaits = 0;
    /** Unwait events whose target thread was not waiting at the time. */
    std::size_t strayUnwaits = 0;
    /** Events with a missing callstack. */
    std::size_t stacklessEvents = 0;
    /** Instances whose window exceeds the stream's recorded span. */
    std::size_t overrunInstances = 0;
    /** Unwait events that target the emitting thread itself. */
    std::size_t selfUnwaits = 0;

    /** Shard files that could not be ingested at all. */
    std::size_t skippedShards = 0;
    /** Rendered SourceError per skipped shard (file, offset, reason),
     *  so load failures surface in the same report as structural
     *  defects instead of via ad-hoc exception text. */
    std::vector<std::string> loadErrors;

    /** True when no defects were found. */
    bool clean() const;

    /** One-line-per-counter rendering (plus any load errors). */
    std::string render() const;
};

/** Validate every stream and instance of @p corpus. */
ValidationReport validateCorpus(const TraceCorpus &corpus);

/**
 * Validate a whole source shard by shard. Streams each shard through
 * TraceSource::shard(), so memory stays bounded by the largest shard
 * instead of the corpus size, and folds corrupt-shard errors into the
 * report's loadErrors.
 */
ValidationReport validateSource(TraceSource &source);

} // namespace tracelens

#endif // TRACELENS_TRACE_VALIDATE_H
