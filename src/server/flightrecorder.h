/**
 * @file
 * Per-request flight recorder: a bounded ring of the most recently
 * completed requests, kept always-on so "what just happened?" has an
 * answer without re-running anything — the black-box counterpart to
 * the aggregate metrics registry. The server records one entry as
 * each queued request finishes; the `flight_recorder`
 * control method dumps the ring, and requests slower than
 * `--slow-request-ms` are additionally logged at warn level.
 *
 * The ring is deliberately tiny (a few hundred fixed-size-ish
 * records) and takes one uncontended mutex per completed request —
 * negligible next to the request itself, so it stays inside the
 * telemetry layer's <3% overhead contract (BENCH_obs.json).
 */

#ifndef TRACELENS_SERVER_FLIGHTRECORDER_H
#define TRACELENS_SERVER_FLIGHTRECORDER_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace tracelens
{
namespace server
{

/** One completed request, as the flight recorder remembers it. */
struct FlightRecord
{
    std::string method;
    /** Corpus path the request touched ("" for control methods). */
    std::string session;
    /** Wall-clock completion time (unix microseconds). */
    std::uint64_t completedUnixUs = 0;
    /** Queue wait (arrival -> a worker picked it up). */
    std::uint64_t queueWaitUs = 0;
    /** Total latency (arrival -> response rendered). */
    std::uint64_t totalUs = 0;
    /** Deadline slack at completion, ms; negative = missed. Only
     *  meaningful when hasDeadline. */
    std::int64_t deadlineSlackMs = 0;
    bool hasDeadline = false;
    /** "ok" or the error code name ("deadline_exceeded", ...). */
    std::string outcome = "ok";
    /** Rendered response body bytes (pre-framing). */
    std::uint64_t responseBytes = 0;
    /** Worker sub-requests a coordinator gather fanned out to. */
    std::uint64_t fanout = 0;
    /** Distributed trace id (0 = request carried no context). */
    std::uint64_t traceId = 0;
    std::uint32_t protocol = 2; //!< Transport revision (always 2).
    std::uint8_t priority = 1;
};

/** Bounded ring of FlightRecords; all operations thread-safe. */
class FlightRecorder
{
  public:
    explicit FlightRecorder(std::size_t capacity = 256)
        : capacity_(capacity == 0 ? 1 : capacity)
    {
    }

    void
    record(FlightRecord record)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (ring_.size() < capacity_) {
            ring_.push_back(std::move(record));
        } else {
            ring_[next_] = std::move(record);
        }
        next_ = (next_ + 1) % capacity_;
        ++total_;
    }

    /** The retained records, oldest first. */
    std::vector<FlightRecord>
    snapshot() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<FlightRecord> out;
        out.reserve(ring_.size());
        if (ring_.size() < capacity_) {
            out = ring_;
        } else {
            out.insert(out.end(), ring_.begin() + next_, ring_.end());
            out.insert(out.end(), ring_.begin(), ring_.begin() + next_);
        }
        return out;
    }

    /** Requests recorded over the recorder's lifetime (not capped). */
    std::uint64_t
    total() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return total_;
    }

    std::size_t
    capacity() const
    {
        return capacity_;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<FlightRecord> ring_;
    std::size_t capacity_;
    std::size_t next_ = 0;
    std::uint64_t total_ = 0;
};

} // namespace server
} // namespace tracelens

#endif // TRACELENS_SERVER_FLIGHTRECORDER_H
