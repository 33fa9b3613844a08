/**
 * @file
 * Small statistics helpers: running accumulator, fixed-bucket histogram,
 * and exact percentile over retained samples.
 */

#ifndef TRACELENS_UTIL_STATS_H
#define TRACELENS_UTIL_STATS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tracelens
{

/**
 * Streaming accumulator tracking count, sum, min, max, mean, and
 * variance (Welford's algorithm).
 */
class Accumulator
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const Accumulator &other);

    std::size_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const;
    double max() const;
    double mean() const;

    /** Population variance; 0 for fewer than two samples. */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

  private:
    std::size_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/**
 * Sample set with exact quantiles. Retains all samples; intended for
 * analysis-sized data (instance durations, pattern costs), not raw events.
 */
class SampleSet
{
  public:
    void add(double x);
    std::size_t count() const { return samples_.size(); }
    double sum() const;
    double mean() const;

    /** Exact quantile for q in [0, 1] by nearest-rank; 0 when empty. */
    double quantile(double q) const;

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/**
 * Histogram over log-spaced duration buckets, for textual distribution
 * summaries of event costs.
 */
class LogHistogram
{
  public:
    /**
     * Bucket i covers [base * 2^i, base * 2^(i+1)); values below base
     * land in bucket 0.
     *
     * @param base Lower edge of the first bucket (must be > 0).
     * @param num_buckets Number of buckets; overflow clamps to the last.
     */
    LogHistogram(double base, std::size_t num_buckets);

    void add(double x);
    std::uint64_t bucketValue(std::size_t i) const;
    std::uint64_t total() const { return total_; }

    /** Render as one line per non-empty bucket. */
    std::string render() const;

  private:
    double base_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace tracelens

#endif // TRACELENS_UTIL_STATS_H
