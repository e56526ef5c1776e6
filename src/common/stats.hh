/**
 * @file
 * Lightweight statistics package.
 *
 * Components own their counters, averages and histograms. The package
 * is intentionally simple: scalar counters, averages, and fixed-bucket
 * histograms cover everything the paper's evaluation reports.
 */

#ifndef DAPSIM_COMMON_STATS_HH
#define DAPSIM_COMMON_STATS_HH

#include <cstdint>
#include <vector>

namespace dapsim
{

/** Monotonic scalar counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    void set(std::uint64_t v) { value_ = v; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Running average of submitted samples. */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
    }

    /** Overwrite the accumulator (checkpoint restore). */
    void
    restoreState(double sum, std::uint64_t count)
    {
        sum_ = sum;
        count_ = count;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/** Histogram with uniform buckets over [0, max); overflow in last bucket. */
class Histogram
{
  public:
    Histogram(double max = 1.0, std::size_t buckets = 16)
        : max_(max), buckets_(buckets, 0)
    {
    }

    void
    sample(double v)
    {
        std::size_t i =
            v >= max_ ? buckets_.size() - 1
                      : static_cast<std::size_t>(v / max_ * buckets_.size());
        if (i >= buckets_.size())
            i = buckets_.size() - 1;
        ++buckets_[i];
        ++count_;
        sum_ += v;
    }

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

  private:
    double max_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

} // namespace dapsim

#endif // DAPSIM_COMMON_STATS_HH
