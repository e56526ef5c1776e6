/**
 * @file
 * Lightweight statistics package.
 *
 * Components own their counters and averages. The package is
 * intentionally simple: scalar counters and averages cover everything
 * the paper's evaluation reports.
 */

#ifndef DAPSIM_COMMON_STATS_HH
#define DAPSIM_COMMON_STATS_HH

#include <cstdint>

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

} // namespace dapsim

#endif // DAPSIM_COMMON_STATS_HH
