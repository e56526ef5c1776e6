/**
 * @file
 * Deterministic xorshift128+ random number generator.
 *
 * Every stochastic component in dapsim (workload generators, samplers,
 * predictor tables) draws from its own seeded Rng instance so that whole
 * simulations are reproducible regardless of event interleaving.
 */

#ifndef DAPSIM_COMMON_RNG_HH
#define DAPSIM_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

#include "ckpt/serializer.hh"

namespace dapsim
{

/** xorshift128+ PRNG; fast, decent quality, fully deterministic. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        // SplitMix64 seeding so nearby seeds give unrelated streams.
        auto next = [&seed]() {
            seed += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            return z ^ (z >> 31);
        };
        s0_ = next();
        s1_ = next();
        if (s0_ == 0 && s1_ == 0)
            s1_ = 1;
    }

    /** Uniform 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = s0_;
        const std::uint64_t y = s1_;
        s0_ = y;
        x ^= x << 23;
        s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
        return s1_ + y;
    }

    /** Uniform value in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli draw with probability @p p. */
    bool
    chance(double p)
    {
        return real() < p;
    }

    /**
     * Geometric gap with mean @p mean (>= 1), capped at @p cap.
     * Used for instruction gaps between memory accesses.
     *
     * The denominator log(1 - 1/mean) depends only on @p mean, which
     * is constant per generator (or per drift phase), so the last
     * value is memoized — callers alternating between a handful of
     * means still pay one std::log per draw instead of two. The
     * memo holds the identical double the inline expression produced,
     * so draws are bit-for-bit unchanged.
     */
    std::uint64_t
    gap(double mean, std::uint64_t cap)
    {
        if (mean <= 1.0)
            return 1;
        if (mean != gapMean_) {
            gapMean_ = mean;
            gapLogDenom_ = std::log(1.0 - 1.0 / mean);
        }
        double u = real();
        if (u > 0.999999)
            u = 0.999999;
        const double res = 1.0 + std::log(1.0 - u) / gapLogDenom_;
        const auto r = static_cast<std::uint64_t>(res < 1.0 ? 1.0 : res);
        return r > cap ? cap : r;
    }

    /**
     * Advance the engine exactly as gap(@p mean, cap) would, without
     * computing the gap: one draw when @p mean > 1, none otherwise.
     * Functional warm-up discards instruction gaps, so it skips the
     * logarithm per record while keeping the stream in lockstep.
     */
    void
    skipGap(double mean)
    {
        if (mean <= 1.0)
            return;
        next();
    }

    /** Checkpoint the engine state: two u64s. */
    void
    save(ckpt::Serializer &s) const
    {
        s.u64(s0_);
        s.u64(s1_);
    }

    /** Restore what save() wrote. Refuses the all-zero state: a
     *  seeded Rng never reaches it, and from it every draw is 0. */
    void
    restore(ckpt::Deserializer &d)
    {
        const std::uint64_t s0 = d.u64();
        const std::uint64_t s1 = d.u64();
        if (s0 == 0 && s1 == 0)
            throw ckpt::CkptError(
                "ckpt: all-zero RNG state (every draw would be 0)");
        s0_ = s0;
        s1_ = s1;
    }

  private:
    std::uint64_t s0_;
    std::uint64_t s1_;
    /** gap() memo; derived from the mean argument, so deliberately
     *  not saved — a cold memo after restore recomputes the identical
     *  value. */
    double gapMean_ = 0.0;
    double gapLogDenom_ = 0.0;
};

} // namespace dapsim

#endif // DAPSIM_COMMON_RNG_HH
