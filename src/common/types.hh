/**
 * @file
 * Fundamental types and unit helpers shared by every dapsim subsystem.
 *
 * Simulated time is counted in integer picosecond ticks. The CPU clock
 * domain runs at 4 GHz (250 ps per cycle) throughout the paper's
 * evaluation; DRAM domains derive integer periods from their frequency
 * with at most 0.04% rounding error.
 */

#ifndef DAPSIM_COMMON_TYPES_HH
#define DAPSIM_COMMON_TYPES_HH

#include <cstdint>

namespace dapsim
{

/** Physical byte address. */
using Addr = std::uint64_t;

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** Count of clock cycles in some clock domain. */
using Cycle = std::uint64_t;

/** Transfer unit between the SRAM hierarchy and the bandwidth sources. */
constexpr std::uint32_t kBlockBytes = 64;
constexpr std::uint32_t kBlockShift = 6;

/** CPU clock: 4 GHz as in the paper's Skylake-class cores. */
constexpr Tick kCpuPeriodPs = 250;

constexpr Tick kPsPerSecond = 1'000'000'000'000ULL;

/** Convert a frequency in MHz to an integer period in picoseconds. */
constexpr Tick
periodPsFromMHz(std::uint64_t mhz)
{
    return (1'000'000ULL + mhz / 2) / mhz;
}

/** Convert CPU cycles to ticks. */
constexpr Tick
cpuCyclesToTicks(Cycle c)
{
    return c * kCpuPeriodPs;
}

/** Block number of an address. */
constexpr Addr
blockNumber(Addr a)
{
    return a >> kBlockShift;
}

/**
 * Multiplicative index hash used by the cache directories so that
 * base-aligned per-core address slices spread over all sets.
 */
constexpr std::uint64_t
indexHash(std::uint64_t x)
{
    x *= 0x9e3779b97f4a7c15ULL;
    return x >> 21;
}

/**
 * One functional warm-up access: a request's address and direction,
 * without the instruction gap the timed path needs. Generators draw
 * these in chunks, the L3 emits them as its stream to the MS$, and
 * the MS$ applies them (see DESIGN.md §15).
 */
struct WarmAccess
{
    Addr addr = 0;
    bool isWrite = false;
};

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * kKiB;
constexpr std::uint64_t kGiB = 1024 * kMiB;

/** True iff @p v is a power of two (and non-zero). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Floor of log2 for a non-zero value. */
constexpr std::uint32_t
floorLog2(std::uint64_t v)
{
    std::uint32_t l = 0;
    while (v >>= 1)
        ++l;
    return l;
}

/**
 * Division/modulo by a run-time-constant divisor, reduced to shifts
 * and masks when the divisor is a power of two (which every production
 * geometry is: channel counts, banks, blocks per row, sector sizes).
 * Hot address-decode paths run one of these per access; a hardware
 * 64-bit divide costs ~20-40 cycles that a shift does not.
 */
struct FastDiv
{
    std::uint64_t d = 1;     ///< divisor
    std::uint64_t mask = 0;  ///< d - 1 when d is a power of two
    std::uint32_t shift = 0; ///< log2(d) when d is a power of two
    bool pow2 = false;

    static constexpr FastDiv
    of(std::uint64_t divisor)
    {
        FastDiv f;
        f.d = divisor;
        f.pow2 = isPowerOfTwo(divisor);
        if (f.pow2) {
            f.mask = divisor - 1;
            f.shift = floorLog2(divisor);
        }
        return f;
    }

    constexpr std::uint64_t
    div(std::uint64_t x) const
    {
        return pow2 ? x >> shift : x / d;
    }

    constexpr std::uint64_t
    mod(std::uint64_t x) const
    {
        return pow2 ? (x & mask) : x % d;
    }
};

} // namespace dapsim

#endif // DAPSIM_COMMON_TYPES_HH
