#include "workload/generators.hh"

#include <algorithm>

#include "common/log.hh"

namespace dapsim::workload
{

namespace
{

std::uint64_t
footprintBlocks(const KernelParams &p, const char *kind)
{
    if (p.footprintBytes < kBlockBytes)
        fatal(std::string(kind) + ": footprint smaller than one block");
    return p.footprintBytes / kBlockBytes;
}

/** The instruction gap before a record: drawn into @p gap, or only
 *  skipped in the Rng for a warm draw. */
template <bool kGap>
void
instrGap(Rng &rng, double mpki, std::uint64_t &gap)
{
    const double mean = std::max(1.0, 1000.0 / mpki);
    if constexpr (kGap)
        gap = rng.gap(mean, 1'000'000);
    else
        rng.skipGap(mean);
}

} // namespace

std::uint64_t
driftOffset(const DriftConfig &d, std::uint64_t blocks,
            std::uint64_t seed, std::uint64_t n, Rng &rng)
{
    switch (d.mode) {
    case DriftConfig::Mode::None:
        return 0;
    case DriftConfig::Mode::Rotate:
        // One full revolution over the footprint per period.
        return static_cast<std::uint64_t>(
            static_cast<unsigned __int128>(n % d.period) * blocks /
            d.period);
    case DriftConfig::Mode::Jump:
        // Each phase hops to an unrelated pseudorandom placement.
        return mix64(seed ^ (n / d.period) * 0x9e3779b97f4a7c15ULL) %
               blocks;
    case DriftConfig::Mode::Migrate: {
        // Within a phase, accesses migrate probabilistically from the
        // current placement to the next: at fraction f through the
        // phase, a share f of the traffic has already moved.
        const std::uint64_t k = n / d.period;
        const double frac =
            static_cast<double>(n % d.period) / static_cast<double>(d.period);
        const std::uint64_t from =
            mix64(seed ^ k * 0x9e3779b97f4a7c15ULL) % blocks;
        const std::uint64_t to =
            mix64(seed ^ (k + 1) * 0x9e3779b97f4a7c15ULL) % blocks;
        return rng.chance(frac) ? to : from;
    }
    }
    return 0;
}

// ---- ZipfGenerator -------------------------------------------------

ZipfGenerator::ZipfGenerator(const Params &p)
    : p_(p), blocks_(footprintBlocks(p, "zipf")),
      zipf_(blocks_, p.skew),
      perm_(zipf_.ranks(), mix64(p.seed ^ 0x5851f42d4c957f2dULL)),
      rng_(p.seed)
{
    span_ = blocks_ / zipf_.ranks();
    rem_ = blocks_ % zipf_.ranks();
}

std::uint64_t
ZipfGenerator::pickBlock()
{
    // Rank -> permuted slot -> contiguous block span. When the CDF
    // table covers every block (the common case) each slot is exactly
    // one block; larger footprints give each rank a small span with a
    // uniform pick inside it.
    const std::uint64_t slot = perm_.apply(zipf_.sample(rng_));
    const std::uint64_t start = slot * span_ + std::min(slot, rem_);
    const std::uint64_t size = span_ + (slot < rem_ ? 1 : 0);
    return start + (size > 1 ? rng_.below(size) : 0);
}

template <bool kGap>
WarmAccess
ZipfGenerator::draw(std::uint64_t &gap)
{
    WarmAccess out;
    if (runLeft_ == 0) {
        const std::uint64_t off =
            driftOffset(p_.drift, blocks_, p_.seed, accesses_, rng_);
        runPtr_ = (pickBlock() + off) % blocks_;
        const double mean = std::max(1.0, p_.runLength);
        runLeft_ = static_cast<std::uint32_t>(rng_.gap(mean, 64));
    }
    const std::uint64_t block = runPtr_;
    runPtr_ = (runPtr_ + 1) % blocks_;
    --runLeft_;
    ++accesses_;

    out.addr = p_.base + block * kBlockBytes;
    out.isWrite = rng_.chance(p_.writeFraction);
    instrGap<kGap>(rng_, p_.mpki, gap);
    return out;
}

void
ZipfGenerator::save(ckpt::Serializer &s) const
{
    rng_.save(s);
    s.u64(accesses_);
    s.u64(runPtr_);
    s.u32(runLeft_);
}

void
ZipfGenerator::restore(ckpt::Deserializer &d)
{
    rng_.restore(d);
    accesses_ = d.u64();
    runPtr_ = d.cursor(blocks_, "run pointer");
    runLeft_ = d.u32();
}

// ---- HotspotGenerator ----------------------------------------------

HotspotGenerator::HotspotGenerator(const Params &p)
    : p_(p), blocks_(footprintBlocks(p, "hotspot")), rng_(p.seed)
{
    hotBlocks_ = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(blocks_) * p_.hotFraction));
}

template <bool kGap>
WarmAccess
HotspotGenerator::draw(std::uint64_t &gap)
{
    WarmAccess out;
    if (runLeft_ == 0) {
        // Hot region is [off, off + hotBlocks) — drift moves it.
        const std::uint64_t off =
            driftOffset(p_.drift, blocks_, p_.seed, accesses_, rng_);
        const std::uint64_t pick = rng_.chance(p_.hotProbability)
                                       ? rng_.below(hotBlocks_)
                                       : rng_.below(blocks_);
        runPtr_ = (pick + off) % blocks_;
        const double mean = std::max(1.0, p_.runLength);
        runLeft_ = static_cast<std::uint32_t>(rng_.gap(mean, 64));
    }
    const std::uint64_t block = runPtr_;
    runPtr_ = (runPtr_ + 1) % blocks_;
    --runLeft_;
    ++accesses_;

    out.addr = p_.base + block * kBlockBytes;
    out.isWrite = rng_.chance(p_.writeFraction);
    instrGap<kGap>(rng_, p_.mpki, gap);
    return out;
}

void
HotspotGenerator::save(ckpt::Serializer &s) const
{
    rng_.save(s);
    s.u64(accesses_);
    s.u64(runPtr_);
    s.u32(runLeft_);
}

void
HotspotGenerator::restore(ckpt::Deserializer &d)
{
    rng_.restore(d);
    accesses_ = d.u64();
    runPtr_ = d.cursor(blocks_, "run pointer");
    runLeft_ = d.u32();
}

// ---- ChaseGenerator ------------------------------------------------

ChaseGenerator::ChaseGenerator(const KernelParams &p)
    : p_(p), blocks_(footprintBlocks(p, "chase")),
      perm_(blocks_, mix64(p.seed ^ 0x2545f4914f6cdd1dULL)), rng_(p.seed)
{
}

template <bool kGap>
WarmAccess
ChaseGenerator::draw(std::uint64_t &gap)
{
    WarmAccess out;
    // Full-cycle tour: the counter walks [0, blocks) in order and the
    // permutation scatters it, so every block is visited exactly once
    // per lap with no stride a prefetcher can latch onto.
    out.addr = p_.base + perm_.apply(counter_ % blocks_) * kBlockBytes;
    ++counter_;
    out.isWrite = rng_.chance(p_.writeFraction);
    instrGap<kGap>(rng_, p_.mpki, gap);
    return out;
}

void
ChaseGenerator::save(ckpt::Serializer &s) const
{
    rng_.save(s);
    s.u64(counter_);
}

void
ChaseGenerator::restore(ckpt::Deserializer &d)
{
    rng_.restore(d);
    counter_ = d.u64();
}

// ---- WriteBurstGenerator -------------------------------------------

WriteBurstGenerator::WriteBurstGenerator(const Params &p)
    : p_(p), blocks_(footprintBlocks(p, "wburst")), rng_(p.seed)
{
    // Reads per cycle chosen so the long-run write share equals duty.
    const double reads =
        static_cast<double>(p_.burst) * (1.0 - p_.duty) / p_.duty;
    cycleLen_ = p_.burst + static_cast<std::uint64_t>(reads + 0.5);
}

template <bool kGap>
WarmAccess
WriteBurstGenerator::draw(std::uint64_t &gap)
{
    WarmAccess out;
    if (pos_ < p_.burst) {
        // Burst phase: sequential dirty writebacks.
        out.addr = p_.base + writePtr_ * kBlockBytes;
        writePtr_ = (writePtr_ + 1) % blocks_;
        out.isWrite = true;
    } else {
        // Read phase: uniform random reads over the footprint.
        out.addr = p_.base + rng_.below(blocks_) * kBlockBytes;
        out.isWrite = false;
    }
    pos_ = (pos_ + 1) % cycleLen_;
    instrGap<kGap>(rng_, p_.mpki, gap);
    return out;
}

void
WriteBurstGenerator::save(ckpt::Serializer &s) const
{
    rng_.save(s);
    s.u64(pos_);
    s.u64(writePtr_);
}

void
WriteBurstGenerator::restore(ckpt::Deserializer &d)
{
    rng_.restore(d);
    pos_ = d.cursor(cycleLen_, "burst-cycle position");
    writePtr_ = d.cursor(blocks_, "write pointer");
}

// ---- SparseStrideGenerator -----------------------------------------

SparseStrideGenerator::SparseStrideGenerator(const Params &p)
    : p_(p), blocks_(footprintBlocks(p, "sparse")), rng_(p.seed)
{
}

template <bool kGap>
WarmAccess
SparseStrideGenerator::draw(std::uint64_t &gap)
{
    WarmAccess out;
    out.addr = p_.base + ptr_ * kBlockBytes;
    ptr_ = (ptr_ + p_.strideBlocks) % blocks_;
    out.isWrite = rng_.chance(p_.writeFraction);
    instrGap<kGap>(rng_, p_.mpki, gap);
    return out;
}

void
SparseStrideGenerator::save(ckpt::Serializer &s) const
{
    rng_.save(s);
    s.u64(ptr_);
}

void
SparseStrideGenerator::restore(ckpt::Deserializer &d)
{
    rng_.restore(d);
    ptr_ = d.cursor(blocks_, "stride pointer");
}

// DrawnGenerator's next() and drawWarm() link against these.
template WarmAccess ZipfGenerator::draw<true>(std::uint64_t &);
template WarmAccess ZipfGenerator::draw<false>(std::uint64_t &);
template WarmAccess HotspotGenerator::draw<true>(std::uint64_t &);
template WarmAccess HotspotGenerator::draw<false>(std::uint64_t &);
template WarmAccess ChaseGenerator::draw<true>(std::uint64_t &);
template WarmAccess ChaseGenerator::draw<false>(std::uint64_t &);
template WarmAccess WriteBurstGenerator::draw<true>(std::uint64_t &);
template WarmAccess WriteBurstGenerator::draw<false>(std::uint64_t &);
template WarmAccess SparseStrideGenerator::draw<true>(std::uint64_t &);
template WarmAccess SparseStrideGenerator::draw<false>(std::uint64_t &);

} // namespace dapsim::workload
