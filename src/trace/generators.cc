#include "trace/generators.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/validate.hh"

namespace dapsim
{

void
SyntheticParams::validate() const
{
    if (footprintBytes < kBlockBytes)
        fatal("SyntheticParams: footprintBytes must be at least " +
              std::to_string(kBlockBytes) + ", got " +
              std::to_string(footprintBytes));
    checkUnitInterval("SyntheticParams: hotFraction", hotFraction);
    checkUnitInterval("SyntheticParams: hotProbability", hotProbability);
    checkUnitInterval("SyntheticParams: streamFraction", streamFraction);
    checkUnitInterval("SyntheticParams: writeFraction", writeFraction);
    checkAtLeast("SyntheticParams: runLength", runLength, 1.0);
    checkMpki("SyntheticParams: mpki", mpki);
}

SyntheticGenerator::SyntheticGenerator(const SyntheticParams &p)
    : p_(p), rng_(p.seed), streamPtr_(0)
{
    p_.validate();
    blocks_ = p_.footprintBytes / kBlockBytes;
    hotBlocks_ = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(blocks_) * p_.hotFraction));
    meanGap_ = std::max(1.0, 1000.0 / p_.mpki);
    meanRun_ = std::max(1.0, p_.runLength);
}

Addr
SyntheticGenerator::pickRandomBlock()
{
    if (rng_.chance(p_.hotProbability))
        return rng_.below(hotBlocks_);
    return rng_.below(blocks_);
}

template <bool kGap>
WarmAccess
SyntheticGenerator::draw(std::uint64_t &gap)
{
    Addr block;
    if (rng_.chance(p_.streamFraction)) {
        // Sequential streaming pointer, wrapping over the footprint.
        // Both pointers stay < blocks_, so the wrap is a compare
        // instead of a divide.
        block = streamPtr_;
        streamPtr_ = streamPtr_ + 1 == blocks_ ? 0 : streamPtr_ + 1;
    } else {
        // Random run: continue the current spatial run or start a new
        // one at a random (hot-biased) location.
        if (runLeft_ == 0) {
            runPtr_ = pickRandomBlock();
            runLeft_ =
                static_cast<std::uint32_t>(rng_.gap(meanRun_, 64));
        }
        block = runPtr_;
        runPtr_ = runPtr_ + 1 == blocks_ ? 0 : runPtr_ + 1;
        --runLeft_;
    }

    WarmAccess a;
    a.addr = p_.base + block * kBlockBytes;
    a.isWrite = rng_.chance(p_.writeFraction);
    if constexpr (kGap)
        gap = rng_.gap(meanGap_, 1'000'000);
    else
        rng_.skipGap(meanGap_);
    return a;
}

// DrawnGenerator's next() and drawWarm() link against these.
template WarmAccess SyntheticGenerator::draw<true>(std::uint64_t &);
template WarmAccess SyntheticGenerator::draw<false>(std::uint64_t &);

void
SyntheticGenerator::save(ckpt::Serializer &s) const
{
    rng_.save(s);
    s.u64(streamPtr_);
    s.u64(runPtr_);
    s.u32(runLeft_);
}

void
SyntheticGenerator::restore(ckpt::Deserializer &d)
{
    rng_.restore(d);
    streamPtr_ = d.cursor(blocks_, "stream pointer");
    runPtr_ = d.cursor(blocks_, "run pointer");
    runLeft_ = d.u32();
}

} // namespace dapsim
