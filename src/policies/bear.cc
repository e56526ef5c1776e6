#include "policies/bear.hh"

namespace dapsim
{

BearPolicy::BearPolicy(const BearConfig &cfg)
    : cfg_(cfg), reuse_(cfg.reuseTableEntries, 2), rng_(cfg.rngSeed)
{
}

std::size_t
BearPolicy::indexOf(Addr addr) const
{
    const std::uint64_t region = addr >> cfg_.regionShift;
    return static_cast<std::size_t>(
        (region * 0x9e3779b97f4a7c15ULL) >> 32) % reuse_.size();
}

void
BearPolicy::noteReadOutcome(Addr addr, bool hit)
{
    std::uint8_t &c = reuse_[indexOf(addr)];
    if (hit) {
        if (c < 3)
            ++c;
    } else if (c > 0) {
        --c;
    }
}

bool
BearPolicy::shouldBypassFillForReuse(Addr addr)
{
    if (reuse_[indexOf(addr)] >= 2)
        return false; // region shows reuse: keep filling
    if (!rng_.chance(cfg_.bypassProbability))
        return false;
    bypasses.inc();
    return true;
}

void
BearPolicy::save(ckpt::Serializer &s) const
{
    s.bytes(reuse_.data(), reuse_.size());
    rng_.save(s);
    s.u64(bypasses.value());
}

void
BearPolicy::restore(ckpt::Deserializer &d)
{
    const std::vector<std::uint8_t> reuse = d.bytes();
    if (reuse.size() != reuse_.size())
        throw ckpt::CkptError("ckpt: BEAR reuse table size mismatch");
    reuse_ = reuse;
    rng_.restore(d);
    bypasses.set(d.u64());
}

} // namespace dapsim
