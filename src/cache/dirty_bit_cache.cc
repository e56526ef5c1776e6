#include "cache/dirty_bit_cache.hh"

namespace dapsim
{

DirtyBitCache::DirtyBitCache(const DirtyBitCacheConfig &cfg)
    : cfg_(cfg),
      dir_(cfg.entries / cfg.ways ? cfg.entries / cfg.ways : 1, cfg.ways,
           ReplPolicy::LRU),
      entryDiv_(FastDiv::of(cfg.setsPerEntry)),
      setDiv_(FastDiv::of(dir_.numSets()))
{
}

std::uint64_t
DirtyBitCache::groupOf(std::uint64_t alloy_set) const
{
    return entryDiv_.div(alloy_set);
}

std::uint64_t
DirtyBitCache::bitOf(std::uint64_t alloy_set) const
{
    return 1ULL << entryDiv_.mod(alloy_set);
}

std::uint64_t
DirtyBitCache::setIndex(std::uint64_t group) const
{
    return dir_.mapSet(group);
}

std::uint64_t
DirtyBitCache::tagOf(std::uint64_t group) const
{
    return setDiv_.div(group);
}

DirtyBitCache::Probe
DirtyBitCache::probe(std::uint64_t alloy_set)
{
    const std::uint64_t g = groupOf(alloy_set);
    const std::uint64_t bit = bitOf(alloy_set);
    const std::uint64_t s = setIndex(g);
    const std::uint64_t t = tagOf(g);
    Probe p;
    std::uint32_t w = dir_.lookup(s, t);
    if (w != dir_.kNoWay) {
        dir_.touchWay(s, w);
        hits.inc();
        // Unknown bits are conservatively dirty: IFRM must not bypass a
        // read hit to a line that could be dirty in the Alloy cache.
        const Entry &e = dir_.valueAt(s, w);
        p.hit = (e.knownBits & bit) != 0;
        p.dirty = (e.dirtyBits & bit) != 0;
        return p;
    }
    misses.inc();
    dir_.insertAbsent(s, t, Entry{}, w);
    return p; // miss: caller must treat the set as possibly dirty
}

void
DirtyBitCache::update(std::uint64_t alloy_set, bool dirty)
{
    const std::uint64_t g = groupOf(alloy_set);
    const std::uint64_t bit = bitOf(alloy_set);
    Entry *e = dir_.find(setIndex(g), tagOf(g));
    if (e == nullptr)
        return;
    e->knownBits |= bit;
    if (dirty)
        e->dirtyBits |= bit;
    else
        e->dirtyBits &= ~bit;
}

void
DirtyBitCache::save(ckpt::Serializer &s) const
{
    dir_.save(s, [](ckpt::Serializer &out, const Entry &e) {
        out.u64(e.dirtyBits);
        out.u64(e.knownBits);
    });
    s.u64(hits.value());
    s.u64(misses.value());
}

void
DirtyBitCache::restore(ckpt::Deserializer &d)
{
    dir_.restore(d, [](ckpt::Deserializer &in, Entry &e) {
        e.dirtyBits = in.u64();
        e.knownBits = in.u64();
    });
    hits.set(d.u64());
    misses.set(d.u64());
}

} // namespace dapsim
