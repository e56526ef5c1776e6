#include "cache/tag_cache.hh"

namespace dapsim
{

TagCache::TagCache(const TagCacheConfig &cfg)
    : cfg_(cfg),
      dir_(cfg.entries / cfg.ways ? cfg.entries / cfg.ways : 1, cfg.ways,
           ReplPolicy::LRU),
      setDiv_(FastDiv::of(dir_.numSets()))
{
}

std::uint64_t
TagCache::setIndex(std::uint64_t ms_set) const
{
    return dir_.mapSet(ms_set);
}

std::uint64_t
TagCache::tagOf(std::uint64_t ms_set) const
{
    return setDiv_.div(ms_set);
}

TagCache::LookupResult
TagCache::access(std::uint64_t ms_set)
{
    LookupResult res;
    if (!cfg_.enabled) {
        res.hit = false;
        misses.inc();
        return res;
    }
    const std::uint64_t s = setIndex(ms_set);
    const std::uint64_t t = tagOf(ms_set);
    std::uint32_t w = dir_.lookup(s, t);
    if (w != dir_.kNoWay) {
        dir_.touchWay(s, w);
        hits.inc();
        res.hit = true;
        return res;
    }
    misses.inc();
    auto victim = dir_.insertAbsent(s, t, Entry{}, w);
    if (victim.valid && victim.value.dirty) {
        res.writebackNeeded = true;
        writebacks.inc();
    }
    return res;
}

void
TagCache::markDirty(std::uint64_t ms_set)
{
    if (!cfg_.enabled)
        return;
    Entry *e = dir_.find(setIndex(ms_set), tagOf(ms_set));
    if (e != nullptr)
        e->dirty = true;
}

bool
TagCache::contains(std::uint64_t ms_set) const
{
    if (!cfg_.enabled)
        return false;
    return dir_.find(setIndex(ms_set), tagOf(ms_set)) != nullptr;
}

void
TagCache::save(ckpt::Serializer &s) const
{
    dir_.save(s, [](ckpt::Serializer &out, const Entry &e) {
        out.boolean(e.dirty);
    });
    s.u64(hits.value());
    s.u64(misses.value());
    s.u64(writebacks.value());
}

void
TagCache::restore(ckpt::Deserializer &d)
{
    dir_.restore(d, [](ckpt::Deserializer &in, Entry &e) {
        e.dirty = in.boolean();
    });
    hits.set(d.u64());
    misses.set(d.u64());
    writebacks.set(d.u64());
}

} // namespace dapsim
