/**
 * @file
 * SRAM tag cache for DRAM-resident memory-side cache metadata.
 *
 * The sectored DRAM cache keeps sector metadata in the DRAM array; a
 * small set-associative SRAM tag cache (paper Section VI-A.1, 32K
 * entries, 4-way, one borrowed L3 way, 5-cycle lookup) filters the
 * metadata read/update CAS traffic. An entry caches the metadata of one
 * DRAM-cache *set* (all ways' tags), so a hit answers hit/miss/way/state
 * queries without touching DRAM.
 */

#ifndef DAPSIM_CACHE_TAG_CACHE_HH
#define DAPSIM_CACHE_TAG_CACHE_HH

#include <cstdint>

#include "cache/assoc_cache.hh"
#include "common/stats.hh"

namespace dapsim
{

/** Tag-cache configuration. */
struct TagCacheConfig
{
    std::uint64_t entries = 4096; ///< scaled from the paper's 32K
    std::uint32_t ways = 4;
    std::uint32_t lookupCycles = 5; ///< CPU cycles beyond L3 lookup
    bool enabled = true;
};

/**
 * Tracks which MS$ sets' metadata is cached on die.
 *
 * The payload is a dirty flag: metadata mutated while cached must be
 * written back to the DRAM array when the entry is evicted.
 */
class TagCache
{
  public:
    explicit TagCache(const TagCacheConfig &cfg);

    /** Result of a lookup for MS$ set @p msSet. */
    struct LookupResult
    {
        bool hit = false;
        /** An eviction of dirty cached metadata requires a DRAM write. */
        bool writebackNeeded = false;
    };

    /**
     * Look up metadata for an MS$ set; on miss the entry is allocated
     * (the caller is responsible for charging the metadata-fetch CAS).
     */
    LookupResult access(std::uint64_t ms_set);

    /** Record that cached metadata for @p ms_set was mutated. */
    void markDirty(std::uint64_t ms_set);

    /** Probe without allocating or touching recency. */
    bool contains(std::uint64_t ms_set) const;

    /** Checkpoint directory + statistics (see src/ckpt/). */
    void save(ckpt::Serializer &s) const;
    void restore(ckpt::Deserializer &d);

    const TagCacheConfig &config() const { return cfg_; }

    double
    missRatio() const
    {
        const auto total = hits.value() + misses.value();
        return total ? static_cast<double>(misses.value()) / total : 0.0;
    }

    Counter hits;
    Counter misses;
    Counter writebacks;

  private:
    struct Entry
    {
        bool dirty = false;
    };

    std::uint64_t setIndex(std::uint64_t ms_set) const;
    std::uint64_t tagOf(std::uint64_t ms_set) const;

    TagCacheConfig cfg_;
    AssocCache<Entry> dir_;
    /** Tag split by the set count (see tagOf). */
    FastDiv setDiv_;
};

} // namespace dapsim

#endif // DAPSIM_CACHE_TAG_CACHE_HH
