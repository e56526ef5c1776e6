/**
 * @file
 * Sectored die-stacked DRAM cache (paper Sections II, IV-A, VI-A).
 *
 * A 4-way set-associative cache with 4 KB sectors, NRU replacement,
 * metadata resident in the DRAM array (filtered by an SRAM tag cache),
 * footprint-prefetcher fills, and a single bidirectional set of HBM
 * channels serving reads, writes, fills, evictions and metadata.
 *
 * All of DAP's four techniques apply here: FWB on fills, WB on incoming
 * dirty L3 evictions, IFRM on known-clean read hits, SFRM on reads that
 * miss the tag cache. The controller also provides the hooks used by
 * the SBD and BATMAN comparison policies.
 */

#ifndef DAPSIM_MEMSIDE_SECTORED_DRAM_CACHE_HH
#define DAPSIM_MEMSIDE_SECTORED_DRAM_CACHE_HH

#include <cstdint>

#include "cache/assoc_cache.hh"
#include "cache/sector.hh"
#include "cache/tag_cache.hh"
#include "dram/presets.hh"
#include "memside/footprint_prefetcher.hh"
#include "memside/ms_cache.hh"

namespace dapsim
{

/** Configuration of the sectored DRAM cache. */
struct SectoredDramCacheConfig
{
    /** Scaled default: 64 MB stands in for the paper's 4 GB. */
    std::uint64_t capacityBytes = 64 * kMiB;
    std::uint32_t ways = 4;
    std::uint64_t sectorBytes = 4 * kKiB;

    DramConfig array = presets::hbm_102();
    TagCacheConfig tagCache{};
    FootprintConfig footprint{};

    std::uint64_t numSectors() const { return capacityBytes / sectorBytes; }
    std::uint64_t numSets() const { return numSectors() / ways; }
    std::uint32_t
    blocksPerSector() const
    {
        return static_cast<std::uint32_t>(sectorBytes / kBlockBytes);
    }
};

/** The sectored DRAM cache controller. */
class SectoredDramCache final : public MemSideCache
{
  public:
    SectoredDramCache(EventQueue &eq, DramSystem &main_memory,
                      PartitionPolicy &policy,
                      const SectoredDramCacheConfig &cfg);

    void handleRead(Addr addr, Done done) override;
    void handleWrite(Addr addr) override;
    std::uint64_t arrayCasOps() const override { return array_.casOps(); }

    DramSystem &array() { return array_; }
    TagCache &tagCache() { return tagCache_; }
    const SectoredDramCacheConfig &config() const { return cfg_; }

    /** Peak array bandwidth in accesses per CPU cycle (for DapConfig). */
    double
    arrayPeakAccPerCycle() const
    {
        return cfg_.array.peakAccessesPerCpuCycle();
    }

    /** Write back all dirty blocks of a sector and mark them clean
     *  (SBD forced cleaning). No-op if the sector is absent. */
    void cleanSector(Addr addr_in_sector);

    /** Flush and invalidate every sector of a set (BATMAN disable). */
    void flushSet(std::uint64_t set);

    void cleanRegion(Addr a) override { cleanSector(a); }
    void flushSetImpl(std::uint64_t set) override { flushSet(set); }
    bool warmTouch(Addr addr, bool is_write) override;

    void
    creditFastForward(std::uint64_t reads, std::uint64_t writes) override
    {
        array_.creditFastForward(reads, writes);
    }

    /** Test/diagnostic probe: is this block valid in the cache? */
    bool isBlockResident(Addr addr) const;

    void save(ckpt::Serializer &s) const override;
    void restore(ckpt::Deserializer &d) override;

    Counter steeredToMemory; ///< SBD latency-based steers
    Counter steerOverridden; ///< steers cancelled because block dirty

  private:
    // Address helpers. Sector size and way count are powers of two in
    // every production geometry; the FastDivs make the per-access
    // sector/block split shifts rather than hardware divides.
    std::uint64_t sectorNumber(Addr a) const { return secDiv_.div(a); }
    /** Hashed set index (spreads base-aligned per-core slices). */
    std::uint64_t setOf(std::uint64_t sec) const
    {
        return dir_.mapSet(indexHash(sec));
    }
    /** The full sector number serves as the tag. */
    std::uint64_t tagOf(std::uint64_t sec) const { return sec; }
    std::uint32_t
    blkOf(Addr a) const
    {
        return static_cast<std::uint32_t>(secDiv_.mod(a) / kBlockBytes);
    }
    std::uint64_t
    sectorNumberFrom(std::uint64_t, std::uint64_t tag) const
    {
        return tag;
    }

    /** DRAM-array address of a cached data block (sector-frame map). */
    Addr dataAddr(std::uint64_t sec, std::uint32_t blk) const;

    /** DRAM-array address of a set's metadata block. */
    Addr metaAddr(std::uint64_t set) const;

    /** Resolve parked read @p slot once the tag state is known. */
    void resolveRead(Addr addr, std::uint32_t slot);

    /** Allocate a sector, evicting a victim and fetching the predicted
     *  footprint. @return whether the demand block will be filled. */
    bool allocateSector(Addr addr, std::uint64_t sec, std::uint32_t blk);

    /** Decide and record the fill of one block (FWB at launch).
     *  @return true when the block will be filled. */
    bool launchFill(std::uint64_t sec, std::uint32_t blk);

    /** Record a metadata mutation (tag-cache dirty or direct write). */
    void markMetaDirty(std::uint64_t set);

    /** Charge a metadata write-back CAS. */
    void issueMetaWrite(std::uint64_t set);

    /** No parked read: a write's tag lookup never speculates. */
    static constexpr std::uint32_t kNoRead = ~std::uint32_t(0);

    /** Run tag lookup; calls @p next once metadata is available. On a
     *  metadata fetch, parked read @p read may launch SFRM's memory
     *  read. */
    void lookupTags(Addr addr, EventQueue::Callback next,
                    std::uint32_t read = kNoRead);

    /** Write back dirty blocks of a victim sector. */
    void writebackVictim(std::uint64_t set, std::uint64_t victim_tag,
                         const SectorMeta &meta);

    SectoredDramCacheConfig cfg_;
    /** Per-access address split by cfg_.sectorBytes (see sectorNumber). */
    FastDiv secDiv_;
    /** Frame selection by cfg_.ways (see dataAddr). */
    FastDiv wayDiv_;
    DramSystem array_;
    AssocCache<SectorMeta> dir_;
    TagCache tagCache_;
    FootprintPrefetcher footprint_;
};

} // namespace dapsim

#endif // DAPSIM_MEMSIDE_SECTORED_DRAM_CACHE_HH
