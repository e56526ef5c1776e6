/**
 * @file
 * Sectored memory-side caches (paper Sections II, IV-A, IV-C, VI-A,
 * VI-C): the die-stacked DRAM cache and the eDRAM cache.
 *
 * Both are set-associative with NRU replacement, per-block valid and
 * dirty bits in each sector, and footprint-prefetcher fills. The two
 * organizations differ in where the tags live and how the channels
 * are wired, and both differences are fixed at construction:
 *
 *  - DRAM cache (SectoredDramCacheConfig): 4-way, 4 KB sectors,
 *    metadata resident in the DRAM array behind an SRAM tag cache, and
 *    one bidirectional set of HBM channels serving reads, writes,
 *    fills, evictions and metadata.
 *  - eDRAM cache (EdramCacheConfig; Crystalwell/Skylake-style): 16-way,
 *    1 KB sectors, metadata in on-die SRAM (a fixed lookup latency, no
 *    metadata CAS traffic, hence no SFRM), and split channel sets:
 *    hits and eviction read-outs use the read channels, fills and
 *    incoming writes the write channels, so the system has three
 *    bandwidth sources beyond the SRAM hierarchy and DAP uses the
 *    three-source solver.
 *
 * DAP's techniques apply wherever their decision point exists: FWB on
 * fills, WB on incoming dirty L3 evictions, IFRM on known-clean read
 * hits, SFRM on reads that miss the tag cache. The controller also
 * provides the hooks used by the SBD and BATMAN comparison policies,
 * on both organizations.
 */

#ifndef DAPSIM_MEMSIDE_SECTORED_DRAM_CACHE_HH
#define DAPSIM_MEMSIDE_SECTORED_DRAM_CACHE_HH

#include <cstdint>
#include <optional>

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

/** Configuration of the sectored eDRAM cache. */
struct EdramCacheConfig
{
    /** Scaled default: 4 MB stands in for the paper's 256 MB. */
    std::uint64_t capacityBytes = 4 * kMiB;
    std::uint32_t ways = 16;
    std::uint64_t sectorBytes = 1 * kKiB;

    DramConfig readChannels = presets::edram_dir_51();
    DramConfig writeChannels = presets::edram_dir_51();

    /** On-die SRAM metadata lookup, CPU cycles at 4 GHz. */
    Cycle tagLookupCycles = 8;

    FootprintConfig footprint{};

    std::uint64_t numSectors() const { return capacityBytes / sectorBytes; }
    std::uint64_t numSets() const { return numSectors() / ways; }
    std::uint32_t
    blocksPerSector() const
    {
        return static_cast<std::uint32_t>(sectorBytes / kBlockBytes);
    }
};

/** The sectored MS$ controller (DRAM cache or eDRAM cache). */
class SectoredDramCache final : public MemSideCache
{
  public:
    /** The DRAM cache: tag cache, one bidirectional array. */
    SectoredDramCache(EventQueue &eq, DramSystem &main_memory,
                      PartitionPolicy &policy,
                      const SectoredDramCacheConfig &cfg);

    /** The eDRAM cache: on-die tags, split read/write channels. */
    SectoredDramCache(EventQueue &eq, DramSystem &main_memory,
                      PartitionPolicy &policy,
                      const EdramCacheConfig &cfg);

    void handleRead(Addr addr, Done done) override;
    void handleWrite(Addr addr) override;

    std::uint64_t
    arrayCasOps() const override
    {
        return split_ ? array_.casOps() + writeArray_->casOps()
                      : array_.casOps();
    }

    /** The array; on the eDRAM cache, its read channels. */
    DramSystem &array() { return array_; }
    /** Channels serving hits and read-outs (array() on both). */
    DramSystem &readArray() { return array_; }
    /** Channels serving fills and writes (array() unless split). */
    DramSystem &writeArray() { return *writeArray_; }
    /** Whether reads and writes use separate channel sets. */
    bool splitChannels() const { return split_; }
    /** The tag cache; never consulted with on-die tags. */
    TagCache &tagCache() { return tagCache_; }
    /** The geometry; on the eDRAM cache, `array` is its read channels
     *  and `tagCache` is disabled. */
    const SectoredDramCacheConfig &config() const { return cfg_; }

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
        array_.creditFastForward(reads, 0);
        writeArray_->creditFastForward(0, writes);
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

    /** Record a metadata mutation (tag-cache dirty or direct write;
     *  nothing for on-die tags). */
    void markMetaDirty(std::uint64_t set);

    /** Charge a metadata write-back CAS. */
    void issueMetaWrite(std::uint64_t set);

    /** No parked read: a write's tag lookup never speculates. */
    static constexpr std::uint32_t kNoRead = ~std::uint32_t(0);

    /** Run the DRAM cache's tag lookup (tag cache, else a metadata
     *  fetch from the array); calls @p next once metadata is
     *  available. On a metadata fetch, parked read @p read may launch
     *  SFRM's memory read. On-die tags never come here. */
    void lookupTags(Addr addr, EventQueue::Callback next,
                    std::uint32_t read = kNoRead);

    /** Write back dirty blocks of a victim sector. */
    void writebackVictim(std::uint64_t set, std::uint64_t victim_tag,
                         const SectorMeta &meta);

    /** Read dirty block @p blk of sector @p sec out of the array and
     *  write it to memory. */
    void writebackBlock(std::uint64_t sec, std::uint32_t blk);

    SectoredDramCacheConfig cfg_;
    /** Per-access address split by cfg_.sectorBytes (see sectorNumber). */
    FastDiv secDiv_;
    /** Frame selection by cfg_.ways (see dataAddr). */
    FastDiv wayDiv_;
    DramSystem array_;
    /** Where fills and writes go: array_, or *writeChannels_. */
    DramSystem *writeArray_;
    /** Split channels: 1 counts aMsRead/aMsWrite demand, 0 not. */
    std::uint64_t split_ = 0;
    /** On-die SRAM tags: a fixed lookup latency, no metadata traffic,
     *  no tag cache and no SFRM. */
    bool onDieTags_ = false;
    /** The on-die lookup latency, in ticks. */
    Tick onDieLookup_ = 0;
    AssocCache<SectorMeta> dir_;
    TagCache tagCache_;
    FootprintPrefetcher footprint_;
    /** The eDRAM cache's write channels, emplaced by its constructor
     *  after array_ exists so their refresh events follow the read
     *  channels'. Last, off the DRAM cache's hot members. */
    std::optional<DramSystem> writeChannels_;
};

/** The eDRAM cache is the sectored controller built from an
 *  EdramCacheConfig; the name remains for the benchmark driver. */
using EdramCache = SectoredDramCache;

} // namespace dapsim

#endif // DAPSIM_MEMSIDE_SECTORED_DRAM_CACHE_HH
