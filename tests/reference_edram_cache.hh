/**
 * @file
 * Reference eDRAM cache: the controller before it became a
 * construction of the sectored one.
 *
 * This is `EdramCache` as it stood as its own class, frozen as the
 * behavioural oracle for `SectoredDramCache` built from an
 * `EdramCacheConfig`. It consults the policy's set-disable, fill- and
 * write-bypass and IFRM hooks, and no others: no steering,
 * write-through, cleaning or set flush. The differential test
 * (test_edram_diff.cc) drives it and the production controller with
 * one scripted stream under a policy that answers only those hooks,
 * and requires equal completions, counters, window demand, channel
 * CAS counts, event counts and checkpoint bytes.
 *
 * Do not optimise or otherwise modify this type: its value is that it
 * is the old controller, line for line.
 */

#ifndef DAPSIM_TESTS_REFERENCE_EDRAM_CACHE_HH
#define DAPSIM_TESTS_REFERENCE_EDRAM_CACHE_HH

#include <cstdint>

#include "cache/assoc_cache.hh"
#include "cache/sector.hh"
#include "memside/footprint_prefetcher.hh"
#include "memside/ms_cache.hh"
#include "memside/sectored_dram_cache.hh"

namespace dapsim
{

/** The sectored eDRAM cache controller, as its own class. */
class RefEdramCache final : public MemSideCache
{
  public:
    RefEdramCache(EventQueue &eq, DramSystem &main_memory,
                  PartitionPolicy &policy, const EdramCacheConfig &cfg)
        : MemSideCache(eq, main_memory, policy), cfg_(cfg),
          secDiv_(FastDiv::of(cfg.sectorBytes)),
          wayDiv_(FastDiv::of(cfg.ways)),
          readArray_(eq, cfg.readChannels),
          writeArray_(eq, cfg.writeChannels),
          dir_(cfg.numSets(), cfg.ways, ReplPolicy::NRU),
          footprint_(cfg.footprint, cfg.blocksPerSector())
    {
    }

    void handleRead(Addr addr, Done done) override;
    void handleWrite(Addr addr) override;

    std::uint64_t
    arrayCasOps() const override
    {
        return readArray_.casOps() + writeArray_.casOps();
    }

    DramSystem &readArray() { return readArray_; }
    DramSystem &writeArray() { return writeArray_; }

    bool warmTouch(Addr addr, bool is_write) override;

    void
    creditFastForward(std::uint64_t reads, std::uint64_t writes) override
    {
        readArray_.creditFastForward(reads, 0);
        writeArray_.creditFastForward(0, writes);
    }

    void save(ckpt::Serializer &s) const override;
    void restore(ckpt::Deserializer &d) override;

  private:
    std::uint64_t sectorNumber(Addr a) const { return secDiv_.div(a); }
    std::uint64_t setOf(std::uint64_t sec) const
    {
        return dir_.mapSet(indexHash(sec));
    }
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

    Addr dataAddr(std::uint64_t sec, std::uint32_t blk) const;

    /** Resolve parked read @p slot after the on-die tag lookup. */
    void resolveRead(Addr addr, std::uint32_t slot);

    bool launchFill(std::uint64_t sec, std::uint32_t blk);
    bool allocateSector(Addr addr, std::uint64_t sec, std::uint32_t blk);
    void writebackVictim(std::uint64_t set, std::uint64_t victim_tag,
                         const SectorMeta &meta);

    EdramCacheConfig cfg_;
    FastDiv secDiv_;
    FastDiv wayDiv_;
    DramSystem readArray_;
    DramSystem writeArray_;
    AssocCache<SectorMeta> dir_;
    FootprintPrefetcher footprint_;
};

inline Addr
RefEdramCache::dataAddr(std::uint64_t sec, std::uint32_t blk) const
{
    const std::uint64_t frame =
        setOf(sec) * cfg_.ways + wayDiv_.mod(sec);
    return frame * cfg_.sectorBytes +
           static_cast<Addr>(blk) * kBlockBytes;
}

inline void
RefEdramCache::handleRead(Addr addr, Done done)
{
    window_.lookups++;
    const std::uint64_t set = setOf(sectorNumber(addr));

    if (policy_.isSetDisabled(set)) {
        readMisses.inc();
        window_.aMm++;
        memAccess(addr, false, std::move(done));
        return;
    }

    // On-die SRAM tag lookup: pure latency, no array bandwidth.
    const std::uint32_t slot = parkRead(std::move(done));
    eq_.scheduleAfter(cpuCyclesToTicks(cfg_.tagLookupCycles),
                      [this, addr, slot] { resolveRead(addr, slot); });
}

inline void
RefEdramCache::resolveRead(Addr addr, std::uint32_t slot)
{
    const std::uint64_t sec = sectorNumber(addr);
    const std::uint64_t set = setOf(sec);
    const std::uint64_t tag = tagOf(sec);
    const std::uint32_t blk = blkOf(addr);

    SectorMeta *m = dir_.find(set, tag);
    policy_.noteReadOutcome(addr, m != nullptr && m->isValid(blk));
    if (m != nullptr && m->isValid(blk)) {
        readHits.inc();
        window_.hits++;
        window_.aMs++;
        window_.aMsRead++;
        dir_.touch(set, tag);
        m->touch(blk);
        const bool clean = !m->isDirty(blk);
        if (clean) {
            cleanReadHits.inc();
            window_.cleanHits++;
            if (policy_.shouldForceReadMiss(addr)) {
                forcedReadMisses.inc();
                memAccess(addr, false, takeRead(slot));
                return;
            }
        }
        readArray_.access(dataAddr(sec, blk), false, takeRead(slot));
        return;
    }

    readMisses.inc();
    window_.aMm++;

    bool fill;
    if (m != nullptr) {
        dir_.touch(set, tag);
        m->touch(blk);
        fill = launchFill(sec, blk);
    } else {
        fill = allocateSector(addr, sec, blk);
    }
    memAccess(addr, false, [this, sec, blk, fill, slot] {
        if (fill)
            writeArray_.access(dataAddr(sec, blk), true);
        finishRead(slot);
    });
}

inline bool
RefEdramCache::launchFill(std::uint64_t sec, std::uint32_t blk)
{
    window_.readMisses++;
    window_.aMs++;
    window_.aMsWrite++;
    const std::uint64_t set = setOf(sec);
    SectorMeta *m = dir_.find(set, tagOf(sec));
    if (m == nullptr)
        return false;
    const Addr addr = sec * cfg_.sectorBytes +
                      static_cast<Addr>(blk) * kBlockBytes;
    if (policy_.shouldBypassFill(addr)) {
        fillsBypassed.inc();
        return false;
    }
    fills.inc();
    m->setValid(blk);
    return true;
}

inline void
RefEdramCache::writebackVictim(std::uint64_t set,
                               std::uint64_t victim_tag,
                               const SectorMeta &meta)
{
    sectorEvictions.inc();
    const std::uint64_t vsec = sectorNumberFrom(set, victim_tag);
    footprint_.recordEviction(vsec, meta.touchedMask);
    for (std::uint32_t b = 0; b < cfg_.blocksPerSector(); ++b) {
        if (!meta.isDirty(b))
            continue;
        window_.aMs++;
        window_.aMsRead++; // eviction read-out uses the read channels
        window_.aMm++;
        const Addr waddr = vsec * cfg_.sectorBytes +
                           static_cast<Addr>(b) * kBlockBytes;
        readArray_.access(dataAddr(vsec, b), false, [this, waddr] {
            dirtyWritebacks.inc();
            memAccess(waddr, true);
        });
    }
}

inline bool
RefEdramCache::allocateSector(Addr addr, std::uint64_t sec,
                              std::uint32_t blk)
{
    (void)addr;
    const std::uint64_t set = setOf(sec);
    const std::uint64_t tag = tagOf(sec);

    const std::uint64_t mask = footprint_.predict(sec, blk);

    auto victim = dir_.insert(set, tag, SectorMeta{});
    if (victim.valid)
        writebackVictim(set, victim.tag, victim.value);
    dir_.find(set, tag)->touch(blk);

    bool demand_fill = false;
    for (std::uint32_t b = 0; b < cfg_.blocksPerSector(); ++b) {
        if ((mask & (1ULL << b)) == 0)
            continue;
        const bool fill = launchFill(sec, b);
        if (b == blk) {
            demand_fill = fill;
            continue;
        }
        if (!fill)
            continue;
        window_.aMm++;
        const Addr baddr = sec * cfg_.sectorBytes +
                           static_cast<Addr>(b) * kBlockBytes;
        memAccess(baddr, false, [this, sec, b] {
            writeArray_.access(dataAddr(sec, b), true);
        }, /*low_priority=*/true);
    }
    return demand_fill;
}

inline bool
RefEdramCache::warmTouch(Addr addr, bool is_write)
{
    const std::uint64_t sec = sectorNumber(addr);
    const std::uint64_t set = setOf(sec);
    const std::uint64_t tag = tagOf(sec);
    const std::uint32_t blk = blkOf(addr);

    std::uint32_t way = dir_.lookup(set, tag);
    bool hit = false;
    if (way == dir_.kNoWay) {
        const std::uint64_t mask = footprint_.predict(sec, blk);
        auto victim = dir_.insertAbsent(set, tag, SectorMeta{}, way);
        if (victim.valid)
            footprint_.recordEviction(
                sectorNumberFrom(set, victim.tag),
                victim.value.touchedMask);
        dir_.valueAt(set, way).validMask = mask;
    } else {
        hit = is_write || dir_.valueAt(set, way).isValid(blk);
    }
    dir_.touchWay(set, way);
    SectorMeta &m = dir_.valueAt(set, way);
    m.touch(blk);
    if (is_write)
        m.setDirty(blk);
    else
        m.setValid(blk);
    return hit;
}

inline void
RefEdramCache::handleWrite(Addr addr)
{
    window_.lookups++;
    const std::uint64_t sec = sectorNumber(addr);
    const std::uint64_t set = setOf(sec);
    const std::uint64_t tag = tagOf(sec);
    const std::uint32_t blk = blkOf(addr);

    if (policy_.isSetDisabled(set)) {
        writeMisses.inc();
        memAccess(addr, true);
        return;
    }

    policy_.noteWrite(addr);
    window_.aMs++;
    window_.aMsWrite++;
    window_.writes++;

    SectorMeta *m = dir_.find(set, tag);
    if (m != nullptr) {
        writeHits.inc();
        window_.hits++;
        dir_.touch(set, tag);
        m->touch(blk);
        if (policy_.shouldBypassWrite(addr)) {
            writesBypassed.inc();
            memAccess(addr, true);
            if (m->isValid(blk))
                m->clearBlock(blk);
            return;
        }
        m->setDirty(blk);
        writeArray_.access(dataAddr(sec, blk), true);
        return;
    }

    writeMisses.inc();
    if (policy_.shouldBypassWrite(addr)) {
        writesBypassed.inc();
        memAccess(addr, true);
        return;
    }
    auto victim = dir_.insert(set, tag, SectorMeta{});
    if (victim.valid)
        writebackVictim(set, victim.tag, victim.value);
    SectorMeta *nm = dir_.find(set, tag);
    nm->touch(blk);
    nm->setDirty(blk);
    writeArray_.access(dataAddr(sec, blk), true);
}

inline void
RefEdramCache::save(ckpt::Serializer &s) const
{
    saveBase(s);
    readArray_.save(s);
    writeArray_.save(s);
    dir_.save(s, [](ckpt::Serializer &sr, const SectorMeta &m) {
        sr.u64(m.validMask);
        sr.u64(m.dirtyMask);
        sr.u64(m.touchedMask);
    });
    footprint_.save(s);
}

inline void
RefEdramCache::restore(ckpt::Deserializer &d)
{
    restoreBase(d);
    readArray_.restore(d);
    writeArray_.restore(d);
    dir_.restore(d, [](ckpt::Deserializer &dr, SectorMeta &m) {
        m.validMask = dr.u64();
        m.dirtyMask = dr.u64();
        m.touchedMask = dr.u64();
    });
    footprint_.restore(d);
}

} // namespace dapsim

#endif // DAPSIM_TESTS_REFERENCE_EDRAM_CACHE_HH
