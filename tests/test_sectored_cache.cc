/**
 * @file
 * Unit tests for the sectored MS$ controller: the DRAM cache, and the
 * SBD and BATMAN hooks on both of its organizations.
 */

#include <gtest/gtest.h>

#include <string>

#include "dram/presets.hh"
#include "memside/sectored_dram_cache.hh"
#include "policy_stub.hh"

namespace dapsim
{
namespace
{

/** Fixture: cache + main memory on a private event queue. */
class SectoredCacheTest : public ::testing::Test
{
  protected:
    SectoredCacheTest()
        : mm(eq, presets::ddr4_2400())
    {
        cfg.capacityBytes = 4 * kMiB; // small for tests
        cfg.tagCache.entries = 64;
    }

    SectoredDramCache &
    cache()
    {
        if (!ms)
            ms = std::make_unique<SectoredDramCache>(eq, mm, policy,
                                                     cfg);
        return *ms;
    }

    /** Run a read to completion and return whether done fired. */
    bool
    read(Addr a)
    {
        bool fired = false;
        cache().handleRead(a, [&] { fired = true; });
        eq.run();
        return fired;
    }

    EventQueue eq;
    DramSystem mm;
    StubPolicy policy;
    SectoredDramCacheConfig cfg;
    std::unique_ptr<SectoredDramCache> ms;
};

TEST_F(SectoredCacheTest, ColdReadMissesAndFills)
{
    EXPECT_TRUE(read(0x1000));
    EXPECT_EQ(cache().readMisses.value(), 1u);
    EXPECT_EQ(cache().readHits.value(), 0u);
    EXPECT_GT(cache().fills.value(), 0u);
    EXPECT_GT(mm.casReads(), 0u);
}

TEST_F(SectoredCacheTest, SecondReadHits)
{
    read(0x1000);
    EXPECT_TRUE(read(0x1000));
    EXPECT_EQ(cache().readHits.value(), 1u);
    EXPECT_EQ(cache().cleanReadHits.value(), 1u);
}

TEST_F(SectoredCacheTest, FootprintPrefetchMakesNeighboursHit)
{
    read(0x1000); // cold fetch brings a run of neighbours
    EXPECT_TRUE(read(0x1040));
    EXPECT_EQ(cache().readHits.value(), 1u);
}

TEST_F(SectoredCacheTest, WarmTouchPrimesTheDirectory)
{
    cache().warmTouch(0x2000, false);
    EXPECT_TRUE(cache().isBlockResident(0x2000));
    read(0x2000);
    EXPECT_EQ(cache().readHits.value(), 1u);
    EXPECT_EQ(cache().readMisses.value(), 0u);
}

TEST_F(SectoredCacheTest, WriteAllocatesAndMarksDirty)
{
    cache().handleWrite(0x3000);
    eq.run();
    EXPECT_EQ(cache().writeMisses.value(), 1u);
    read(0x3000);
    EXPECT_EQ(cache().readHits.value(), 1u);
    EXPECT_EQ(cache().cleanReadHits.value(), 0u); // dirty hit
}

TEST_F(SectoredCacheTest, WriteHitAfterSectorResident)
{
    read(0x4000);
    cache().handleWrite(0x4000);
    eq.run();
    EXPECT_EQ(cache().writeHits.value(), 1u);
}

TEST_F(SectoredCacheTest, FillBypassLeavesBlockNonResident)
{
    policy.bypassFill = true;
    read(0x5000);
    EXPECT_GT(cache().fillsBypassed.value(), 0u);
    EXPECT_EQ(cache().fills.value(), 0u);
    EXPECT_FALSE(cache().isBlockResident(0x5000));
    // The dropped fill means the block misses again (the delta-cost
    // the paper accepts).
    policy.bypassFill = false;
    read(0x5000);
    EXPECT_EQ(cache().readMisses.value(), 2u);
}

TEST_F(SectoredCacheTest, WriteBypassGoesToMemoryAndInvalidates)
{
    read(0x6000); // make the block resident & clean
    const auto mm_writes_before = mm.casWrites();
    policy.bypassWrite = true;
    cache().handleWrite(0x6000);
    eq.run();
    EXPECT_EQ(cache().writesBypassed.value(), 1u);
    EXPECT_GT(mm.casWrites(), mm_writes_before);
    // The stale cached copy must have been invalidated.
    EXPECT_FALSE(cache().isBlockResident(0x6000));
}

TEST_F(SectoredCacheTest, IfrmServesCleanHitFromMemory)
{
    read(0x7000);
    policy.forceReadMiss = true;
    const auto mm_reads_before = mm.casReads();
    EXPECT_TRUE(read(0x7000));
    EXPECT_EQ(cache().forcedReadMisses.value(), 1u);
    EXPECT_GT(mm.casReads(), mm_reads_before);
    // Still counted as a (clean) hit; the block stays resident.
    EXPECT_EQ(cache().readHits.value(), 1u);
    EXPECT_TRUE(cache().isBlockResident(0x7000));
}

TEST_F(SectoredCacheTest, IfrmNotAppliedToDirtyHits)
{
    cache().handleWrite(0x7100); // dirty block
    eq.run();
    policy.forceReadMiss = true;
    const auto mm_reads_before = mm.casReads();
    read(0x7100);
    EXPECT_EQ(cache().forcedReadMisses.value(), 0u);
    EXPECT_EQ(mm.casReads(), mm_reads_before);
}

/** Evict @p target_addr's tag-cache entry without touching its MS$
 *  set (warm sectors sharing the set would legitimately re-cache the
 *  metadata). */
void
thrashTagCacheAround(SectoredDramCache &ms,
                     const SectoredDramCacheConfig &cfg,
                     Addr target_addr)
{
    const std::uint64_t target =
        indexHash(target_addr / cfg.sectorBytes) % cfg.numSets();
    int warmed = 0;
    for (std::uint64_t sec = 0x40000000; warmed < 400; ++sec) {
        if (indexHash(sec) % cfg.numSets() == target)
            continue;
        ms.warmTouch(sec * cfg.sectorBytes, false);
        ++warmed;
    }
}

TEST_F(SectoredCacheTest, SfrmWastedOnDirtyHit)
{
    // Make the tag cache miss by thrashing it after priming a dirty
    // block.
    cache().handleWrite(0x8000);
    eq.run();
    thrashTagCacheAround(cache(), cfg, 0x8000);
    policy.speculate = true;
    read(0x8000);
    EXPECT_EQ(cache().speculativeReads.value(), 1u);
    EXPECT_EQ(cache().speculativeWasted.value(), 1u);
}

TEST_F(SectoredCacheTest, SfrmServesCleanDataEarly)
{
    read(0x9000);
    thrashTagCacheAround(cache(), cfg, 0x9000);
    policy.speculate = true;
    EXPECT_TRUE(read(0x9000));
    EXPECT_EQ(cache().speculativeReads.value(), 1u);
    EXPECT_EQ(cache().speculativeWasted.value(), 0u);
}

TEST_F(SectoredCacheTest, DisabledSetServedByMemory)
{
    read(0xA000);
    const std::uint64_t set =
        cache().config().numSets(); // compute via probe below
    (void)set;
    // Disable every set: all traffic must go to memory.
    for (std::uint64_t s = 0; s < cfg.numSets(); ++s)
        policy.disabledSets.insert(s);
    const auto array_cas = cache().arrayCasOps();
    EXPECT_TRUE(read(0xA000));
    cache().handleWrite(0xB000);
    eq.run();
    EXPECT_EQ(cache().arrayCasOps(), array_cas);
}

TEST_F(SectoredCacheTest, EvictionWritesBackDirtyBlocks)
{
    // Fill one set beyond associativity with dirty sectors.
    cache(); // construct
    std::vector<Addr> in_one_set;
    const std::uint64_t target_set = 3;
    for (Addr sec = 0; in_one_set.size() < cfg.ways + 1; ++sec) {
        const Addr a = sec * cfg.sectorBytes;
        // Recreate the controller's set mapping via residence probing:
        // warm-touch and check which sectors collide is overkill; use
        // the same hash the cache uses.
        if (indexHash(sec) % cfg.numSets() == target_set)
            in_one_set.push_back(a);
    }
    for (Addr a : in_one_set) {
        cache().handleWrite(a);
        eq.run();
    }
    EXPECT_GE(cache().sectorEvictions.value(), 1u);
    EXPECT_GE(cache().dirtyWritebacks.value(), 1u);
}

TEST_F(SectoredCacheTest, WindowCountersAccumulateDemand)
{
    cache().startWindows(64);
    bool fired = false;
    cache().handleRead(0xF000, [&] { fired = true; });
    cache().handleWrite(0xF040);
    // The window event self-reschedules forever; run a bounded slice.
    eq.run(cpuCyclesToTicks(100'000));
    EXPECT_TRUE(fired);
    EXPECT_GT(policy.windows, 0);
    cache().stopWindows();
}

TEST_F(SectoredCacheTest, MetadataTrafficWithoutTagCache)
{
    cfg.tagCache.enabled = false;
    read(0x1000);
    read(0x1000);
    // Without a tag cache every lookup costs a metadata CAS, so the
    // array sees more than just the data accesses.
    EXPECT_GT(cache().arrayCasOps(), 2u);
}

TEST_F(SectoredCacheTest, TagCacheFiltersMetadataReads)
{
    read(0x1000);
    const auto cas_after_first = cache().arrayCasOps();
    read(0x1000); // tag cache hit: only the data CAS is added
    EXPECT_EQ(cache().arrayCasOps(), cas_after_first + 1);
}

TEST_F(SectoredCacheTest, HitRatioCombinesReadsAndWrites)
{
    read(0x1000);        // miss
    read(0x1000);        // hit
    cache().handleWrite(0x1000); // hit
    eq.run();
    EXPECT_NEAR(cache().hitRatio(), 2.0 / 3.0, 1e-9);
}

/** The two organizations the sectored controller is built as. */
enum class Org
{
    DramCache, ///< tag cache, one bidirectional array
    Edram,     ///< on-die tags, split read/write channels
};

const char *
label(Org o)
{
    return o == Org::Edram ? "Edram" : "DramCache";
}

void PrintTo(Org o, std::ostream *os) { *os << label(o); }

/**
 * The SBD and BATMAN hooks, on both organizations. Each case also
 * holds the eDRAM channel roles: read-outs on the read channels, fills
 * and writes on the write channels, and no metadata CAS (the DRAM
 * cache's tag-cache hits add none either).
 */
class SectoredHooksTest : public ::testing::TestWithParam<Org>
{
  protected:
    SectoredHooksTest() : mm(eq, presets::ddr4_2400())
    {
        dram.capacityBytes = 4 * kMiB;
        dram.tagCache.entries = 64;
        edram.capacityBytes = 1 * kMiB;
    }

    SectoredDramCache &
    cache()
    {
        if (!ms)
            ms = GetParam() == Org::Edram
                     ? std::make_unique<SectoredDramCache>(eq, mm, policy,
                                                           edram)
                     : std::make_unique<SectoredDramCache>(eq, mm, policy,
                                                           dram);
        return *ms;
    }

    bool
    read(Addr a)
    {
        bool fired = false;
        cache().handleRead(a, [&] { fired = true; });
        eq.run();
        return fired;
    }

    void
    write(Addr a)
    {
        cache().handleWrite(a);
        eq.run();
    }

    /** Reads on the read channels and writes on the write channels,
     *  only (vacuous on the one bidirectional array). */
    void
    expectChannelRoles()
    {
        if (!cache().splitChannels())
            return;
        EXPECT_EQ(cache().readArray().casWrites(), 0u);
        EXPECT_EQ(cache().writeArray().casReads(), 0u);
    }

    EventQueue eq;
    DramSystem mm;
    StubPolicy policy;
    SectoredDramCacheConfig dram;
    EdramCacheConfig edram;
    std::unique_ptr<SectoredDramCache> ms;
};

TEST_P(SectoredHooksTest, SteerServesCleanBlocksFromMemory)
{
    read(0xC000);
    policy.steer = true;
    const auto mm_reads = mm.casReads();
    const auto array_cas = cache().arrayCasOps();
    EXPECT_TRUE(read(0xC000));
    EXPECT_EQ(cache().steeredToMemory.value(), 1u);
    EXPECT_GT(mm.casReads(), mm_reads);
    EXPECT_EQ(cache().arrayCasOps(), array_cas);
    expectChannelRoles();
}

TEST_P(SectoredHooksTest, SteerOverriddenForDirtyBlocks)
{
    write(0xD000);
    policy.steer = true;
    const auto reads = cache().readArray().casReads();
    EXPECT_TRUE(read(0xD000));
    EXPECT_EQ(cache().steerOverridden.value(), 1u);
    EXPECT_EQ(cache().steeredToMemory.value(), 0u);
    // The dirty block is read from the cache: one data CAS.
    EXPECT_EQ(cache().readArray().casReads(), reads + 1);
    expectChannelRoles();
}

TEST_P(SectoredHooksTest, CleanSectorWritesDirtyBlocksBack)
{
    write(0xE000);
    write(0xE040);
    const auto reads = cache().readArray().casReads();
    cache().cleanSector(0xE000);
    eq.run();
    EXPECT_EQ(cache().dirtyWritebacks.value(), 2u);
    // Two read-outs and no metadata traffic.
    EXPECT_EQ(cache().readArray().casReads(), reads + 2);
    // Blocks stay resident but clean.
    read(0xE000);
    EXPECT_EQ(cache().cleanReadHits.value(), 1u);
    expectChannelRoles();
}

TEST_P(SectoredHooksTest, WriteThroughKeepsBlocksClean)
{
    read(0xF000);           // resident and clean
    policy.writeThrough = true;
    const auto mm_writes = mm.casWrites();
    const auto writes = cache().writeArray().casWrites();
    write(0xF000);          // write hit
    write(0x7F000);         // sector miss: write-allocate
    EXPECT_EQ(cache().writeHits.value(), 1u);
    EXPECT_EQ(cache().writeMisses.value(), 1u);
    // Both go to the cache and to memory.
    EXPECT_EQ(cache().writeArray().casWrites(), writes + 2);
    EXPECT_EQ(mm.casWrites(), mm_writes + 2);
    policy.writeThrough = false;
    read(0xF000);
    read(0x7F000);
    EXPECT_EQ(cache().cleanReadHits.value(), 2u);
    EXPECT_EQ(cache().dirtyWritebacks.value(), 0u);
    expectChannelRoles();
}

TEST_P(SectoredHooksTest, FlushSetWritesBackAndInvalidates)
{
    write(0x10000);
    write(0x10040);
    const SectoredDramCacheConfig &g = cache().config();
    const std::uint64_t set =
        indexHash(0x10000 / g.sectorBytes) % g.numSets();
    const auto reads = cache().readArray().casReads();
    cache().flushSet(set);
    eq.run();
    EXPECT_EQ(cache().sectorEvictions.value(), 1u);
    EXPECT_EQ(cache().dirtyWritebacks.value(), 2u);
    EXPECT_EQ(cache().readArray().casReads(), reads + 2);
    EXPECT_FALSE(cache().isBlockResident(0x10000));
    EXPECT_FALSE(cache().isBlockResident(0x10040));
    expectChannelRoles();
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, SectoredHooksTest,
    ::testing::Values(Org::DramCache, Org::Edram),
    [](const ::testing::TestParamInfo<Org> &info) {
        return std::string(label(info.param));
    });

} // namespace
} // namespace dapsim
