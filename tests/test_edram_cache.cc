/**
 * @file
 * Unit tests for the sectored eDRAM cache: the sectored controller
 * built from an EdramCacheConfig, with on-die tags and split R/W
 * channels.
 */

#include <gtest/gtest.h>

#include "memside/sectored_dram_cache.hh"
#include "policy_stub.hh"

namespace dapsim
{
namespace
{

class EdramCacheTest : public ::testing::Test
{
  protected:
    EdramCacheTest() : mm(eq, presets::ddr4_2400())
    {
        cfg.capacityBytes = 1 * kMiB;
    }

    SectoredDramCache &
    cache()
    {
        if (!ms)
            ms = std::make_unique<SectoredDramCache>(eq, mm, policy, cfg);
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

    EventQueue eq;
    DramSystem mm;
    StubPolicy policy;
    EdramCacheConfig cfg;
    std::unique_ptr<SectoredDramCache> ms;
};

TEST_F(EdramCacheTest, SplitChannels)
{
    // A miss + fill consumes write-channel bandwidth only; the later
    // hit consumes read-channel bandwidth only.
    read(0x1000);
    EXPECT_EQ(cache().readArray().casOps(), 0u);
    EXPECT_GT(cache().writeArray().casWrites(), 0u);
    read(0x1000);
    EXPECT_EQ(cache().readArray().casReads(), 1u);
}

TEST_F(EdramCacheTest, OneKiloByteSectors)
{
    EXPECT_EQ(cfg.blocksPerSector(), 16u);
    read(0x2000);
    // The cold footprint run cannot exceed the sector.
    EXPECT_LE(cache().fills.value(), 16u);
}

TEST_F(EdramCacheTest, HitLatencyIncludesOnDieTagLookup)
{
    read(0x3000);
    Tick start = eq.now();
    Tick done_at = 0;
    cache().handleRead(0x3000, [&] { done_at = eq.now(); });
    eq.run();
    EXPECT_GE(done_at - start, cpuCyclesToTicks(cfg.tagLookupCycles));
}

TEST_F(EdramCacheTest, NoMetadataTrafficNoSfrm)
{
    policy.speculate = true; // would be SFRM on the DRAM cache
    read(0x4000);
    read(0x4000);
    EXPECT_EQ(cache().speculativeReads.value(), 0u);
    EXPECT_EQ(policy.sfrmAsked, 0);
}

TEST_F(EdramCacheTest, WritesGoToWriteChannels)
{
    cache().handleWrite(0x5000);
    eq.run();
    EXPECT_GT(cache().writeArray().casWrites(), 0u);
    EXPECT_EQ(cache().readArray().casOps(), 0u);
}

TEST_F(EdramCacheTest, EvictionReadsUseReadChannels)
{
    cache(); // construct
    // Build dirty sectors that collide in one set until eviction.
    const std::uint64_t target = 5;
    std::vector<Addr> colliding;
    for (std::uint64_t sec = 0;
         colliding.size() < cfg.ways + 1; ++sec) {
        if (indexHash(sec) % cfg.numSets() == target)
            colliding.push_back(sec * cfg.sectorBytes);
    }
    for (Addr a : colliding) {
        cache().handleWrite(a);
        eq.run();
    }
    EXPECT_GE(cache().sectorEvictions.value(), 1u);
    EXPECT_GT(cache().readArray().casReads(), 0u); // eviction read-out
    EXPECT_GT(cache().dirtyWritebacks.value(), 0u);
}

TEST_F(EdramCacheTest, IfrmOnCleanHits)
{
    read(0x6000);
    policy.forceReadMiss = true;
    const auto mm_reads = mm.casReads();
    const auto rd_cas = cache().readArray().casOps();
    EXPECT_TRUE(read(0x6000));
    EXPECT_EQ(cache().forcedReadMisses.value(), 1u);
    EXPECT_GT(mm.casReads(), mm_reads);
    EXPECT_EQ(cache().readArray().casOps(), rd_cas);
}

TEST_F(EdramCacheTest, FillBypassHonored)
{
    policy.bypassFill = true;
    read(0x7000);
    EXPECT_EQ(cache().fills.value(), 0u);
    EXPECT_GT(cache().fillsBypassed.value(), 0u);
    EXPECT_EQ(cache().writeArray().casWrites(), 0u);
}

TEST_F(EdramCacheTest, WriteBypassInvalidates)
{
    read(0x8000);
    policy.bypassWrite = true;
    const auto mm_writes = mm.casWrites();
    cache().handleWrite(0x8000);
    eq.run();
    EXPECT_GT(mm.casWrites(), mm_writes);
    EXPECT_EQ(cache().writesBypassed.value(), 1u);
    // Invalidated: the next read misses.
    policy.bypassWrite = false;
    read(0x8000);
    EXPECT_EQ(cache().readMisses.value(), 2u);
}

TEST_F(EdramCacheTest, WarmTouchPrimes)
{
    cache().warmTouch(0x9000, false);
    read(0x9000);
    EXPECT_EQ(cache().readHits.value(), 1u);
}

TEST_F(EdramCacheTest, PeakBandwidthAccessors)
{
    EXPECT_NEAR(cfg.readChannels.peakAccessesPerCpuCycle(), 0.2, 1e-6);
    EXPECT_NEAR(cfg.writeChannels.peakAccessesPerCpuCycle(), 0.2, 1e-6);
}

} // namespace
} // namespace dapsim
