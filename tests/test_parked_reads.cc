/**
 * @file
 * The parked-read table of MemSideCache (memside/ms_cache.hh), driven
 * through a test subclass: the race between a speculative main-memory
 * fetch and the lookup that SFRM and the Alloy early read both run.
 * Whichever side finishes first, a read's Done fires exactly once and
 * its slot is recycled exactly once, and a Done may park new reads.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dram/presets.hh"
#include "memside/ms_cache.hh"

namespace dapsim
{
namespace
{

/** An MS$ that does nothing but expose the parked-read table. */
class RaceCache final : public MemSideCache
{
  public:
    using MemSideCache::MemSideCache;

    void handleRead(Addr, Done) override {}
    void handleWrite(Addr) override {}
    std::uint64_t arrayCasOps() const override { return 0; }

    using MemSideCache::finishRead;
    using MemSideCache::parkRead;
    using MemSideCache::serveFromFetch;
    using MemSideCache::speculate;
    using MemSideCache::speculating;
    using MemSideCache::takeRead;
};

class ParkedReads : public ::testing::Test
{
  protected:
    static constexpr Addr kAddr = 0x4000;

    ParkedReads() : mm(eq, presets::ddr4_2400()), ms(eq, mm, policy) {}

    MemSideCache::Done
    counted()
    {
        return [this] { ++fired; };
    }

    /** Park a read with a speculative fetch in flight. */
    std::uint32_t
    parkSpeculating()
    {
        const std::uint32_t slot = ms.parkRead(counted());
        ms.speculate(slot, kAddr);
        EXPECT_TRUE(ms.speculating(slot));
        return slot;
    }

    /** Slot @p slot is free, once: the next park reuses it (LIFO)
     *  and the park after that does not. */
    void
    expectRecycledOnce(std::uint32_t slot)
    {
        const std::uint32_t a = ms.parkRead(nullptr);
        const std::uint32_t b = ms.parkRead(nullptr);
        EXPECT_EQ(a, slot) << "slot not released";
        EXPECT_NE(b, slot) << "slot released twice";
        ms.finishRead(b);
        ms.finishRead(a);
    }

    EventQueue eq;
    DramSystem mm;
    PartitionPolicy policy;
    RaceCache ms;
    int fired = 0;
};

TEST_F(ParkedReads, FetchReturnsThenLookupServesFromIt)
{
    const std::uint32_t slot = parkSpeculating();
    eq.run(); // the fetch returns; the lookup is unresolved
    EXPECT_EQ(fired, 0);
    ms.serveFromFetch(slot);
    EXPECT_EQ(fired, 1);
    expectRecycledOnce(slot);
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST_F(ParkedReads, LookupServesFromFetchThenItReturns)
{
    const std::uint32_t slot = parkSpeculating();
    ms.serveFromFetch(slot);
    EXPECT_EQ(fired, 0) << "fired before the fetch's data arrived";
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_GT(eq.now(), 0u);
    expectRecycledOnce(slot);
}

TEST_F(ParkedReads, FetchReturnsThenLookupCompletesElsewhere)
{
    // Sectored dirty hit / Alloy hit after the fetch came back: the
    // fetch's data is dropped and the read completes from the cache.
    const std::uint32_t slot = parkSpeculating();
    eq.run();
    ms.finishRead(slot);
    EXPECT_EQ(fired, 1);
    expectRecycledOnce(slot);
}

TEST_F(ParkedReads, LookupCompletesElsewhereThenFetchReturns)
{
    const std::uint32_t slot = parkSpeculating();
    ms.finishRead(slot);
    EXPECT_EQ(fired, 1);
    // The fetch still targets the slot, so it is not free yet.
    const std::uint32_t other = ms.parkRead(nullptr);
    EXPECT_NE(other, slot);
    ms.finishRead(other);
    eq.run(); // the fetch returns: now the slot is recycled
    EXPECT_EQ(fired, 1);
    expectRecycledOnce(slot);
}

TEST_F(ParkedReads, ReadsWithoutFetchFinishOrHandTheirDoneOn)
{
    const std::uint32_t a = ms.parkRead(counted());
    EXPECT_FALSE(ms.speculating(a));
    ms.finishRead(a);
    EXPECT_EQ(fired, 1);
    expectRecycledOnce(a);

    const std::uint32_t b = ms.parkRead(counted());
    MemSideCache::Done done = ms.takeRead(b);
    EXPECT_EQ(fired, 1) << "takeRead must not fire the Done";
    expectRecycledOnce(b);
    done();
    EXPECT_EQ(fired, 2);
}

TEST_F(ParkedReads, DoneParksMoreReads)
{
    // A Done that issues new reads (a core refilling its window)
    // parks them while the table is mid-completion; enough of them to
    // grow the table's storage under the completing slot.
    std::vector<std::uint32_t> nested;
    auto parkMore = [this, &nested] {
        for (int i = 0; i < 64; ++i)
            nested.push_back(ms.parkRead(counted()));
    };

    // Fetch already back: the slot is released before the Done runs,
    // so the first nested read reuses it.
    std::uint32_t slot = ms.parkRead(parkMore);
    ms.speculate(slot, kAddr);
    eq.run();
    ms.serveFromFetch(slot);
    ASSERT_EQ(nested.size(), 64u);
    EXPECT_EQ(nested.front(), slot);
    for (std::uint32_t s : nested)
        ms.finishRead(s);
    EXPECT_EQ(fired, 64);

    // Fetch still out: the slot stays reserved for it while the Done
    // parks more reads, and is recycled when the fetch returns.
    nested.clear();
    slot = ms.parkRead(parkMore);
    ms.speculate(slot, kAddr);
    ms.finishRead(slot);
    ASSERT_EQ(nested.size(), 64u);
    for (std::uint32_t s : nested) {
        EXPECT_NE(s, slot);
        ms.finishRead(s);
    }
    eq.run();
    EXPECT_EQ(fired, 128);
    const std::uint32_t reuse = ms.parkRead(nullptr);
    EXPECT_EQ(reuse, slot) << "slot not recycled after the fetch";
    ms.finishRead(reuse);
}

} // namespace
} // namespace dapsim
