/**
 * @file
 * Unit tests for SlotPool (common/slot_pool.hh): LIFO slot reuse,
 * indices that survive the storage growing under them, and parked
 * values destroyed with the pool.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/inline_callback.hh"
#include "common/slot_pool.hh"

namespace dapsim
{
namespace
{

TEST(SlotPool, ReusesTheLastReleasedSlotFirst)
{
    SlotPool<int> pool;
    const std::uint32_t a = pool.put(10);
    const std::uint32_t b = pool.put(20);
    const std::uint32_t c = pool.put(30);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(c, 2u);

    pool.release(a);
    EXPECT_EQ(pool.take(c), 30); // take releases too
    // LIFO: the last slot released comes back first, then the one
    // before it; only then does the storage grow.
    EXPECT_EQ(pool.put(31), c);
    EXPECT_EQ(pool.put(11), a);
    EXPECT_EQ(pool.put(40), 3u);
    EXPECT_EQ(pool[a], 11);
    EXPECT_EQ(pool[b], 20);
    EXPECT_EQ(pool[c], 31);
    EXPECT_EQ(pool[3], 40);
}

TEST(SlotPool, IndexStaysValidWhilePutGrowsTheStorage)
{
    SlotPool<std::string> pool;
    pool.reserve(4);
    const std::uint32_t first = pool.put(std::string(48, 'x'));
    const std::string *slot0 = &pool[first];
    for (int i = 1; i < 4; ++i)
        pool.put(std::to_string(i));
    EXPECT_EQ(&pool[first], slot0) << "reserve(4) held four values";

    // Growing past the reservation moves every value; the index still
    // finds the first one.
    for (int i = 4; i < 1000; ++i)
        pool.put(std::to_string(i));
    EXPECT_EQ(pool[first], std::string(48, 'x'));
    EXPECT_EQ(pool[999], "999");
    EXPECT_EQ(pool.take(first), std::string(48, 'x'));
    EXPECT_EQ(pool.put("again"), first);
}

TEST(SlotPool, ParkedValuesAreDestroyedWithThePool)
{
    auto parked = std::make_shared<int>(1);
    auto released = std::make_shared<int>(2);
    auto taken = std::make_shared<int>(3);
    const std::weak_ptr<int> wParked = parked;
    const std::weak_ptr<int> wReleased = released;
    const std::weak_ptr<int> wTaken = taken;
    {
        SlotPool<std::shared_ptr<int>> pool;
        pool.put(std::move(parked));
        const std::uint32_t r = pool.put(std::move(released));
        const std::uint32_t t = pool.put(std::move(taken));
        pool.take(t); // moved out and dropped here
        EXPECT_TRUE(wTaken.expired());
        // A released slot keeps its value until a put overwrites it.
        pool.release(r);
        EXPECT_FALSE(wReleased.expired());
        EXPECT_FALSE(wParked.expired());
    }
    EXPECT_TRUE(wParked.expired());
    EXPECT_TRUE(wReleased.expired());
}

TEST(SlotPool, ParksMoveOnlyCallbacks)
{
    // The Channel's use: completion callbacks parked while queued.
    SlotPool<InlineCallback> pool;
    int fired = 0;
    const std::uint32_t a = pool.put([&fired] { fired += 1; });
    const std::uint32_t b = pool.put([&fired] { fired += 10; });
    pool.take(b)();
    InlineCallback cb = pool.take(a);
    EXPECT_EQ(fired, 10);
    cb();
    EXPECT_EQ(fired, 11);
    // A fresh one-byte capture moved into the pool in the same scope:
    // the move copies the whole buffer, so no byte of it may be
    // uninitialized (GCC's -Wmaybe-uninitialized under -Werror).
    EXPECT_EQ(pool.put([] {}), a);
}

} // namespace
} // namespace dapsim
