/**
 * @file
 * Unit tests for the deterministic event queue.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/event_queue.hh"
#include "common/rng.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
extern "C" std::size_t __sanitizer_get_current_allocated_bytes();
#endif

namespace dapsim
{
namespace
{

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakInInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleAfter(50, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int n = 0;
    eq.schedule(1, [&] { ++n; });
    eq.schedule(2, [&] { ++n; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(n, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(n, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, RunRespectsLimit)
{
    EventQueue eq;
    int n = 0;
    eq.schedule(10, [&] { ++n; });
    eq.schedule(1000, [&] { ++n; });
    eq.run(100);
    EXPECT_EQ(n, 1);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, RunUntilStopsOnPredicate)
{
    EventQueue eq;
    int n = 0;
    for (Tick t = 1; t <= 10; ++t)
        eq.schedule(t, [&] { ++n; });
    eq.runUntil([&] { return n >= 3; });
    EXPECT_EQ(n, 3);
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100)
            eq.scheduleAfter(1, [&chain] { chain(); });
    };
    eq.schedule(0, [&chain] { chain(); });
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.now(), 99u);
    EXPECT_EQ(eq.executed(), 100u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "past");
}

/** Heap bytes this process has in use; 0 where the allocator cannot
 *  say. Sanitizer runtimes replace malloc, so ask theirs. */
std::size_t
heapInUse()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return __sanitizer_get_current_allocated_bytes();
#elif defined(__GLIBC__)
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
#else
    return 0;
#endif
}

TEST(EventQueue, StormStorageIsBoundedByPeakPending)
{
    // Over >1M events with ~1k pending, the queue's storage must
    // follow the pending population, not the run length. Chains
    // self-reschedule across the wheel window; now and then one drops
    // a 64-event same-tick burst into a single bucket, so storage kept
    // per slot would grow to a burst's worth in every slot. Then one
    // chain reschedules itself at its own tick 500k times: the run
    // must not keep an index per event it drained.
    struct Storm
    {
        EventQueue eq;
        Rng rng{1};
        std::uint64_t fired = 0;
        std::uint64_t budget = 1'200'000;

        void
        chain()
        {
            if (++fired >= budget)
                return;
            if (rng.below(1024) == 0) {
                const Tick at = eq.now() + 1 + rng.below(200'000);
                for (int i = 0; i < 64; ++i)
                    eq.schedule(at, [this] { ++fired; });
            }
            eq.scheduleAfter(1 + rng.below(20'000), [this] { chain(); });
        }

        void
        sameTick(std::uint64_t left)
        {
            if (left > 0)
                eq.scheduleAfter(0, [this, left] { sameTick(left - 1); });
        }
    };
    auto storm = std::make_unique<Storm>();
    const std::size_t before = heapInUse();
    if (before == 0)
        GTEST_SKIP() << "no heap statistics on this platform";
    for (int c = 0; c < 512; ++c)
        storm->eq.schedule(1 + storm->rng.below(20'000),
                           [s = storm.get()] { s->chain(); });
    storm->eq.run();
    storm->sameTick(500'000);
    storm->eq.run();
    const std::size_t after = heapInUse();
    const std::size_t grown = after > before ? after - before : 0;

    EXPECT_GE(storm->eq.executed(), storm->budget + 500'000);
    EXPECT_EQ(storm->eq.pending(), 0u);
    const std::size_t peak = storm->eq.peakPending();
    EXPECT_LT(peak, 2048u);
    // A node (key, link, callback) is ~100 bytes: allow for vector
    // doubling of the slab and of the run and overflow arrays, plus
    // slack for allocator caches.
    EXPECT_LE(grown, peak * 256 + (std::size_t(128) << 10))
        << "peak " << peak << " pending";
}

} // namespace
} // namespace dapsim
