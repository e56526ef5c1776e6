/**
 * @file
 * Differential fuzz harness for the timing-wheel event queue.
 *
 * Drives the production EventQueue and the frozen binary-heap
 * reference (tests/reference_event_queue.hh) with byte-identical
 * random schedules — same-tick bursts, in-window deltas, deltas that
 * straddle the wheel horizon, far-future refresh-like periods, and
 * limit-bounded run phases with re-injection at the current tick —
 * and requires the two dispatch logs to match exactly. Any divergence
 * in (tick, insertion-order) dispatch is a wheel bug by definition.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "reference_event_queue.hh"

namespace dapsim
{
namespace
{

/** One fuzz run against queue type Q: every rng draw depends only on
 *  the schedule so far, so EventQueue and RefEventQueue consume the
 *  identical decision stream. */
template <class Q>
struct Driver
{
    Q eq;
    Rng rng;
    std::vector<std::pair<Tick, std::uint64_t>> log;
    std::uint64_t nextId = 0;
    std::uint64_t budget;

    Driver(std::uint64_t seed, std::uint64_t event_budget)
        : rng(seed), budget(event_budget)
    {
        log.reserve(event_budget + 64);
    }

    void
    spawn(Tick when)
    {
        const std::uint64_t id = nextId++;
        eq.schedule(when, [this, id] { fire(id); });
    }

    void
    fire(std::uint64_t id)
    {
        log.emplace_back(eq.now(), id);
        const std::uint64_t kids = rng.below(3);
        for (std::uint64_t k = 0; k < kids && budget > 0; ++k) {
            --budget;
            const std::uint64_t r = rng.below(100);
            Tick delta;
            if (r < 15) {
                delta = 0; // same-tick burst
            } else if (r < 65) {
                // Well inside the wheel window (~1.05 us).
                delta = 1 + rng.below(500'000);
            } else if (r < 90) {
                // Straddles the window boundary back and forth.
                delta = 1 + rng.below(3'000'000);
            } else {
                // Refresh/sampler-like far future (overflow heap).
                delta = 7'812'500 + rng.below(30'000'000);
            }
            spawn(eq.now() + delta);
        }
    }

    /** Run in limit-bounded phases with top-up injection, then drain. */
    void
    go()
    {
        for (int i = 0; i < 40 && budget > 0; ++i) {
            --budget;
            spawn(rng.below(2'000'000));
        }
        for (int phase = 0; phase < 30; ++phase) {
            eq.run(eq.now() + rng.below(5'000'000));
            (void)eq.nextEventTick(); // peek must not perturb state
            for (int j = 0; j < 3 && budget > 0; ++j) {
                --budget;
                // Includes when == now(): the post-limit same-tick path.
                spawn(eq.now() + rng.below(2'000'000));
            }
        }
        eq.run();
    }
};

TEST(EventWheelFuzz, MatchesReferenceHeapAcrossSeeds)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Driver<EventQueue> wheel(seed, 20'000);
        Driver<RefEventQueue> heap(seed, 20'000);
        wheel.go();
        heap.go();
        ASSERT_EQ(wheel.log.size(), heap.log.size()) << "seed " << seed;
        for (std::size_t i = 0; i < wheel.log.size(); ++i) {
            ASSERT_EQ(wheel.log[i], heap.log[i])
                << "seed " << seed << " event " << i;
        }
        EXPECT_EQ(wheel.eq.pending(), 0u);
        EXPECT_EQ(wheel.eq.executed(), heap.eq.executed());
    }
}

TEST(EventWheelFuzz, WindowBoundaryAndWrapDeltas)
{
    // Deterministic deltas targeting the wheel's edges: quantum
    // boundaries, the exact horizon (4096 slots x 256 ps), one past
    // it, multiple wraps, and bitmap word boundaries.
    const std::vector<Tick> deltas = {
        1,         255,       256,        257,        63 * 256,
        64 * 256,  65 * 256,  4095 * 256, 4096 * 256, 4096 * 256 + 1,
        2 * 4096 * 256, 10 * 4096 * 256, 1'000'000'000'000ull,
    };

    auto runOn = [&](auto &eq) {
        std::vector<std::pair<Tick, int>> log;
        int id = 0;
        for (int round = 0; round < 3; ++round)
            for (Tick d : deltas) {
                const int i = id++;
                eq.schedule(eq.now() + d,
                            [&log, &eq, i] {
                                log.emplace_back(eq.now(), i);
                            });
            }
        eq.run();
        return log;
    };

    EventQueue wheel;
    RefEventQueue heap;
    EXPECT_EQ(runOn(wheel), runOn(heap));
}

TEST(EventWheelFuzz, SameTickSelfRescheduleStaysOrdered)
{
    // An event that schedules more work at its own tick must see that
    // work run in the same dispatch round, after already-queued peers.
    auto runOn = [](auto &eq) {
        std::vector<int> order;
        eq.schedule(100, [&] {
            order.push_back(0);
            eq.schedule(100, [&] { order.push_back(2); });
        });
        eq.schedule(100, [&] { order.push_back(1); });
        eq.schedule(200, [&] { order.push_back(3); });
        eq.run();
        return order;
    };
    EventQueue wheel;
    RefEventQueue heap;
    EXPECT_EQ(runOn(wheel), runOn(heap));
}

/**
 * Like Driver, but every callback carries a wider capture: 16, 40 or
 * 64 bytes (the whole inline buffer), all trivially copyable, as every
 * InlineCallback capture must be. Now and then an event schedules a
 * burst that grows the node slab while it runs, then re-checks its own
 * captures. The reference heap (std::function) gets the same captures;
 * both consume the identical decision stream.
 */
template <class Q>
struct CaptureDriver
{
    static constexpr bool kWheel = std::is_same_v<Q, EventQueue>;

    Q eq;
    Rng rng;
    std::vector<std::pair<Tick, std::uint64_t>> log;
    std::uint64_t nextId = 0;
    std::uint64_t budget;
    std::uint64_t burstSize = 32;
    /** Bursts that raised peakPending(), i.e. grew the slab. */
    int grownInside = 0;

    CaptureDriver(std::uint64_t seed, std::uint64_t event_budget)
        : rng(seed), budget(event_budget)
    {
    }

    void
    spawn(Tick when)
    {
        const std::uint64_t id = nextId++;
        // Each callback re-checks its captures after fire(), which may
        // have grown the slab under it.
        switch (id % 3) {
        case 0: { // 16 bytes: this, a 32-bit id and its complement
            const auto id32 = static_cast<std::uint32_t>(id);
            const std::uint32_t check = ~id32;
            auto f = [this, id32, check] {
                fire(id32);
                EXPECT_EQ(check, ~id32);
            };
            static_assert(sizeof(f) == 16);
            eq.schedule(when, f);
            break;
        }
        case 1: { // 40 bytes: this, id and 24 bytes of payload
            std::array<std::uint64_t, 3> pad{};
            pad.fill(id * 7);
            auto f = [this, id, pad] {
                fire(id);
                EXPECT_EQ(pad[0], id * 7);
                EXPECT_EQ(pad[2], id * 7);
            };
            static_assert(sizeof(f) == 40);
            eq.schedule(when, f);
            break;
        }
        default: { // 64 bytes: this, id and 48 bytes of payload
            std::array<std::uint64_t, 6> pad{};
            for (std::size_t i = 0; i < pad.size(); ++i)
                pad[i] = ~id + i;
            auto f = [this, id, pad] {
                fire(id);
                for (std::size_t i = 0; i < pad.size(); ++i)
                    EXPECT_EQ(pad[i], ~id + i);
            };
            static_assert(sizeof(f) == kInlineCallbackBytes);
            eq.schedule(when, f);
            break;
        }
        }
    }

    void
    fire(std::uint64_t id)
    {
        log.emplace_back(eq.now(), id);
        std::uint64_t kids = rng.below(3);
        const bool burst = rng.below(400) == 0;
        if (burst) {
            // A growing burst: each one outgrows the slab so far.
            kids = burstSize;
            burstSize += burstSize / 2;
        }
        std::size_t peakBefore = 0;
        if constexpr (kWheel)
            peakBefore = eq.peakPending();
        for (std::uint64_t k = 0; k < kids && budget > 0; ++k) {
            --budget;
            const std::uint64_t r = rng.below(100);
            Tick delta;
            if (r < 20)
                delta = 0;
            else if (r < 80)
                delta = 1 + rng.below(500'000);
            else
                delta = 1 + rng.below(30'000'000);
            spawn(eq.now() + delta);
        }
        if constexpr (kWheel)
            grownInside += burst && eq.peakPending() > peakBefore;
    }

    /** Run in limit-bounded phases with top-ups; leave events pending
     *  so the queue is destroyed with run, wheel and overflow nodes. */
    void
    go()
    {
        for (int i = 0; i < 64 && budget > 0; ++i) {
            --budget;
            spawn(rng.below(1'000'000));
        }
        for (int phase = 0; phase < 40; ++phase) {
            eq.run(eq.now() + rng.below(4'000'000));
            for (int j = 0; j < 8 && budget > 0; ++j) {
                --budget;
                spawn(eq.now() + rng.below(1'000'000));
            }
        }
        for (int j = 0; j < 24; ++j)
            spawn(eq.now() + rng.below(8'000'000));
    }
};

TEST(EventWheelFuzz, WideCapturesRunInOrderAcrossSlabGrowth)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        CaptureDriver<EventQueue> wheel(seed, 30'000);
        CaptureDriver<RefEventQueue> heap(seed, 30'000);
        wheel.go();
        heap.go();
        ASSERT_EQ(wheel.log, heap.log) << "seed " << seed;
        EXPECT_EQ(wheel.eq.pending(), heap.eq.pending());
        EXPECT_GT(wheel.eq.pending(), 0u) << "seed " << seed;
        EXPECT_GT(wheel.eq.peakPending(), 64u);
        EXPECT_GT(wheel.grownInside, 0) << "no burst grew the slab";
    }
}

} // namespace
} // namespace dapsim
