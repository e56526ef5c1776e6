/**
 * @file
 * Unit tests for the channel queues' ring buffer (common/ring_deque.hh):
 * a random mix of push_back, pop_front, positional erase and clear
 * checked element by element against std::deque, the two contiguous
 * runs the scan loops walk, and a reserve that rounds up to a power of
 * two and never shrinks or moves a queue it already fits.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <random>

#include "common/ring_deque.hh"

namespace dapsim
{
namespace
{

/** A plain record the size of `Channel::HotReq`. */
struct Rec
{
    std::uint64_t a;
    std::uint64_t b;
    std::uint64_t c;
    std::uint32_t d;
    std::uint32_t e;
};

Rec
rec(std::uint64_t v)
{
    return Rec{v, ~v, v * 3, static_cast<std::uint32_t>(v),
               static_cast<std::uint32_t>(v >> 7)};
}

bool
same(const Rec &x, const Rec &y)
{
    return x.a == y.a && x.b == y.b && x.c == y.c && x.d == y.d &&
        x.e == y.e;
}

void
expectMatches(const RingDeque<Rec> &ring, const std::deque<Rec> &ref,
              int step)
{
    ASSERT_EQ(ring.size(), ref.size()) << "step " << step;
    ASSERT_EQ(ring.empty(), ref.empty()) << "step " << step;
    const std::size_t cap = ring.capacity();
    ASSERT_GE(cap, ring.size()) << "step " << step;
    if (cap) {
        ASSERT_EQ(cap & (cap - 1), 0u) << "step " << step;
    }
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_TRUE(same(ring[i], ref[i])) << "step " << step << " i " << i;

    // seg0 then seg1 hold the elements in order, and seg1 is used only
    // when seg0 runs into the end of the storage.
    const auto [p0, n0] = ring.seg0();
    const auto [p1, n1] = ring.seg1();
    ASSERT_EQ(n0 + n1, ref.size()) << "step " << step;
    if (n1) {
        ASSERT_EQ(p0 + n0, p1 + cap) << "step " << step;
    }
    for (std::size_t i = 0; i < n0; ++i)
        ASSERT_TRUE(same(p0[i], ref[i])) << "step " << step;
    for (std::size_t i = 0; i < n1; ++i)
        ASSERT_TRUE(same(p1[i], ref[n0 + i])) << "step " << step;
}

TEST(RingDeque, MatchesDequeAcrossWrapGrowthAndErase)
{
    for (std::uint32_t seed = 1; seed <= 8; ++seed) {
        std::mt19937 rng(seed);
        RingDeque<Rec> ring;
        std::deque<Rec> ref;
        std::uint64_t next = 0;
        std::size_t lastCap = 0;
        for (int step = 0; step < 4000; ++step) {
            const unsigned op = rng() % 16;
            if (op < 8) {
                const Rec r = rec(next++);
                ring.push_back(r);
                ref.push_back(r);
            } else if (op < 11) {
                if (!ref.empty()) {
                    ring.pop_front();
                    ref.pop_front();
                }
            } else if (op < 15) {
                if (!ref.empty()) {
                    const std::size_t i = rng() % ref.size();
                    ring.erase(i);
                    ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
                }
            } else if (rng() % 64 == 0) {
                ring.clear();
                ref.clear();
            }
            if (!ref.empty()) {
                ASSERT_TRUE(same(ring.front(), ref.front()));
                ASSERT_TRUE(same(ring.back(), ref.back()));
            }
            // Capacity only grows, including across clear().
            ASSERT_GE(ring.capacity(), lastCap) << "seed " << seed;
            lastCap = ring.capacity();
            expectMatches(ring, ref, step);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(RingDeque, ReserveRoundsUpAndNeverMovesAQueueItFits)
{
    RingDeque<Rec> ring;
    EXPECT_EQ(ring.capacity(), 0u);
    ring.reserve(5);
    EXPECT_EQ(ring.capacity(), 8u);
    ring.reserve(9);
    EXPECT_EQ(ring.capacity(), 16u);
    ring.reserve(3);
    EXPECT_EQ(ring.capacity(), 16u);

    // Wrap the head past the end of the storage, then fill it: a queue
    // within its reservation keeps its storage and its order.
    std::deque<Rec> ref;
    for (std::uint64_t v = 0; v < 11; ++v) {
        ring.push_back(rec(v));
        ref.push_back(rec(v));
    }
    for (int i = 0; i < 11; ++i) {
        ring.pop_front();
        ref.pop_front();
    }
    const Rec *base = ring.seg0().first - 11;
    for (std::uint64_t v = 100; v < 116; ++v) {
        ring.push_back(rec(v));
        ref.push_back(rec(v));
    }
    EXPECT_EQ(ring.capacity(), 16u);
    EXPECT_EQ(ring.seg1().first, base);
    expectMatches(ring, ref, 0);

    // One more element doubles the storage and unwraps the ring.
    ring.push_back(rec(116));
    ref.push_back(rec(116));
    EXPECT_EQ(ring.capacity(), 32u);
    EXPECT_EQ(ring.seg1().second, 0u);
    expectMatches(ring, ref, 1);

    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), 32u);
}

} // namespace
} // namespace dapsim
