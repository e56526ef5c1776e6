/**
 * @file
 * Unit tests for the small-buffer callback (common/inline_callback.hh):
 * captures up to the inline buffer, move-only payloads, lifetime
 * accounting, and the pre-bound member form used by recurring
 * simulator events. A capture past the buffer is a compile error,
 * checked by the InlineCallback.OversizedCaptureIsACompileError ctest
 * (inline_callback_oversize.cc).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <memory>
#include <utility>

#include "common/inline_callback.hh"

namespace dapsim
{
namespace
{

/** Payload of a given size whose constructions/destructions are
 *  counted, so leaks and double-destroys show up as imbalance. */
template <std::size_t Bytes>
struct Tracked
{
    static int live;
    std::array<unsigned char, Bytes> pad{};
    int *hits;

    explicit Tracked(int *h) : hits(h) { ++live; }
    Tracked(const Tracked &o) : pad(o.pad), hits(o.hits) { ++live; }
    Tracked(Tracked &&o) noexcept : pad(o.pad), hits(o.hits) { ++live; }
    ~Tracked() { --live; }

    void operator()() { ++*hits; }
};

template <std::size_t Bytes>
int Tracked<Bytes>::live = 0;

template <std::size_t Bytes>
void
exerciseSize()
{
    int hits = 0;
    {
        InlineCallback cb{Tracked<Bytes>(&hits)};
        ASSERT_TRUE(static_cast<bool>(cb));
        cb();
        cb();

        // Move transfers the payload without duplicating it.
        InlineCallback moved(std::move(cb));
        EXPECT_FALSE(static_cast<bool>(cb));
        moved();

        InlineCallback assigned;
        assigned = std::move(moved);
        assigned();
    }
    EXPECT_EQ(hits, 4) << Bytes << "-byte capture";
    EXPECT_EQ(Tracked<Bytes>::live, 0) << Bytes << "-byte capture";
}

TEST(InlineCallback, CapturesUpToTheInlineBuffer)
{
    // Tracked<B> is B bytes of padding plus a pointer; Tracked<56>
    // fills kInlineCallbackBytes exactly.
    static_assert(sizeof(Tracked<56>) == kInlineCallbackBytes);
    exerciseSize<8>();
    exerciseSize<16>();
    exerciseSize<40>();
    exerciseSize<56>();
}

TEST(InlineCallback, EmptyStates)
{
    InlineCallback cb;
    EXPECT_FALSE(static_cast<bool>(cb));
    cb = InlineCallback(nullptr);
    EXPECT_FALSE(static_cast<bool>(cb));

    int hits = 0;
    cb = InlineCallback([&hits] { ++hits; });
    EXPECT_TRUE(static_cast<bool>(cb));
    cb();
    EXPECT_EQ(hits, 1);
    cb = nullptr;
    EXPECT_FALSE(static_cast<bool>(cb));
    cb.reset();
    EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InlineCallback, MoveOnlyCapture)
{
    // std::function rejects this; chained completion closures need it.
    auto value = std::make_unique<int>(41);
    int seen = 0;
    InlineCallback cb([v = std::move(value), &seen] { seen = *v + 1; });
    InlineCallback moved(std::move(cb));
    moved();
    EXPECT_EQ(seen, 42);
}

TEST(InlineCallback, NestedCallbackChains)
{
    // A callback capturing a smaller, move-only callback: the outer
    // capture is not trivially copyable, so moves relocate it through
    // its ops table, which relocates the inner one in turn.
    int fired = 0;
    BasicInlineCallback<16> inner([&fired] { fired += 1; });
    std::uint64_t salt = 7;
    InlineCallback outer(
        [&fired, salt, in = std::move(inner)] {
            fired += static_cast<int>(salt);
            in();
        });
    InlineCallback moved(std::move(outer));
    moved();
    EXPECT_EQ(fired, 8);
}

struct RecurringCounter
{
    int ticks = 0;
    void tick() { ++ticks; }
};

TEST(InlineCallback, PreBoundMemberReuse)
{
    // The recurring-event form: re-created every period, captures one
    // pointer, always inline. Simulate many reschedule rounds.
    RecurringCounter rc;
    for (int i = 0; i < 1000; ++i) {
        InlineCallback cb =
            InlineCallback::of<&RecurringCounter::tick>(&rc);
        cb();
    }
    EXPECT_EQ(rc.ticks, 1000);
}

} // namespace
} // namespace dapsim
