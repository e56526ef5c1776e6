/**
 * @file
 * Unit tests for the small-buffer callback (common/inline_callback.hh):
 * trivially copyable captures up to the inline buffer, moves that
 * leave the source empty, and the pre-bound member form used by
 * recurring simulator events. A capture past the buffer, or one that
 * is not trivially copyable, is a compile error, checked by the
 * InlineCallback.OversizedCaptureIsACompileError and
 * InlineCallback.NonTrivialCaptureIsACompileError ctests
 * (inline_callback_oversize.cc, inline_callback_nontrivial.cc).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "common/inline_callback.hh"

namespace dapsim
{
namespace
{

/** Trivially copyable payload: B bytes of patterned padding plus a
 *  counter pointer. A call counts only if every byte arrived intact. */
template <std::size_t Bytes>
struct Payload
{
    std::array<unsigned char, Bytes> pad{};
    int *hits;

    static unsigned char
    pattern(std::size_t i)
    {
        return static_cast<unsigned char>(i * 7 + 1);
    }

    explicit Payload(int *h) : hits(h)
    {
        for (std::size_t i = 0; i < Bytes; ++i)
            pad[i] = pattern(i);
    }

    void
    operator()() const
    {
        for (std::size_t i = 0; i < Bytes; ++i)
            if (pad[i] != pattern(i))
                return;
        ++*hits;
    }
};

template <std::size_t Bytes>
void
exerciseSize()
{
    static_assert(std::is_trivially_copyable_v<Payload<Bytes>>);
    int hits = 0;
    InlineCallback cb{Payload<Bytes>(&hits)};
    ASSERT_TRUE(static_cast<bool>(cb));
    cb();
    cb();

    // A move carries the payload over and leaves the source empty.
    InlineCallback moved(std::move(cb));
    EXPECT_FALSE(static_cast<bool>(cb));
    moved();

    InlineCallback assigned;
    assigned = std::move(moved);
    EXPECT_FALSE(static_cast<bool>(moved));
    assigned();

    // A self-move keeps the callable.
    InlineCallback &alias = assigned;
    assigned = std::move(alias);
    ASSERT_TRUE(static_cast<bool>(assigned));
    assigned();
    EXPECT_EQ(hits, 5) << Bytes << "-byte capture";
}

TEST(InlineCallback, CapturesUpToTheInlineBuffer)
{
    // Payload<B> is B bytes of padding plus a pointer; Payload<56>
    // fills kInlineCallbackBytes exactly.
    static_assert(sizeof(Payload<56>) == kInlineCallbackBytes);
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

TEST(InlineCallback, MovesHandOverOneCallableThatFiresOnce)
{
    // The parked-read rule "a Done fires exactly once" rests on these:
    // no copies, and every move empties its source.
    static_assert(!std::is_copy_constructible_v<InlineCallback>);
    static_assert(!std::is_copy_assignable_v<InlineCallback>);
    static_assert(std::is_nothrow_move_constructible_v<InlineCallback>);
    static_assert(std::is_nothrow_move_assignable_v<InlineCallback>);
    // The buffer and one invoke pointer, padded to the buffer's
    // alignment: 80 bytes on x86-64.
    static_assert(sizeof(InlineCallback) ==
                  kInlineCallbackBytes + alignof(std::max_align_t));

    int fired = 0;
    std::array<InlineCallback, 4> hops;
    hops[0] = InlineCallback([&fired] { fired += 1; });
    // A move onto a full callback replaces its callable.
    hops[2] = InlineCallback([&fired] { fired += 100; });
    for (std::size_t i = 1; i < hops.size(); ++i)
        hops[i] = std::move(hops[i - 1]);
    for (std::size_t i = 0; i + 1 < hops.size(); ++i)
        EXPECT_FALSE(static_cast<bool>(hops[i])) << "hop " << i;
    for (const InlineCallback &cb : hops)
        if (cb)
            cb();
    EXPECT_EQ(fired, 1);
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
