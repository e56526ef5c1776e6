/**
 * @file
 * Differential fuzz suite for the SoA AssocCache rewrite.
 *
 * Replays pinned-RNG access streams through the production
 * structure-of-arrays directory and the frozen array-of-structures
 * reference (tests/reference_assoc_cache.hh), asserting identical
 * hits, victims, occupancy, flush order and checkpoint bytes at every
 * step, across LRU/NRU and a grid of geometries — for the
 * tag-addressed API and for the single-scan way ops. Also pins the
 * bulk-span encode/decode (raw and per-element value paths) as a
 * lossless round trip of the full directory state.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "cache/assoc_cache.hh"
#include "ckpt/serializer.hh"
#include "common/rng.hh"
#include "reference_assoc_cache.hh"

namespace dapsim
{
namespace
{

/** Checkpoint both directories and compare the byte streams. */
template <typename Soa, typename Ref>
void
expectSameCkptBytes(const Soa &soa, const Ref &ref)
{
    ckpt::Serializer a;
    ckpt::Serializer b;
    soa.save(a, [](ckpt::Serializer &s, const int &v) {
        s.u64(static_cast<std::uint64_t>(v));
    });
    ref.save(b, [](ckpt::Serializer &s, const int &v) {
        s.u64(static_cast<std::uint64_t>(v));
    });
    ASSERT_EQ(a.buffer(), b.buffer());
}

struct Geometry
{
    std::uint64_t sets;
    std::uint32_t ways;
};

class AssocCacheDiff
    : public ::testing::TestWithParam<std::tuple<Geometry, ReplPolicy>>
{
};

TEST_P(AssocCacheDiff, StreamsAreBitIdentical)
{
    const auto [geo, policy] = GetParam();
    AssocCache<int> soa(geo.sets, geo.ways, policy);
    RefAssocCache<int> ref(geo.sets, geo.ways, policy);

    // Seed differs per geometry/policy so the streams diverge.
    Rng rng(0xd1ffe4 + geo.sets * 131 + geo.ways * 7 +
            (policy == ReplPolicy::NRU ? 1 : 0));
    // Tag universe ~2x the capacity: plenty of hits AND evictions.
    const std::uint64_t tagSpace = 2 * geo.ways + 3;

    for (int step = 0; step < 6000; ++step) {
        const std::uint64_t set = rng.below(geo.sets);
        const std::uint64_t tag = rng.below(tagSpace);
        switch (rng.below(100)) {
          case 0 ... 39: { // lookup (+ touch on hit, like real callers)
            int *a = soa.find(set, tag);
            int *b = ref.find(set, tag);
            ASSERT_EQ(a == nullptr, b == nullptr) << "step " << step;
            if (a != nullptr) {
                ASSERT_EQ(*a, *b) << "step " << step;
                soa.touch(set, tag);
                ref.touch(set, tag);
            }
            break;
          }
          case 40 ... 79: { // insert if absent
            if (soa.find(set, tag) != nullptr)
                break;
            const int v = static_cast<int>(rng.below(1 << 20));
            const auto va = soa.insert(set, tag, v);
            const auto vb = ref.insert(set, tag, v);
            ASSERT_EQ(va.valid, vb.valid) << "step " << step;
            if (va.valid) {
                ASSERT_EQ(va.tag, vb.tag) << "step " << step;
                ASSERT_EQ(va.value, vb.value) << "step " << step;
            }
            break;
          }
          case 80 ... 89: { // erase
            ASSERT_EQ(soa.erase(set, tag), ref.erase(set, tag))
                << "step " << step;
            break;
          }
          case 90 ... 94: { // occupancy probe
            ASSERT_EQ(soa.occupancy(set), ref.occupancy(set))
                << "step " << step;
            break;
          }
          default: { // flushSet: identical visit order and content
            std::vector<std::pair<std::uint64_t, int>> a, b;
            soa.flushSet(set, [&](std::uint64_t t, int &v) {
                a.emplace_back(t, v);
            });
            ref.flushSet(set, [&](std::uint64_t t, int &v) {
                b.emplace_back(t, v);
            });
            ASSERT_EQ(a, b) << "step " << step;
            break;
          }
        }
        if (step % 500 == 499)
            expectSameCkptBytes(soa, ref);
    }

    // Final state: forEach visit parity and checkpoint bytes.
    std::vector<std::tuple<std::uint64_t, std::uint64_t, int>> a, b;
    soa.forEach([&](std::uint64_t s, std::uint64_t t, int &v) {
        a.emplace_back(s, t, v);
    });
    ref.forEach([&](std::uint64_t s, std::uint64_t t, int &v) {
        b.emplace_back(s, t, v);
    });
    EXPECT_EQ(a, b);
    expectSameCkptBytes(soa, ref);
}

/** Cross-restore: SoA state restored from the reference's bytes
 *  continues bit-identically. */
TEST_P(AssocCacheDiff, CrossRestoreContinuesIdentically)
{
    const auto [geo, policy] = GetParam();
    AssocCache<int> soa(geo.sets, geo.ways, policy);
    RefAssocCache<int> ref(geo.sets, geo.ways, policy);

    Rng rng(0xc0ffee + geo.sets + geo.ways);
    const std::uint64_t tagSpace = 2 * geo.ways + 3;
    auto drive = [&](auto &c, Rng r, int n) {
        for (int i = 0; i < n; ++i) {
            const std::uint64_t set = r.below(geo.sets);
            const std::uint64_t tag = r.below(tagSpace);
            if (c.find(set, tag) != nullptr)
                c.touch(set, tag);
            else
                c.insert(set, tag, static_cast<int>(tag));
        }
    };
    drive(ref, rng, 1500);

    // Restore the SoA directory from the reference's bytes mid-stream.
    ckpt::Serializer s;
    ref.save(s, [](ckpt::Serializer &sr, const int &v) {
        sr.u64(static_cast<std::uint64_t>(v));
    });
    ckpt::Deserializer d(s.buffer());
    soa.restore(d, [](ckpt::Deserializer &dr, int &v) {
        v = static_cast<int>(dr.u64());
    });
    ASSERT_TRUE(d.atEnd());
    expectSameCkptBytes(soa, ref);

    // Both sides then replay the same continuation stream.
    Rng cont(0xfeed);
    drive(soa, cont, 1500);
    drive(ref, cont, 1500);
    expectSameCkptBytes(soa, ref);
}

/** Bulk-span round trip preserves the complete directory state
 *  (raw value path: int has unique object representations). */
TEST_P(AssocCacheDiff, V2RoundTripIsLossless)
{
    const auto [geo, policy] = GetParam();
    AssocCache<int> c(geo.sets, geo.ways, policy);

    Rng rng(0x2222 + geo.sets * 3 + geo.ways);
    const std::uint64_t tagSpace = 2 * geo.ways + 3;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t set = rng.below(geo.sets);
        const std::uint64_t tag = rng.below(tagSpace);
        if (c.find(set, tag) != nullptr)
            c.touch(set, tag);
        else if (rng.chance(0.1))
            c.erase(set, tag);
        else
            c.insert(set, tag, static_cast<int>(rng.below(1000)));
    }

    ckpt::Serializer a;
    auto saveInt = [](ckpt::Serializer &s, const int &v) {
        s.u64(static_cast<std::uint64_t>(v));
    };
    auto loadInt = [](ckpt::Deserializer &d, int &v) {
        v = static_cast<int>(d.u64());
    };
    c.save(a, saveInt);

    AssocCache<int> back(geo.sets, geo.ways, policy);
    ckpt::Deserializer d(a.buffer());
    back.restore(d, loadInt);
    ASSERT_TRUE(d.atEnd());

    // Every tag, valid/NRU bit, lastUse and value (stale ways
    // included) must survive: the restored copy saves the same bytes.
    ckpt::Serializer b;
    back.save(b, saveInt);
    EXPECT_EQ(a.buffer(), b.buffer());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AssocCacheDiff,
    ::testing::Combine(
        ::testing::Values(Geometry{1, 1}, Geometry{4, 2},
                          Geometry{8, 4}, Geometry{16, 16},
                          Geometry{64, 3}, Geometry{2, 64}),
        ::testing::Values(ReplPolicy::LRU, ReplPolicy::NRU)));

/**
 * The single-scan way ops (lookup, touchWay, valueAt, insertAbsent)
 * the warm path and the tag cache use must leave exactly the state of
 * the reference's tag-addressed find/touch/insert chains, including
 * the sectored warm touch's insert-then-touch of a missing line.
 */
class AssocCacheWayOpsDiff
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, ReplPolicy>>
{
};

TEST_P(AssocCacheWayOpsDiff, SingleScanOpsMatchReference)
{
    const auto [ways, policy] = GetParam();
    const std::uint64_t sets = 16;
    AssocCache<int> soa(sets, ways, policy);
    RefAssocCache<int> ref(sets, ways, policy);

    Rng rng(0x5ca1 + ways * 17 + (policy == ReplPolicy::NRU ? 1 : 0));
    const std::uint64_t tagSpace = 2 * ways + 3;
    for (int step = 0; step < 8000; ++step) {
        const std::uint64_t set = rng.below(sets);
        const std::uint64_t tag = rng.below(tagSpace);
        const int v = static_cast<int>(rng.below(1 << 20));
        std::uint32_t w = soa.lookup(set, tag);
        int *r = ref.find(set, tag);
        ASSERT_EQ(w == soa.kNoWay, r == nullptr) << "step " << step;
        if (w != soa.kNoWay) {
            // Hit: read, touch and update by way.
            ASSERT_EQ(soa.valueAt(set, w), *r) << "step " << step;
            soa.touchWay(set, w);
            ref.touch(set, tag);
            if (rng.chance(0.3)) {
                soa.valueAt(set, w) = v;
                *ref.find(set, tag) = v;
            }
        } else if (rng.below(10) != 0) {
            // Miss: fill by way, sometimes touched again at once as
            // the sectored and eDRAM warm touches do.
            const auto va = soa.insertAbsent(set, tag, v, w);
            const auto vb = ref.insert(set, tag, v);
            ASSERT_EQ(va.valid, vb.valid) << "step " << step;
            if (va.valid) {
                ASSERT_EQ(va.tag, vb.tag) << "step " << step;
                ASSERT_EQ(va.value, vb.value) << "step " << step;
            }
            ASSERT_EQ(soa.lookup(set, tag), w) << "step " << step;
            ASSERT_EQ(soa.valueAt(set, w), v) << "step " << step;
            if (rng.chance(0.5)) {
                soa.touchWay(set, w);
                ref.touch(set, tag);
            }
        } else {
            ASSERT_EQ(soa.erase(set, tag), ref.erase(set, tag))
                << "step " << step;
        }
        if (step % 400 == 399)
            expectSameCkptBytes(soa, ref);
    }
    expectSameCkptBytes(soa, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Ways, AssocCacheWayOpsDiff,
    ::testing::Combine(::testing::Values(1u, 4u, 16u),
                       ::testing::Values(ReplPolicy::LRU,
                                         ReplPolicy::NRU)));

/** Value type with interior padding: save must take the per-element
 *  stream fallback (encoding tag 0) and still round-trip. */
struct Padded
{
    std::uint8_t a = 0;
    std::uint64_t b = 0;
    bool operator==(const Padded &) const = default;
};
static_assert(!std::has_unique_object_representations_v<Padded>);

TEST(AssocCacheDiffV2, PaddedValuesUseStreamFallback)
{
    AssocCache<Padded> c(8, 4, ReplPolicy::NRU);
    Rng rng(77);
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t set = rng.below(8);
        const std::uint64_t tag = rng.below(11);
        if (c.find(set, tag) == nullptr)
            c.insert(set, tag,
                     Padded{static_cast<std::uint8_t>(tag), tag * 3});
        else
            c.touch(set, tag);
    }
    auto savePadded = [](ckpt::Serializer &s, const Padded &v) {
        s.u8(v.a);
        s.u64(v.b);
    };
    auto loadPadded = [](ckpt::Deserializer &d, Padded &v) {
        v.a = d.u8();
        v.b = d.u64();
    };
    ckpt::Serializer a;
    c.save(a, savePadded);

    AssocCache<Padded> back(8, 4, ReplPolicy::NRU);
    ckpt::Deserializer d(a.buffer());
    back.restore(d, loadPadded);
    ASSERT_TRUE(d.atEnd());

    ckpt::Serializer b;
    back.save(b, savePadded);
    EXPECT_EQ(a.buffer(), b.buffer());
}

/** The explicit LRU tie-break contract: equal lastUse picks the
 *  lowest-numbered way. Constructs the tie via restore. */
TEST(AssocCacheDiffV2, LruTieBreakIsLowestWay)
{
    constexpr std::uint64_t kSets = 1;
    constexpr std::uint32_t kWays = 4;
    AssocCache<int> c(kSets, kWays, ReplPolicy::LRU);
    for (std::uint64_t t = 0; t < kWays; ++t)
        c.insert(0, t, static_cast<int>(t));

    ckpt::Serializer s;
    c.save(s, [](ckpt::Serializer &sr, const int &v) {
        sr.u64(static_cast<std::uint64_t>(v));
    });
    std::vector<std::uint8_t> img = s.buffer();
    // Layout: sets u64, ways u32, policy u32, useClock u64, then the
    // tag span (sets * ways u64), the valid and NRU spans (sets u64
    // each), the lastUse span (sets * ways u64), and the values.
    const std::size_t lastUseAt =
        8 + 4 + 4 + 8 + kSets * kWays * 8 + 2 * kSets * 8;
    auto lastUseByte = [&](std::uint32_t w, int i) -> std::uint8_t & {
        return img[lastUseAt + 8 * w + i];
    };
    // The span holds the insertion clocks 1..4: the offset is right.
    for (std::uint32_t w = 0; w < kWays; ++w)
        ASSERT_EQ(lastUseByte(w, 0), w + 1) << "way " << w;
    // Force all four lastUse clocks equal.
    for (std::uint32_t w = 0; w < kWays; ++w)
        for (int i = 0; i < 8; ++i)
            lastUseByte(w, i) = (i == 0) ? 7 : 0; // lastUse = 7
    ckpt::Deserializer d(img);
    c.restore(d, [](ckpt::Deserializer &dr, int &v) {
        v = static_cast<int>(dr.u64());
    });
    ASSERT_TRUE(d.atEnd());

    const auto victim = c.insert(0, 99, 0);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.tag, 0u); // way 0 held tag 0
}

TEST(AssocCacheDiffV2, RestoreRefusesWayBitsAboveTheWayCount)
{
    constexpr std::uint64_t kSets = 2;
    constexpr std::uint32_t kWays = 4;
    const auto save = [](const AssocCache<int> &c) {
        ckpt::Serializer s;
        c.save(s, [](ckpt::Serializer &sr, const int &v) {
            sr.u64(static_cast<std::uint64_t>(v));
        });
        return s.buffer();
    };
    const auto restore = [](const std::vector<std::uint8_t> &img) {
        AssocCache<int> c(kSets, kWays, ReplPolicy::NRU);
        ckpt::Deserializer d(img);
        c.restore(d, [](ckpt::Deserializer &dr, int &v) {
            v = static_cast<int>(dr.u64());
        });
        EXPECT_TRUE(d.atEnd());
        return c;
    };

    AssocCache<int> c(kSets, kWays, ReplPolicy::NRU);
    for (std::uint64_t t = 0; t < 3; ++t)
        c.insert(0, t, static_cast<int>(t));
    c.insert(1, 9, 9);
    const std::vector<std::uint8_t> img = save(c);
    // Layout as in LruTieBreakIsLowestWay: the valid span (one u64 per
    // set) follows the header and the tag span, the NRU span follows.
    const std::size_t validAt = 8 + 4 + 4 + 8 + kSets * kWays * 8;
    const std::size_t nruAt = validAt + kSets * 8;
    ASSERT_EQ(img[validAt], 0x07); // ways 0-2 of set 0
    EXPECT_EQ(save(restore(img)), img);

    // A valid word of 0xff, an NRU bit for way 4, and bit 63 of the
    // last set's valid word: each names a way the set does not have.
    for (const std::size_t at :
         {validAt, nruAt, validAt + kSets * 8 - 1}) {
        std::vector<std::uint8_t> bad = img;
        bad[at] = at == nruAt ? 0x10 : (at == validAt ? 0xff : 0x80);
        EXPECT_THROW(restore(bad), ckpt::CkptError) << "byte " << at;
    }
}

} // namespace
} // namespace dapsim
