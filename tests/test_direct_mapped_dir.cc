/**
 * @file
 * Tests for DirectMappedDir, the Alloy cache's one-word-per-set
 * directory.
 *
 * The differential suite replays pinned-RNG op streams through the
 * directory and through a one-way LRU AssocCache, the directory Alloy
 * used before, as the oracle: lookups, finds, inserts over resident
 * and absent tags, and dirty writes, with tags from 0 up to 2^58 - 1
 * and power-of-two and other set counts. After every op both must
 * agree on hits, victims and dirty bits, and a save/restore halfway
 * through must continue identically. The restore tests hand-patch
 * images the directory must refuse.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "cache/assoc_cache.hh"
#include "cache/direct_mapped_dir.hh"
#include "ckpt/serializer.hh"
#include "common/rng.hh"

namespace dapsim
{
namespace
{

/** The per-line payload Alloy kept in its one-way AssocCache. */
struct Line
{
    bool dirty = false;
};

using Oracle = AssocCache<Line>;

/** Alloy's tag → set mapping (AlloyCache::setOf on a block number). */
std::uint64_t
homeSet(const DirectMappedDir &dir, std::uint64_t tag)
{
    return dir.mapSet(indexHash(tag));
}

std::vector<std::uint8_t>
image(const DirectMappedDir &dir)
{
    ckpt::Serializer s;
    dir.save(s);
    return std::move(s).take();
}

void
restoreFrom(DirectMappedDir &dir, const std::vector<std::uint8_t> &bytes)
{
    ckpt::Deserializer d(bytes);
    dir.restore(d, [&dir](std::uint64_t tag) { return homeSet(dir, tag); });
    ASSERT_TRUE(d.atEnd());
}

/** Tags of every kind the stream needs: 0 (what an empty set's word
 *  holds), the largest block number, both values of bit 57 (next to
 *  the flag bits), small and random 58-bit ones. About three per set,
 *  so inserts both hit empty sets and evict. */
std::vector<std::uint64_t>
tagPool(std::uint64_t sets, Rng &rng)
{
    const std::uint64_t top = DirectMappedDir::kTagMask;
    std::vector<std::uint64_t> pool = {0,
                                       1,
                                       top,
                                       top >> 1,
                                       std::uint64_t(1) << 57,
                                       (std::uint64_t(1) << 57) | 5,
                                       top - 1};
    while (pool.size() < 3 * sets + 8) {
        const std::uint64_t r = rng.next();
        pool.push_back(rng.below(2) != 0 ? (r & top) : (r & 0xffff));
    }
    return pool;
}

class DirectMappedDirDiff : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DirectMappedDirDiff, StreamsMatchOneWayAssocCache)
{
    const std::uint64_t sets = GetParam();
    DirectMappedDir dir(sets);
    Oracle ref(sets, 1, ReplPolicy::LRU);
    Rng rng(0xd17ec7 + sets);
    const std::vector<std::uint64_t> pool = tagPool(sets, rng);

    // Every pool tag that maps to a set: the only tags it can hold.
    std::vector<std::vector<std::uint64_t>> bySet(sets);
    for (std::uint64_t t : pool) {
        ASSERT_EQ(homeSet(dir, t), ref.mapSet(indexHash(t)));
        bySet[homeSet(dir, t)].push_back(t);
    }

    // Both sides agree on every pool tag of @p set: held or not, and
    // the dirty bit of the one held.
    auto expectSameSet = [&](std::uint64_t set, int step) {
        std::uint32_t held = 0;
        for (std::uint64_t t : bySet[set]) {
            const Line *l = ref.find(set, t);
            ASSERT_EQ(dir.holds(set, t), l != nullptr)
                << "step " << step << " set " << set << " tag " << t;
            if (l != nullptr) {
                ++held;
                ASSERT_EQ(dir.dirty(set), l->dirty)
                    << "step " << step << " set " << set;
            }
        }
        ASSERT_EQ(held, ref.occupancy(set)) << "step " << step;
        if (held == 0) {
            ASSERT_FALSE(dir.dirty(set)) << "step " << step;
        }
    };
    auto expectVictim = [](const DirectMappedDir::Victim &a,
                           const Oracle::Victim &b, int step) {
        ASSERT_EQ(a.valid, b.valid) << "step " << step;
        if (a.valid) {
            ASSERT_EQ(a.tag, b.tag) << "step " << step;
            ASSERT_EQ(a.dirty, b.value.dirty) << "step " << step;
        }
    };

    for (std::uint64_t s = 0; s < sets; ++s) // a fresh one holds nothing
        ASSERT_NO_FATAL_FAILURE(expectSameSet(s, -1));

    constexpr int kSteps = 20000;
    for (int step = 0; step < kSteps; ++step) {
        const std::uint64_t tag = pool[rng.below(pool.size())];
        const std::uint64_t set = homeSet(dir, tag);
        const bool held = dir.holds(set, tag);
        switch (rng.below(100)) {
          case 0 ... 24: { // lookup, as the warm path does
            ASSERT_EQ(held, ref.lookup(set, tag) != Oracle::kNoWay)
                << "step " << step;
            break;
          }
          case 25 ... 44: { // find, as the timed path does
            const Line *l = ref.find(set, tag);
            ASSERT_EQ(held, l != nullptr) << "step " << step;
            if (l != nullptr) {
                ASSERT_EQ(dir.dirty(set), l->dirty) << "step " << step;
            }
            break;
          }
          case 45 ... 74: { // fill: insert if absent
            if (held)
                break;
            ASSERT_NO_FATAL_FAILURE(expectVictim(
                dir.insert(set, tag), ref.insert(set, tag, {}), step));
            break;
          }
          default: { // write: allocate on a miss, then set or clear
            if (!held) {
                ASSERT_NO_FATAL_FAILURE(expectVictim(
                    dir.insert(set, tag), ref.insert(set, tag, {}), step));
            }
            const bool dirty = rng.below(4) != 0;
            dir.setDirty(set, dirty);
            ref.find(set, tag)->dirty = dirty;
            break;
          }
        }
        ASSERT_NO_FATAL_FAILURE(expectSameSet(set, step));

        if (step == kSteps / 2) {
            // The restored copy takes over and must continue alike.
            const std::vector<std::uint8_t> bytes = image(dir);
            DirectMappedDir back(sets);
            restoreFrom(back, bytes);
            ASSERT_EQ(image(back), bytes);
            dir = back;
        }
        if (step % 1000 == 999) {
            for (std::uint64_t s = 0; s < sets; ++s)
                ASSERT_NO_FATAL_FAILURE(expectSameSet(s, step));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(SetCounts, DirectMappedDirDiff,
                         ::testing::Values(1, 16, 64, 13, 100));

TEST(DirectMappedDir, ImageIsOneWordPerSet)
{
    DirectMappedDir dir(1000);
    EXPECT_EQ(image(dir).size(), 8u + 8u * 1000);
}

TEST(DirectMappedDir, RestoreRefusesASetCountMismatch)
{
    DirectMappedDir small(16);
    DirectMappedDir big(32);
    const std::vector<std::uint8_t> bytes = image(small);
    ckpt::Deserializer d(bytes);
    EXPECT_THROW(big.restore(d, [](std::uint64_t) { return 0; }),
                 ckpt::CkptError);
}

/** Images no run can leave are refused with a CkptError naming the
 *  set; the unpatched image round-trips. */
TEST(DirectMappedDir, RestoreRefusesImpossibleWords)
{
    constexpr std::uint64_t kSets = 64;
    DirectMappedDir dir(kSets);
    Rng rng(0xbadd1e);
    for (int i = 0; i < 40; ++i) {
        const std::uint64_t tag = rng.next() & DirectMappedDir::kTagMask;
        const std::uint64_t set = homeSet(dir, tag);
        if (!dir.holds(set, tag))
            dir.insert(set, tag);
        dir.setDirty(set, rng.below(2) != 0);
    }
    const std::vector<std::uint8_t> good = image(dir);

    DirectMappedDir back(kSets);
    restoreFrom(back, good);
    EXPECT_EQ(image(back), good);

    // Sets to patch: one that holds a line, one that holds none.
    std::uint64_t full = kSets, empty = kSets;
    std::uint64_t word[kSets];
    for (std::uint64_t s = 0; s < kSets; ++s) {
        std::memcpy(&word[s], good.data() + 8 + 8 * s, 8);
        if ((word[s] & DirectMappedDir::kValid) != 0)
            full = full == kSets ? s : full;
        else
            empty = empty == kSets ? s : empty;
    }
    ASSERT_LT(full, kSets);
    ASSERT_LT(empty, kSets);

    // A tag whose home is not `full`.
    std::uint64_t stray = 1;
    while (homeSet(dir, stray) == full)
        ++stray;

    struct Case
    {
        std::uint64_t set;
        std::uint64_t word;
        std::string why;
    };
    const Case cases[] = {
        {full, word[full] | (std::uint64_t(1) << 60), "bits outside"},
        {empty, word[empty] | (std::uint64_t(1) << 58), "bits outside"},
        {empty, DirectMappedDir::kDirty, "dirty but not valid"},
        {full, DirectMappedDir::kValid | stray,
         "tag of set " + std::to_string(homeSet(dir, stray))},
    };
    for (const Case &c : cases) {
        std::vector<std::uint8_t> bad = good;
        std::memcpy(bad.data() + 8 + 8 * c.set, &c.word, 8);
        DirectMappedDir into(kSets);
        try {
            restoreFrom(into, bad);
            ADD_FAILURE() << "accepted word " << c.word << " in set "
                          << c.set;
        } catch (const ckpt::CkptError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("set " + std::to_string(c.set) + " "),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find(c.why), std::string::npos) << msg;
        }
    }
}

} // namespace
} // namespace dapsim
