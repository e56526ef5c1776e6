/**
 * @file
 * Unit and behaviour tests for the DRAM timing substrate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/serializer.hh"
#include "common/event_queue.hh"
#include "dram/dram_system.hh"
#include "dram/presets.hh"

namespace dapsim
{
namespace
{

TEST(DramConfig, PresetPeakBandwidths)
{
    EXPECT_NEAR(presets::ddr4_2400().peakGBps(), 38.4, 1e-9);
    EXPECT_NEAR(presets::ddr4_3200().peakGBps(), 51.2, 1e-9);
    EXPECT_NEAR(presets::lpddr4_2400().peakGBps(), 38.4, 1e-9);
    EXPECT_NEAR(presets::hbm_102().peakGBps(), 102.4, 1e-9);
    EXPECT_NEAR(presets::hbm_128().peakGBps(), 128.0, 1e-9);
    EXPECT_NEAR(presets::hbm_205().peakGBps(), 204.8, 1e-9);
    EXPECT_NEAR(presets::edram_dir_51().peakGBps(), 51.2, 1e-9);
}

TEST(DramConfig, EveryPresetMovesOneBlockPerBurst)
{
    for (const auto &cfg :
         {presets::ddr4_2400(), presets::ddr4_3200(),
          presets::lpddr4_2400(), presets::hbm_102(), presets::hbm_128(),
          presets::hbm_205(), presets::edram_dir_51()}) {
        EXPECT_EQ(cfg.burstBytes(), kBlockBytes) << cfg.name;
        EXPECT_NO_FATAL_FAILURE(cfg.validate());
    }
}

TEST(DramConfig, AccessesPerCpuCycle)
{
    // 38.4 GB/s over 64B blocks at 4 GHz = 0.15 accesses per cycle.
    EXPECT_NEAR(presets::ddr4_2400().peakAccessesPerCpuCycle(), 0.15,
                1e-3);
    EXPECT_NEAR(presets::hbm_102().peakAccessesPerCpuCycle(), 0.4,
                1e-3);
}

TEST(DramConfig, BurstTicks)
{
    // DDR4 BL8 = 4 command clocks at 833 ps.
    EXPECT_EQ(presets::ddr4_2400().burstTicks(), 4 * 833u);
    // HBM BL4 on a DDR bus = 2 clocks at 1250 ps.
    EXPECT_EQ(presets::hbm_102().burstTicks(), 2 * 1250u);
}

TEST(DramConfigDeathTest, ValidationCatchesNonsense)
{
    DramConfig c = presets::ddr4_2400();
    c.channelWidthBits = 32; // burst now moves 32B, not one block
    EXPECT_DEATH(c.validate(), "64B");
    DramConfig z = presets::ddr4_2400();
    z.channels = 0;
    EXPECT_DEATH(z.validate(), "geometry");
    DramConfig w = presets::ddr4_2400();
    w.writeQueueLow = w.writeQueueHigh;
    EXPECT_DEATH(w.validate(), "watermarks");
}

TEST(Bank, RowHitIsFasterThanMissIsFasterThanConflict)
{
    const DramConfig cfg = presets::ddr4_2400();
    const Tick period = cfg.periodPs();

    Bank b;
    // Page-empty access: tRCD + tCAS.
    const auto first = b.reserve(cfg, 0, 7);
    EXPECT_TRUE(first.rowEmpty);
    EXPECT_EQ(first.dataReadyAt, (cfg.tRCD + cfg.tCAS) * period);

    // Row hit: tCAS from the bank-ready point.
    const Tick t1 = first.dataReadyAt;
    const auto hit = b.reserve(cfg, t1, 7);
    EXPECT_TRUE(hit.rowHit);
    EXPECT_EQ(hit.dataReadyAt, t1 + cfg.tCAS * period);

    // Conflict: precharge (after tRAS) + activate + read.
    const Tick t2 = hit.dataReadyAt;
    const auto conf = b.reserve(cfg, t2, 9);
    EXPECT_FALSE(conf.rowHit);
    EXPECT_FALSE(conf.rowEmpty);
    EXPECT_GT(conf.dataReadyAt - t2,
              (cfg.tRP + cfg.tRCD + cfg.tCAS) * period - 1);
}

TEST(Bank, FloorsMatchReserve)
{
    // The scheduler ranks from floors(), and reserve() takes its answer
    // from them too. Both must equal the DRAM timing of every arm, at
    // request ticks before, at and after the bank's ready point, with
    // tRAS binding and not. @p act is the bank's last activate tick.
    const BankTiming t = BankTiming::from(presets::hbm_102());
    auto check = [&t](const Bank &b, Tick act, std::uint64_t row,
                      bool hit, bool empty) {
        const Bank::Floors f = b.floors(t);
        const Tick ready = b.readyAt();
        for (const Tick at : {Tick(0), ready / 2, ready, ready + 1,
                              ready + 100 * t.tRas}) {
            const Tick start = std::max(at, ready);
            const Tick want =
                hit     ? start + t.tCas
                : empty ? start + t.tRcd + t.tCas
                        : std::max(start, act + t.tRas) + t.tRp +
                              t.tRcd + t.tCas;
            const Tick ranked =
                row == f.openRow ? std::max(at + t.tCas, f.hitFloor)
                                 : std::max(at + f.otherLat, f.otherFloor);
            Bank copy = b;
            const Bank::Access acc = copy.reserve(t, at, row);
            EXPECT_EQ(acc.rowHit, hit) << "at " << at;
            EXPECT_EQ(acc.rowEmpty, empty) << "at " << at;
            EXPECT_EQ(ranked, want) << "row " << row << " at " << at;
            EXPECT_EQ(acc.dataReadyAt, want) << "row " << row << " at " << at;
            EXPECT_EQ(copy.readyAt(), want - t.tCas + t.burst);
        }
    };
    Bank b;
    check(b, 0, 3, false, true); // page-empty, never used
    (void)b.reserve(t, 0, 3);    // activates at 0
    ASSERT_LT(b.readyAt(), t.tRas) << "tRAS must bind early on";
    check(b, 0, 3, true, false);  // hit
    check(b, 0, 5, false, false); // conflict
    b.refresh(t, 40 * t.tCas);
    check(b, 0, 5, false, true); // page-empty after a refresh
    const Tick act = b.readyAt();
    (void)b.reserve(t, act, 5);
    check(b, act, 5, true, false);
    check(b, act, 9, false, false);
}

TEST(Bank, PrechargeClosesRow)
{
    const DramConfig cfg = presets::hbm_102();
    Bank b;
    (void)b.reserve(cfg, 0, 3);
    b.precharge();
    EXPECT_EQ(b.openRow(), Bank::kNoRow);
}

/** Fixture with a DRAM system on its own event queue. */
class DramSystemTest : public ::testing::Test
{
  protected:
    EventQueue eq;
};

TEST_F(DramSystemTest, SingleReadLatency)
{
    DramSystem mem(eq, presets::ddr4_2400());
    Tick done_at = 0;
    mem.access(0, false, [&] { done_at = eq.now(); });
    eq.run();
    const DramConfig cfg = presets::ddr4_2400();
    const Tick period = cfg.periodPs();
    const Tick expected = (cfg.tRCD + cfg.tCAS) * period +
                          cfg.burstTicks() +
                          cfg.ioDelayCycles * period;
    EXPECT_EQ(done_at, expected);
    EXPECT_EQ(mem.casReads(), 1u);
    EXPECT_EQ(mem.casOps(), 1u);
}

TEST_F(DramSystemTest, WritesArePostedAndCounted)
{
    DramSystem mem(eq, presets::ddr4_2400());
    for (int i = 0; i < 10; ++i)
        mem.access(static_cast<Addr>(i) * kBlockBytes, true);
    eq.run();
    EXPECT_EQ(mem.casWrites(), 10u);
    EXPECT_EQ(mem.dataBytes(), 10u * kBlockBytes);
}

TEST_F(DramSystemTest, SequentialStreamGetsRowHits)
{
    DramSystem mem(eq, presets::hbm_102());
    for (Addr a = 0; a < 512 * kBlockBytes; a += kBlockBytes)
        mem.access(a, false);
    eq.run();
    EXPECT_EQ(mem.casReads(), 512u);
    EXPECT_GT(mem.rowHits(), mem.rowMisses());
}

TEST_F(DramSystemTest, StreamingApproachesPeakBandwidth)
{
    DramSystem mem(eq, presets::hbm_102());
    const int n = 4096;
    int done = 0;
    for (Addr a = 0; a < n * static_cast<Addr>(kBlockBytes);
         a += kBlockBytes)
        mem.access(a, false, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, n);
    const double seconds =
        static_cast<double>(eq.now()) / kPsPerSecond;
    const double gbps = n * 64.0 / seconds / 1e9;
    // A pure read stream should deliver well over 70% of 102.4 GB/s.
    EXPECT_GT(gbps, 0.70 * 102.4);
    EXPECT_LE(gbps, 102.4 + 1e-6);
}

TEST_F(DramSystemTest, RandomTrafficDeliversLessThanStreaming)
{
    DramSystem seq(eq, presets::hbm_102());
    // interleave: run sequential first
    const int n = 2048;
    for (int i = 0; i < n; ++i)
        seq.access(static_cast<Addr>(i) * kBlockBytes, false);
    eq.run();
    const Tick seq_time = eq.now();

    EventQueue eq2;
    DramSystem rnd(eq2, presets::hbm_102());
    std::uint64_t x = 12345;
    for (int i = 0; i < n; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        rnd.access((x >> 20) % (1ULL << 30), false);
    }
    eq2.run();
    EXPECT_GT(eq2.now(), seq_time);
}

TEST_F(DramSystemTest, DemandReadsOvertakeLowPriorityFetches)
{
    DramSystem mem(eq, presets::ddr4_2400());
    // Flood with low-priority fetches, then issue one demand read.
    Tick demand_done = 0;
    std::vector<Tick> low_done;
    for (int i = 0; i < 64; ++i)
        mem.access(static_cast<Addr>(i * 97) * kBlockBytes, false,
                   [&] { low_done.push_back(eq.now()); }, 0, true);
    mem.access(1 * kMiB, false, [&] { demand_done = eq.now(); });
    eq.run();
    ASSERT_EQ(low_done.size(), 64u);
    // The demand read must not finish behind the whole flood.
    EXPECT_LT(demand_done, low_done.back());
}

TEST_F(DramSystemTest, DeterministicAcrossRuns)
{
    auto run = [] {
        EventQueue q;
        DramSystem mem(q, presets::ddr4_2400());
        std::uint64_t x = 777;
        for (int i = 0; i < 500; ++i) {
            x = x * 6364136223846793005ULL + 1;
            mem.access((x >> 16) % (1ULL << 28), (x & 1) != 0);
        }
        q.run();
        return std::make_tuple(q.now(), mem.rowHits(),
                               mem.meanReadLatency());
    };
    EXPECT_EQ(run(), run());
}

TEST_F(DramSystemTest, ChannelLoadIsBalancedForAlignedStructures)
{
    // Regression for the channel-aliasing bug: row-aligned structures
    // (metadata blocks every 256 blocks) must spread over channels.
    DramSystem mem(eq, presets::hbm_102());
    for (int i = 0; i < 1024; ++i)
        mem.access(static_cast<Addr>(i) * 16 * kKiB, false);
    eq.run();
    std::uint64_t min_cas = ~0ull, max_cas = 0;
    for (std::uint32_t c = 0; c < mem.numChannels(); ++c) {
        const auto n = mem.channel(c).casReads.value();
        min_cas = std::min(min_cas, n);
        max_cas = std::max(max_cas, n);
    }
    EXPECT_GT(min_cas, 0u);
    EXPECT_LT(max_cas, 1024u / 2);
}

TEST_F(DramSystemTest, TurnaroundsAreCounted)
{
    DramSystem mem(eq, presets::ddr4_2400());
    for (int i = 0; i < 16; ++i)
        mem.access(static_cast<Addr>(i) * kBlockBytes, (i % 2) != 0);
    eq.run();
    std::uint64_t turns = 0;
    for (std::uint32_t c = 0; c < mem.numChannels(); ++c)
        turns += mem.channel(c).turnarounds.value();
    EXPECT_GT(turns, 0u);
}

/** Channel 0's bus timeline inside a saved DramSystem image. */
class BusTimeline : public ::testing::Test
{
  protected:
    /** Channel 0's bus-reservation count sits after the channel count,
     *  its bank count and its banks (three u64 each). */
    static std::size_t
    countAt(const DramConfig &cfg)
    {
        return 8 + 8 + 24 * std::size_t(cfg.ranksPerChannel) *
                           cfg.banksPerRank;
    }

    static std::uint64_t
    word(const std::vector<std::uint8_t> &img, std::size_t at)
    {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t(img[at + i]) << (8 * i);
        return v;
    }

    /** A DDR4-2400 image after some traffic has drained. */
    static std::vector<std::uint8_t>
    image(const DramConfig &cfg)
    {
        EventQueue eq;
        DramSystem mem(eq, cfg);
        for (int i = 0; i < 32; ++i)
            mem.access(static_cast<Addr>(i) * 4096, i % 4 == 0);
        eq.run();
        ckpt::Serializer s;
        mem.save(s);
        return s.buffer();
    }

    /** @p img with channel 0's bus timeline replaced by @p resv. */
    static std::vector<std::uint8_t>
    withTimeline(const DramConfig &cfg, std::vector<std::uint8_t> img,
                 const std::vector<std::pair<Tick, Tick>> &resv)
    {
        const std::size_t at = countAt(cfg);
        const auto first = img.begin() + static_cast<std::ptrdiff_t>(at);
        img.erase(first, first + static_cast<std::ptrdiff_t>(
                                     8 + 16 * word(img, at)));
        ckpt::Serializer s;
        s.u64(resv.size());
        for (const auto &[start, end] : resv) {
            s.u64(start);
            s.u64(end);
        }
        const std::vector<std::uint8_t> words = s.buffer();
        img.insert(img.begin() + static_cast<std::ptrdiff_t>(at),
                   words.begin(), words.end());
        return img;
    }
};

/**
 * Channel::restore sizes its bus-reservation list from a checkpoint
 * word, so a CRC-valid image from another build must not reach the
 * allocation with an impossible count. Unchecked, these counts ended
 * in std::bad_alloc (2^40), ~770 MB of allocation before "truncated
 * input" (5*10^7) and std::length_error (2^60 - 1).
 */
class BusResvCount : public BusTimeline,
                     public ::testing::WithParamInterface<std::uint64_t>
{
};

TEST_P(BusResvCount, ImpossibleCountIsATypedError)
{
    const DramConfig cfg = presets::ddr4_2400();
    const std::vector<std::uint8_t> img = image(cfg);
    const std::size_t at = countAt(cfg);
    ASSERT_EQ(word(img, 8), std::uint64_t(cfg.ranksPerChannel) *
                                cfg.banksPerRank);
    ASSERT_LT(word(img, at), 64u) << "offset is not the count";

    {
        // The unpatched image round-trips.
        EventQueue eq;
        DramSystem mem(eq, cfg);
        ckpt::Deserializer d(img);
        mem.restore(d);
        EXPECT_TRUE(d.atEnd());
        ckpt::Serializer again;
        mem.save(again);
        EXPECT_EQ(again.buffer(), img);
    }

    std::vector<std::uint8_t> bad = img;
    for (int i = 0; i < 8; ++i)
        bad[at + i] = static_cast<std::uint8_t>(GetParam() >> (8 * i));
    EventQueue eq;
    DramSystem mem(eq, cfg);
    ckpt::Deserializer d(bad);
    try {
        mem.restore(d);
        ADD_FAILURE() << "count " << GetParam() << " was accepted";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("bus reservation count"),
                  std::string::npos)
            << e.what();
    }
}

INSTANTIATE_TEST_SUITE_P(Dram, BusResvCount,
                         ::testing::Values(std::uint64_t(1) << 40,
                                           std::uint64_t(50'000'000),
                                           (std::uint64_t(1) << 60) - 1));

/**
 * placeBus() needs sorted, disjoint, non-empty intervals, so restore
 * refuses an empty one or one that starts before its predecessor
 * ends. Touching intervals, which back-to-back bursts leave, restore
 * and save back byte for byte.
 */
TEST_F(BusTimeline, MalformedIntervalIsATypedError)
{
    const DramConfig cfg = presets::ddr4_2400();
    const std::vector<std::uint8_t> img = image(cfg);
    const struct
    {
        std::vector<std::pair<Tick, Tick>> resv;
        const char *what;
    } cases[] = {
        {{{100, 100}}, "bus reservation 0 [100, 100) is empty"},
        {{{200, 100}}, "bus reservation 0 [200, 100) is empty"},
        {{{0, 100}, {150, 150}}, "bus reservation 1 [150, 150) is empty"},
        {{{0, 100}, {99, 150}},
         "bus reservation 1 [99, 150) overlaps the one before it"},
        {{{0, 100}, {200, 300}, {250, 260}},
         "bus reservation 2 [250, 260) overlaps the one before it"},
    };
    for (const auto &c : cases) {
        EventQueue eq;
        DramSystem mem(eq, cfg);
        const std::vector<std::uint8_t> bad = withTimeline(cfg, img, c.resv);
        ckpt::Deserializer d(bad);
        try {
            mem.restore(d);
            ADD_FAILURE() << c.what << ": accepted";
        } catch (const ckpt::CkptError &e) {
            EXPECT_NE(std::string(e.what()).find(c.what),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST_F(BusTimeline, TouchingIntervalsRestoreAndSaveBack)
{
    const DramConfig cfg = presets::ddr4_2400();
    const std::vector<std::uint8_t> img = withTimeline(
        cfg, image(cfg), {{0, 100}, {100, 200}, {200, 300}, {400, 401}});
    EventQueue eq;
    DramSystem mem(eq, cfg);
    ckpt::Deserializer d(img);
    mem.restore(d);
    EXPECT_TRUE(d.atEnd());
    ckpt::Serializer again;
    mem.save(again);
    EXPECT_EQ(again.buffer(), img);
}

/**
 * The scheduler ranks from per-bank records that Channel::restore
 * re-derives from the restored banks. Restored from an image with
 * open rows, a system must schedule the same requests at the same
 * ticks as the live one it was saved from.
 */
TEST_F(DramSystemTest, RestoredBanksScheduleLikeTheLiveOnes)
{
    // Under DDR4-2400's geometry, i * 4 KiB maps to bank i % 16, row
    // i / 16: the warm traffic opens row 0 of sixteen banks.
    const DramConfig cfg = presets::ddr4_2400();
    DramSystem live(eq, cfg);
    for (int i = 0; i < 16; ++i)
        live.access(static_cast<Addr>(i) * 4096, false);
    eq.run();
    const Tick at = eq.now();
    ASSERT_GT(at, 0u);
    ckpt::Serializer s;
    live.save(s);
    const std::vector<std::uint8_t> img = s.buffer();

    EventQueue eq2;
    DramSystem restored(eq2, cfg);
    ckpt::Deserializer d(img);
    restored.restore(d);
    eq2.schedule(at, [] {});
    eq2.run();
    ASSERT_EQ(eq2.now(), at);

    // Row 1 of each bank index first (a conflict or a page-empty
    // bank), then the open rows: FR-FCFS serves the row hits ahead of
    // the older requests only where the restored banks rank as open.
    auto drive = [](EventQueue &q, DramSystem &mem) {
        std::vector<std::pair<Tick, int>> done;
        for (int k = 0; k < 32; ++k) {
            const int i = k < 16 ? k + 16 : k - 16;
            mem.access(static_cast<Addr>(i) * 4096, false,
                       [&done, &q, k] { done.emplace_back(q.now(), k); });
        }
        q.run();
        return done;
    };
    const std::vector<std::pair<Tick, int>> want = drive(eq, live);
    ASSERT_EQ(want.size(), 32u);
    EXPECT_EQ(drive(eq2, restored), want);
}

} // namespace
} // namespace dapsim
