/**
 * @file
 * Differential fuzz harness for the DRAM channel scheduler.
 *
 * Drives the production Channel and the frozen reference scheduler
 * (tests/reference_channel.hh) with one scripted request stream:
 * open-loop arrivals with same-tick bursts and idle gaps, closed-loop
 * clients that re-issue on completion, reads, writes and low-priority
 * reads, row locality from streaming to random, and one extra data
 * clock on some requests. Both sides must complete the same requests
 * at the same ticks, count the same kicks, CAS, row hits, turnarounds
 * and refreshes, keep the bus busy as long, and run the same number of
 * events. Any divergence is a scheduling change by definition.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "dram/channel.hh"
#include "dram/presets.hh"
#include "reference_channel.hh"

namespace dapsim
{
namespace
{

/** The request stream of one fuzz run. */
struct Shape
{
    const char *name;
    bool openLoop;        ///< arrivals on their own clock
    unsigned clients;     ///< closed-loop clients (0: none)
    double sameRun;       ///< repeat the previous (bank, row): streaming
    double rowReuse;      ///< a fresh pick reuses its bank's last row
    std::uint64_t rows;   ///< row space of a fresh row
    double writes;        ///< write share
    double low;           ///< low-priority share of reads
    double extra;         ///< share with one extra data clock
    std::uint64_t meanGap; ///< open-loop mean inter-arrival, in ticks
};

constexpr Shape kShapes[] = {
    {"stream", true, 0, 0.9, 0.9, 64, 0.2, 0.2, 0.1, 1500},
    {"mixed", true, 8, 0.4, 0.6, 64, 0.4, 0.3, 0.5, 4000},
    {"random", true, 0, 0.0, 0.0, 1u << 20, 0.3, 0.3, 0.3, 2500},
    {"closed", false, 16, 0.5, 0.5, 16, 0.5, 0.5, 0.5, 0},
    {"write-bursts", true, 4, 0.3, 0.3, 32, 0.8, 0.5, 0.2, 800},
};

/**
 * One fuzz run against channel type C. Every rng draw happens in
 * event order, so two schedulers that agree consume the identical
 * decision stream; the first divergence shows up in the log.
 */
template <class C>
struct FuzzRun
{
    EventQueue eq;
    const Shape &shape;
    C ch;
    Rng rng;
    std::uint64_t budget;
    std::uint32_t nbanks;
    std::uint32_t bank = 0;
    std::uint64_t row = 0;
    std::vector<std::uint64_t> lastRow;
    std::uint64_t issued = 0;
    std::vector<std::pair<Tick, std::uint64_t>> log;

    FuzzRun(const DramConfig &c, const Shape &s, std::uint64_t seed,
           std::uint64_t requests)
        : shape(s), ch(eq, c, 0), rng(seed), budget(requests),
          nbanks(c.ranksPerChannel * c.banksPerRank), lastRow(nbanks, 0)
    {
        log.reserve(requests);
    }

    /** Enqueue one request; @p client >= 0 re-issues on completion. */
    void
    enqueueOne(int client)
    {
        --budget;
        const std::uint64_t id = issued++;
        if (!rng.chance(shape.sameRun)) {
            bank = static_cast<std::uint32_t>(rng.below(nbanks));
            row = rng.chance(shape.rowReuse) ? lastRow[bank]
                                             : rng.below(shape.rows);
            lastRow[bank] = row;
        }
        ChannelRequest r;
        r.row = row;
        r.bank = bank;
        r.isWrite = rng.chance(shape.writes);
        r.lowPriority = !r.isWrite && rng.chance(shape.low);
        r.extraDataClocks = rng.chance(shape.extra) ? 1 : 0;
        r.onComplete = [this, id, client] { done(id, client); };
        ch.enqueue(std::move(r));
    }

    void
    done(std::uint64_t id, int client)
    {
        log.emplace_back(eq.now(), id);
        if (client < 0 || budget == 0)
            return;
        if (rng.chance(0.3)) {
            enqueueOne(client); // re-issue in the completion's tick
        } else {
            eq.scheduleAfter(1 + rng.below(8000), [this, client] {
                if (budget > 0)
                    enqueueOne(client);
            });
        }
    }

    /** Open-loop arrival: a request, sometimes a same-tick burst. */
    void
    arrive()
    {
        const std::uint64_t n = rng.chance(0.1) ? 2 + rng.below(7) : 1;
        for (std::uint64_t k = 0; k < n && budget > 0; ++k)
            enqueueOne(-1);
        if (budget == 0)
            return;
        const std::uint64_t r = rng.below(100);
        const Tick gap = r < 20   ? 0 // same-tick follow-up
                         : r < 97 ? 1 + rng.below(2 * shape.meanGap)
                                  : 200'000 + rng.below(2'000'000); // idle
        eq.scheduleAfter(gap, [this] { arrive(); });
    }

    /** Run the script to completion. Refresh keeps the queue busy
     *  forever, so run in fixed slices until every request is back. */
    void
    go()
    {
        for (unsigned c = 0; c < shape.clients && budget > 0; ++c)
            eq.schedule(rng.below(4000), [this, c] {
                if (budget > 0)
                    enqueueOne(static_cast<int>(c));
            });
        if (shape.openLoop)
            eq.schedule(0, [this] { arrive(); });
        for (int slice = 0; slice < 100'000; ++slice) {
            if (budget == 0 && log.size() == issued)
                return;
            eq.run(eq.now() + 1'000'000);
        }
    }

    /** Every counter and event count both schedulers keep. */
    std::vector<double>
    counters() const
    {
        return {double(ch.kicks.value()),
                double(ch.kicksEmpty.value()),
                double(ch.kicksWait.value()),
                double(ch.kicksIssue.value()),
                double(ch.casReads.value()),
                double(ch.casWrites.value()),
                double(ch.rowHits.value()),
                double(ch.rowMisses.value()),
                double(ch.turnarounds.value()),
                double(ch.refreshes.value()),
                double(ch.busBusyTicks()),
                ch.readQueueDelay.sum(),
                double(ch.readQueueDelay.count()),
                ch.readLatency.sum(),
                double(ch.readLatency.count()),
                double(ch.readQueueLen() + ch.writeQueueLen()),
                double(eq.executed()),
                double(eq.peakPending())};
    }
};

constexpr std::array<const char *, 18> kCounterNames = {
    "kicks",           "kicksEmpty",
    "kicksWait",       "kicksIssue",
    "casReads",        "casWrites",
    "rowHits",         "rowMisses",
    "turnarounds",     "refreshes",
    "busBusyTicks",    "readQueueDelay.sum",
    "readQueueDelay.count", "readLatency.sum",
    "readLatency.count", "queued",
    "eq.executed",     "eq.peakPending"};

/** ddr4-2400 with 96 banks: past the reference's 64-entry probe
 *  cache, so its per-entry peek fallback is compared too. */
DramConfig
manyBanks()
{
    DramConfig c = presets::ddr4_2400();
    c.name = "ddr4-2400x96";
    c.ranksPerChannel = 2;
    c.banksPerRank = 48;
    return c;
}

TEST(ChannelDiff, MatchesReferenceScheduler)
{
    const DramConfig bases[] = {presets::ddr4_2400(), presets::hbm_102(),
                                presets::edram_dir_51(),
                                presets::lpddr4_2400(), manyBanks()};
    std::uint64_t seed = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t waits = 0;
    for (const DramConfig &base : bases) {
        for (const std::uint32_t depth : {1u, 4u, 32u}) {
            for (const bool refresh : {false, true}) {
                DramConfig cfg = base;
                cfg.schedulerScanDepth = depth;
                if (refresh) {
                    // Exaggerated, so refreshes land among queued
                    // requests many times per run.
                    cfg.tREFI = 700;
                    cfg.tRFC = 90;
                }
                for (const Shape &shape : kShapes) {
                    ++seed;
                    const std::string where =
                        cfg.name + " depth " + std::to_string(depth) +
                        (refresh ? " refresh " : " ") + shape.name +
                        " seed " + std::to_string(seed);
                    FuzzRun<Channel> prod(cfg, shape, seed, 1500);
                    FuzzRun<RefChannel> ref(cfg, shape, seed, 1500);
                    prod.go();
                    ref.go();
                    ASSERT_EQ(ref.log.size(), ref.issued) << where;
                    ASSERT_EQ(prod.log.size(), ref.log.size()) << where;
                    for (std::size_t i = 0; i < ref.log.size(); ++i)
                        ASSERT_EQ(prod.log[i], ref.log[i])
                            << where << " completion " << i;
                    const std::vector<double> got = prod.counters();
                    const std::vector<double> want = ref.counters();
                    for (std::size_t i = 0; i < want.size(); ++i)
                        EXPECT_EQ(got[i], want[i])
                            << where << " " << kCounterNames[i];
                    refreshes += ref.ch.refreshes.value();
                    waits += ref.ch.kicksWait.value();
                }
            }
        }
    }
    // The script must reach the paths it is meant to compare.
    EXPECT_GT(refreshes, 1000u);
    EXPECT_GT(waits, 1000u);
}

} // namespace
} // namespace dapsim
