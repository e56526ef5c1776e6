/**
 * @file
 * Differential test of the eDRAM cache against its old controller.
 *
 * Drives `SectoredDramCache` built from an `EdramCacheConfig` and the
 * frozen `RefEdramCache` (tests/reference_edram_cache.hh) with one
 * scripted stream of reads, writes, warm touches and fast-forward
 * credits, on several geometries, under a policy that answers the
 * hooks the old controller consulted (fill bypass, write bypass, IFRM,
 * set disable) from a pinned RNG and leaves steering, write-through,
 * cleaning and set flush off. Both sides must complete the same reads
 * at the same ticks, keep the same counters, hand the policy the same
 * window demand, put the same CAS on the read and on the write
 * channels, run the same number of events and save the same bytes.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "dram/presets.hh"
#include "memside/sectored_dram_cache.hh"
#include "reference_edram_cache.hh"

namespace dapsim
{
namespace
{

/** Answers the old controller's hooks from its own pinned stream. */
class RngStubPolicy final : public PartitionPolicy
{
  public:
    explicit RngStubPolicy(std::uint64_t seed) : rng_(seed) {}

    std::vector<WindowCounters> windows;

    void beginWindow(const WindowCounters &w) override
    {
        windows.push_back(w);
    }
    bool shouldBypassFill(Addr) override { return rng_.chance(0.2); }
    bool shouldBypassWrite(Addr) override { return rng_.chance(0.15); }
    bool shouldForceReadMiss(Addr) override { return rng_.chance(0.3); }
    bool
    isSetDisabled(std::uint64_t) override
    {
        return rng_.chance(0.05);
    }
    const char *name() const override { return "rng-stub"; }

  private:
    Rng rng_;
};

/** One scripted operation. */
struct Op
{
    enum Kind { Read, Write, Warm, Credit } kind;
    Tick at;
    Addr addr;
    bool isWrite; ///< Warm: the touch's direction
};

/** The stream: bursts and gaps over a footprint a few times the
 *  cache, with reuse so hits, dirty evictions and bypasses all occur. */
std::vector<Op>
script(std::uint64_t seed, std::uint64_t capacity, std::size_t n)
{
    Rng rng(seed);
    std::vector<Op> ops;
    Tick t = 0;
    std::vector<Addr> recent;
    const std::uint64_t blocks = 3 * capacity / kBlockBytes;
    for (std::size_t i = 0; i < n; ++i) {
        t += rng.chance(0.3) ? 0 : 1 + rng.below(20'000);
        Addr a;
        if (!recent.empty() && rng.chance(0.5))
            a = recent[rng.below(recent.size())];
        else
            a = rng.below(blocks) * kBlockBytes;
        if (recent.size() < 256)
            recent.push_back(a);
        else
            recent[rng.below(recent.size())] = a;
        const std::uint64_t r = rng.below(100);
        const Op::Kind k = r < 55 ? Op::Read
                           : r < 85 ? Op::Write
                           : r < 98 ? Op::Warm
                                    : Op::Credit;
        ops.push_back({k, t, a, rng.chance(0.4)});
    }
    return ops;
}

/** One side of the comparison: controller type C on its own queue. */
template <class C>
struct Side
{
    EventQueue eq;
    DramSystem mm;
    RngStubPolicy policy;
    C ms;
    std::vector<std::pair<Tick, std::uint64_t>> log;
    std::vector<bool> warmHits;
    const std::vector<Op> *script_ = nullptr;

    Side(const EdramCacheConfig &cfg, std::uint64_t policy_seed)
        : mm(eq, presets::ddr4_2400()), policy(policy_seed),
          ms(eq, mm, policy, cfg)
    {
    }

    void
    go(const std::vector<Op> &ops)
    {
        script_ = &ops;
        ms.startWindows(64);
        for (std::uint64_t id = 0; id < ops.size(); ++id) {
            eq.schedule(ops[id].at, [this, id] {
                const Op &op = (*script_)[id];
                switch (op.kind) {
                  case Op::Read:
                    ms.handleRead(op.addr,
                                  [this, id] { log.push_back({eq.now(), id}); });
                    break;
                  case Op::Write:
                    ms.handleWrite(op.addr);
                    break;
                  case Op::Warm:
                    warmHits.push_back(ms.warmTouch(op.addr, op.isWrite));
                    break;
                  case Op::Credit:
                    ms.creditFastForward(id % 7, id % 5);
                    break;
                }
            });
        }
        eq.run(ops.back().at + 1);
        ms.stopWindows();
        eq.run();
    }

    std::vector<std::uint64_t>
    counters() const
    {
        return {ms.readHits.value(),         ms.readMisses.value(),
                ms.writeHits.value(),        ms.writeMisses.value(),
                ms.cleanReadHits.value(),    ms.fills.value(),
                ms.fillsBypassed.value(),    ms.writesBypassed.value(),
                ms.forcedReadMisses.value(), ms.speculativeReads.value(),
                ms.speculativeWasted.value(), ms.sectorEvictions.value(),
                ms.dirtyWritebacks.value(),  ms.arrayCasOps(),
                eq.executed(),               eq.peakPending(),
                mm.casReads(),               mm.casWrites()};
    }

    std::vector<std::uint64_t>
    channelCas()
    {
        return {ms.readArray().casReads(), ms.readArray().casWrites(),
                ms.writeArray().casReads(), ms.writeArray().casWrites()};
    }

    std::vector<std::uint8_t>
    bytes() const
    {
        ckpt::Serializer s;
        ms.save(s);
        return s.buffer();
    }
};

constexpr std::array<const char *, 18> kCounterNames = {
    "readHits",       "readMisses",       "writeHits",
    "writeMisses",    "cleanReadHits",    "fills",
    "fillsBypassed",  "writesBypassed",   "forcedReadMisses",
    "speculativeReads", "speculativeWasted", "sectorEvictions",
    "dirtyWritebacks", "arrayCasOps",     "eq.executed",
    "eq.peakPending", "mm.casReads",      "mm.casWrites"};

std::vector<std::uint64_t>
fields(const WindowCounters &w)
{
    return {w.aMs,   w.aMsRead,   w.aMsWrite, w.aMm,  w.readMisses,
            w.writes, w.cleanHits, w.lookups, w.hits, w.aRemote};
}

EdramCacheConfig
geometry(std::uint64_t capacity, std::uint32_t ways,
         std::uint64_t sector, bool footprint)
{
    EdramCacheConfig c;
    c.capacityBytes = capacity;
    c.ways = ways;
    c.sectorBytes = sector;
    c.footprint.enabled = footprint;
    return c;
}

TEST(EdramDiff, MatchesReferenceController)
{
    EdramCacheConfig slow = geometry(256 * kKiB, 16, 1 * kKiB, true);
    slow.readChannels.channels = 1;
    slow.writeChannels.channels = 1;
    slow.tagLookupCycles = 3;
    const EdramCacheConfig geometries[] = {
        geometry(256 * kKiB, 16, 1 * kKiB, true), // production shape
        geometry(128 * kKiB, 4, 4 * kKiB, true),  // DRAM-cache shape
        geometry(96 * kKiB, 12, 512, false),      // non-power-of-two
        geometry(64 * kKiB, 2, 2 * kKiB, true),   // tiny, evicting
        slow,                                     // saturated channels
    };
    std::uint64_t seed = 0;
    std::uint64_t evictions = 0, bypasses = 0, ifrm = 0, warm = 0;
    for (const EdramCacheConfig &cfg : geometries) {
        for (int rep = 0; rep < 3; ++rep) {
            ++seed;
            const std::string where =
                std::to_string(cfg.capacityBytes / kKiB) + " KiB " +
                std::to_string(cfg.ways) + "-way " +
                std::to_string(cfg.sectorBytes) + " B seed " +
                std::to_string(seed);
            const std::vector<Op> ops =
                script(seed, cfg.capacityBytes, 4000);
            Side<SectoredDramCache> prod(cfg, seed * 31);
            Side<RefEdramCache> ref(cfg, seed * 31);
            prod.go(ops);
            ref.go(ops);

            ASSERT_EQ(prod.log.size(), ref.log.size()) << where;
            for (std::size_t i = 0; i < ref.log.size(); ++i)
                ASSERT_EQ(prod.log[i], ref.log[i])
                    << where << " completion " << i;
            EXPECT_EQ(prod.warmHits, ref.warmHits) << where;

            const auto got = prod.counters();
            const auto want = ref.counters();
            for (std::size_t i = 0; i < want.size(); ++i)
                EXPECT_EQ(got[i], want[i])
                    << where << " " << kCounterNames[i];
            EXPECT_EQ(prod.channelCas(), ref.channelCas()) << where;

            ASSERT_EQ(prod.policy.windows.size(),
                      ref.policy.windows.size())
                << where;
            for (std::size_t i = 0; i < ref.policy.windows.size(); ++i)
                ASSERT_EQ(fields(prod.policy.windows[i]),
                          fields(ref.policy.windows[i]))
                    << where << " window " << i;

            EXPECT_EQ(prod.bytes(), ref.bytes()) << where;

            evictions += ref.ms.sectorEvictions.value();
            bypasses += ref.ms.fillsBypassed.value() +
                        ref.ms.writesBypassed.value();
            ifrm += ref.ms.forcedReadMisses.value();
            warm += ref.warmHits.size();
        }
    }
    // The script must reach the paths it is meant to compare.
    EXPECT_GT(evictions, 1000u);
    EXPECT_GT(bypasses, 1000u);
    EXPECT_GT(ifrm, 500u);
    EXPECT_GT(warm, 1000u);
}

} // namespace
} // namespace dapsim
