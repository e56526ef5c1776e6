/**
 * @file
 * Tests for the functional warm-up pipeline (sim/warm_pipeline.hh) and
 * the warm draw it pulls from the generators.
 *
 *  - WarmDraw: for every generator kind (and the default drawWarm),
 *    N warm draws give the same (addr, isWrite) sequence and leave the
 *    same checkpoint bytes as N next() calls; Rng::skipGap leaves the
 *    state gap() leaves.
 *  - WarmPipeline: System::warmup leaves the checkpoint bytes of the
 *    serial record-by-record loop it replaced (kept here as the
 *    oracle) across architectures, core counts and record counts on
 *    and around chunk boundaries; the MS$ sees the serial L3's warm
 *    stream in order; an exception in any stage reaches the caller
 *    after every thread has stopped.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "common/rng.hh"
#include "dram/presets.hh"
#include "sim/presets.hh"
#include "sim/warm_pipeline.hh"
#include "trace/generators.hh"
#include "trace/trace_file.hh"
#include "workload/compose.hh"
#include "workload/spec.hh"

namespace dapsim
{
namespace
{

/** The checkpoint bytes of @p x (an Rng or a generator). */
template <typename T>
std::vector<std::uint8_t>
saveBytes(const T &x)
{
    ckpt::Serializer s;
    x.save(s);
    return s.buffer();
}

// ---- Warm draw -----------------------------------------------------

TEST(WarmDraw, SkipGapAdvancesLikeGap)
{
    for (const double mean : {0.25, 1.0, 1.0000001, 4.0, 40.0, 1e6}) {
        Rng a(99), b(99);
        for (int i = 0; i < 1000; ++i) {
            a.gap(mean, 1'000'000);
            b.skipGap(mean);
            ASSERT_EQ(saveBytes(a), saveBytes(b)) << "mean " << mean;
        }
        // Still in lockstep for the draws that follow.
        EXPECT_EQ(a.next(), b.next()) << "mean " << mean;
    }
}

TEST(WarmDraw, SkipGapDrawsNothingForMeanAtMostOne)
{
    Rng a(5), b(5);
    b.skipGap(1.0);
    b.skipGap(0.5);
    EXPECT_EQ(saveBytes(a), saveBytes(b));
}

/**
 * Drive @p timed with next() and @p warm with strided drawWarm() calls
 * of uneven sizes for @p n records; both must give one stream and end
 * in the same checkpoint bytes.
 */
void
expectWarmDrawMatches(AccessGenerator &timed, AccessGenerator &warm,
                      std::size_t n, const std::string &what)
{
    std::vector<WarmAccess> want(n);
    TraceRequest req;
    for (WarmAccess &a : want) {
        ASSERT_TRUE(timed.next(req)) << what;
        a = {req.addr, req.isWrite};
    }

    // Chunk sizes 1..97 into a buffer strided by 3, as the pipeline's
    // per-core columns are.
    constexpr std::size_t kStride = 3;
    std::vector<WarmAccess> buf(97 * kStride);
    std::size_t done = 0;
    for (std::size_t chunk = 1; done < n; chunk = chunk % 97 + 1) {
        const std::size_t k = std::min(chunk, n - done);
        warm.drawWarm(buf.data() + 1, k, kStride);
        for (std::size_t j = 0; j < k; ++j) {
            const WarmAccess &got = buf[1 + j * kStride];
            ASSERT_EQ(got.addr, want[done + j].addr)
                << what << " record " << done + j;
            ASSERT_EQ(got.isWrite, want[done + j].isWrite)
                << what << " record " << done + j;
        }
        done += k;
    }
    EXPECT_EQ(saveBytes(timed), saveBytes(warm)) << what;
}

TEST(WarmDraw, SyntheticProfilesMatchNext)
{
    for (const char *name : {"mcf", "libquantum", "omnetpp", "hpcg",
                             "parboil-lbm", "gcc.expr"}) {
        const WorkloadProfile &w = workloadByName(name);
        auto timed = makeGenerator(w, 2, 7);
        auto warm = makeGenerator(w, 2, 7);
        expectWarmDrawMatches(*timed, *warm, 20'000, name);
    }
}

TEST(WarmDraw, EngineKernelsMatchNextInEveryDriftMode)
{
    std::vector<std::string> specs;
    for (const char *drift : {"none", "rotate", "jump", "migrate"}) {
        const std::string d =
            std::string("drift=") + drift + ",period=3000";
        specs.push_back("zipf:fp=4M," + d);
        specs.push_back("hotspot:fp=4M," + d);
    }
    for (const char *s : {"flood:fp=2M", "flood:fp=2M,write=0.3",
                          "chase:fp=2M", "wburst:duty=0.6",
                          "wburst:burst=16,duty=0.2", "sparse:stride=8",
                          "zipf:fp=4M,mpki=1000"})
        specs.push_back(s);
    for (const std::string &spec : specs) {
        auto timed = workload::makeSpecGenerator(spec, 1, 3);
        auto warm = workload::makeSpecGenerator(spec, 1, 3);
        expectWarmDrawMatches(*timed, *warm, 20'000, spec);
    }
}

TEST(WarmDraw, MixTenantsMatchNext)
{
    const workload::ComposedMix cm = workload::composeWorkload(
        "mix:t0=zipf,t0.cores=2,t0.drift=migrate,t0.period=2000,"
        "t1=mcf,t2=wburst,t3=chase,t3.fp=2M",
        5);
    for (std::uint32_t i = 0; i < 5; ++i) {
        auto timed = makeGenerator(cm.mix.apps[i], i, 11);
        auto warm = makeGenerator(cm.mix.apps[i], i, 11);
        expectWarmDrawMatches(*timed, *warm, 10'000,
                              "core " + std::to_string(i));
    }
}

/** The trace file takes AccessGenerator's default drawWarm (a
 *  next() loop). */
TEST(WarmDraw, TraceFileMatchesNext)
{
    std::vector<TraceRequest> recs;
    for (std::uint64_t i = 0; i < 37; ++i)
        recs.push_back({0x1000 + i * 0x40 + (i % 3), i % 4 == 0, i + 1});
    TraceFileGenerator tf_timed(recs, 1ULL << 41);
    TraceFileGenerator tf_warm(recs, 1ULL << 41);
    expectWarmDrawMatches(tf_timed, tf_warm, 1'000, "trace file");
    EXPECT_EQ(tf_timed.loops(), tf_warm.loops());
}

// ---- Pipeline ------------------------------------------------------

SystemConfig
tinyConfig(const std::string &arch, std::uint32_t cores)
{
    SystemConfig cfg = presets::sectoredSystem8();
    if (arch == "alloy")
        cfg = presets::alloySystem8();
    else if (arch == "edram")
        cfg = presets::edramSystem8(1);
    cfg.numCores = cores;
    cfg.sectored.capacityBytes = 2 * kMiB;
    cfg.sectored.tagCache.entries = 128;
    cfg.alloy.capacityBytes = 2 * kMiB;
    cfg.l3.capacityBytes = 256 * kKiB;
    cfg.policy = PolicyKind::Dap;
    if (arch == "none") {
        cfg.arch = MsArch::None;
        cfg.policy = PolicyKind::Baseline;
    }
    if (arch == "tiered") {
        cfg.remote.enabled = true;
        cfg.remote.bwScaleFactor = 4.0;
        cfg.remote.addLatencyNs = 120.0;
        cfg.remote.maxOutstanding = 32;
    }
    return cfg;
}

std::vector<AccessGeneratorPtr>
gensFor(const std::string &workload, std::uint32_t cores)
{
    const workload::ComposedMix cm =
        workload::composeWorkload(workload, cores);
    std::vector<AccessGeneratorPtr> gens;
    for (std::uint32_t i = 0; i < cores; ++i)
        gens.push_back(makeGenerator(cm.mix.apps[i], i, 1));
    return gens;
}

std::vector<std::uint8_t>
checkpointBytes(System &sys)
{
    ckpt::CheckpointHeader h;
    h.numCores = sys.numCores();
    return ckpt::encode(ckpt::capture(sys, h));
}

/** The serial warm-up loop the pipeline replaced: record n of every
 *  core, in core order, through L3Cache::warmTouch. */
void
serialWarmup(System &sys, const std::vector<AccessGenerator *> &gens,
             std::uint64_t per_core)
{
    TraceRequest req;
    for (std::uint64_t n = 0; n < per_core; ++n)
        for (AccessGenerator *g : gens)
            if (g->next(req))
                sys.l3().warmTouch(req.addr, req.isWrite);
    if (auto *sc = dynamic_cast<SectoredDramCache *>(sys.msCache())) {
        sc->tagCache().hits.reset();
        sc->tagCache().misses.reset();
        sc->tagCache().writebacks.reset();
    }
    if (auto *ac = dynamic_cast<AlloyCache *>(sys.msCache())) {
        ac->dbc().hits.reset();
        ac->dbc().misses.reset();
    }
}

struct PipelineCase
{
    const char *arch;
    const char *workload;
    std::uint32_t cores;
};

class WarmPipeline : public ::testing::TestWithParam<PipelineCase>
{
};

TEST_P(WarmPipeline, MatchesSerialLoopBytes)
{
    const PipelineCase c = GetParam();
    const SystemConfig cfg = tinyConfig(c.arch, c.cores);
    const std::uint64_t rounds =
        std::max<std::size_t>(1, kWarmChunkRecords / c.cores);
    // Chunk boundaries and their neighbours, plus more records than
    // the rings hold at once.
    for (const std::uint64_t n :
         {std::uint64_t(0), std::uint64_t(1), rounds - 1, rounds,
          rounds + 1, 3 * rounds + 7,
          kWarmRingChunks * 4 * rounds + 1}) {
        System piped(cfg, gensFor(c.workload, c.cores));
        piped.warmup(n);

        std::vector<AccessGeneratorPtr> gens = gensFor(c.workload, c.cores);
        std::vector<AccessGenerator *> raw;
        for (auto &g : gens)
            raw.push_back(g.get());
        System serial(cfg, std::move(gens));
        serialWarmup(serial, raw, n);

        ASSERT_EQ(checkpointBytes(piped), checkpointBytes(serial))
            << c.arch << " " << c.workload << " x" << c.cores << ", "
            << n << " records/core";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, WarmPipeline,
    ::testing::Values(PipelineCase{"sectored", "mcf", 8},
                      PipelineCase{"sectored", "wburst:duty=0.6", 1},
                      PipelineCase{"alloy", "mix:t0=mcf,t1=flood", 3},
                      PipelineCase{"edram", "omnetpp", 8},
                      PipelineCase{"none", "mcf", 2},
                      PipelineCase{"tiered",
                                   "zipf:fp=1M,drift=jump,period=500", 16}),
    [](const ::testing::TestParamInfo<PipelineCase> &i) {
        return std::string(i.param.arch) + "_x" +
               std::to_string(i.param.cores);
    });

/** MS$ stand-in: records the warm stream it is handed, and throws on
 *  access number @p throwAt (when set). */
class RecordingMs final : public MemSideCache
{
  public:
    RecordingMs(EventQueue &eq, DramSystem &mm, PartitionPolicy &policy,
                std::uint64_t throw_at = ~std::uint64_t(0))
        : MemSideCache(eq, mm, policy), throwAt_(throw_at)
    {
    }

    void handleRead(Addr, Done) override {}
    void handleWrite(Addr) override {}
    std::uint64_t arrayCasOps() const override { return 0; }

    bool
    warmTouch(Addr addr, bool is_write) override
    {
        if (seen.size() == throwAt_)
            throw std::runtime_error("ms stage failed");
        seen.push_back({addr, is_write});
        return false;
    }

    std::vector<WarmAccess> seen;

  private:
    std::uint64_t throwAt_;
};

/** Bare L3 + recording MS$ fixture. */
struct L3Rig
{
    explicit L3Rig(std::uint64_t throw_at = ~std::uint64_t(0))
        : mm(eq, presets::ddr4_2400()), ms(eq, mm, policy, throw_at),
          l3(eq, L3Config{256 * kKiB, 8, 20}, ms)
    {
    }

    EventQueue eq;
    DramSystem mm;
    BaselinePolicy policy;
    RecordingMs ms;
    L3Cache l3;
};

TEST(WarmPipelineStream, MsSeesTheSerialL3StreamInOrder)
{
    constexpr std::uint32_t kCores = 5;
    constexpr std::uint64_t kPerCore = 3'001;
    L3Rig serial, piped;

    auto ref_gens = gensFor("mix:t0=mcf,t1=wburst,t2=zipf", kCores);
    TraceRequest req;
    for (std::uint64_t n = 0; n < kPerCore; ++n)
        for (auto &g : ref_gens)
            if (g->next(req))
                serial.l3.warmTouch(req.addr, req.isWrite);

    auto gens = gensFor("mix:t0=mcf,t1=wburst,t2=zipf", kCores);
    runWarmPipeline(gens, piped.l3, piped.ms, kPerCore);

    ASSERT_EQ(piped.ms.seen.size(), serial.ms.seen.size());
    for (std::size_t i = 0; i < serial.ms.seen.size(); ++i) {
        ASSERT_EQ(piped.ms.seen[i].addr, serial.ms.seen[i].addr) << i;
        ASSERT_EQ(piped.ms.seen[i].isWrite, serial.ms.seen[i].isWrite)
            << i;
    }
}

/** Throws from its warm draw once @p throwAfter records are out. */
class FailingGenerator final : public AccessGenerator
{
  public:
    explicit FailingGenerator(std::uint64_t throw_after)
        : throwAfter_(throw_after)
    {
    }

    bool
    next(TraceRequest &out) override
    {
        if (n_ == throwAfter_)
            throw std::runtime_error("generator stage failed");
        out = {(n_ % 4096) * kBlockBytes, false, 1};
        ++n_;
        return true;
    }

  private:
    std::uint64_t throwAfter_;
    std::uint64_t n_ = 0;
};

TEST(WarmPipelineErrors, GeneratorExceptionReachesTheCaller)
{
    // Early (first chunk) and late (rings full downstream) failures.
    for (const unsigned long long after : {0ULL, 50'000ULL}) {
        L3Rig rig;
        std::vector<AccessGeneratorPtr> gens;
        gens.push_back(std::make_unique<FailingGenerator>(~0ULL));
        gens.push_back(std::make_unique<FailingGenerator>(after));
        try {
            runWarmPipeline(gens, rig.l3, rig.ms, 200'000);
            FAIL() << "no exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "generator stage failed");
        }
    }
}

TEST(WarmPipelineErrors, MsStageExceptionStopsTheUpstreamStages)
{
    // The MS$ stage fails while the generator and L3 stages are still
    // producing: both must unblock and be joined before the rethrow.
    for (const unsigned long long at : {0ULL, 30'000ULL}) {
        L3Rig rig(at);
        auto gens = gensFor("mcf", 4);
        try {
            runWarmPipeline(gens, rig.l3, rig.ms, 100'000);
            FAIL() << "no exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "ms stage failed");
        }
        EXPECT_EQ(rig.ms.seen.size(), at);
    }
}

TEST(WarmPipelineErrors, SystemWarmupRethrows)
{
    SystemConfig cfg = tinyConfig("sectored", 2);
    std::vector<AccessGeneratorPtr> gens;
    gens.push_back(std::make_unique<FailingGenerator>(~0ULL));
    gens.push_back(std::make_unique<FailingGenerator>(9'999));
    System sys(cfg, std::move(gens));
    EXPECT_THROW(sys.warmup(20'000), std::runtime_error);
}

} // namespace
} // namespace dapsim
