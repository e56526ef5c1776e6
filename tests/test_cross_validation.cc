/**
 * @file
 * Cross-validation tests: the timing simulator against the Section III
 * analytical model, and trace-file replay against the synthetic
 * generators it was exported from.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "dap/bandwidth_model.hh"
#include "dram/dram_system.hh"
#include "dram/presets.hh"
#include "sim/presets.hh"
#include "sim/runner.hh"
#include "trace/trace_file.hh"
#include "xval_util.hh"

namespace dapsim
{
namespace
{

TEST(CrossValidation, DramStreamThroughputNearPeakForEveryPreset)
{
    // The timing model's streaming throughput must approach each
    // preset's advertised peak (the number DAP's window budgets use).
    for (const auto &cfg :
         {presets::ddr4_2400(), presets::ddr4_3200(),
          presets::hbm_102(), presets::hbm_205(),
          presets::edram_dir_51()}) {
        EventQueue eq;
        DramSystem mem(eq, cfg);
        const int n = 4096;
        int done = 0;
        for (Addr a = 0; a < n * static_cast<Addr>(kBlockBytes);
             a += kBlockBytes)
            mem.access(a, false, [&] { ++done; });
        eq.runUntil([&] { return done == n; });
        const double seconds =
            static_cast<double>(eq.now()) / kPsPerSecond;
        const double gbps = n * 64.0 / seconds / 1e9;
        EXPECT_GT(gbps, 0.65 * cfg.peakGBps()) << cfg.name;
        EXPECT_LE(gbps, cfg.peakGBps() * 1.001) << cfg.name;
    }
}

TEST(CrossValidation, TwoSourceDeliveredBandwidthMatchesEquationTwo)
{
    // Drive two DRAM systems with a fixed access split and check the
    // combined delivered bandwidth against Eq 2 within the efficiency
    // envelope.
    EventQueue eq;
    DramSystem fast(eq, presets::hbm_102());
    DramSystem slow(eq, presets::ddr4_2400());
    const int n = 6000;
    const double f_fast = 0.727; // the optimal split
    const double gbps = xval::measureSplitGBps(
        eq, {xval::dramIssuer(fast), xval::dramIssuer(slow)},
        {f_fast, 1.0 - f_fast}, n, 5);
    const double ideal = bwmodel::deliveredBandwidth(
        {102.4, 38.4}, {f_fast, 1.0 - f_fast});
    // Above 60% of the analytic optimum and never above it.
    EXPECT_GT(gbps, 0.6 * ideal);
    EXPECT_LT(gbps, ideal * 1.001);
}

TEST(CrossValidation, UnbalancedSplitDeliversLess)
{
    auto measure = [](double f_fast) {
        EventQueue eq;
        DramSystem fast(eq, presets::hbm_102());
        DramSystem slow(eq, presets::ddr4_2400());
        return xval::measureSplitGBps(
            eq, {xval::dramIssuer(fast), xval::dramIssuer(slow)},
            {f_fast, 1.0 - f_fast}, 4000, 7);
    };
    // Sending everything to the slow source is far worse than the
    // optimal split — the motivating inequality of the whole paper.
    EXPECT_GT(measure(0.727), 1.5 * measure(0.0));
}

TEST(CrossValidation, TraceReplayMatchesGeneratorTiming)
{
    // Exporting a synthetic stream to a trace file and replaying it
    // must produce the exact same simulation (addresses, gaps and
    // types are preserved byte-for-byte).
    WorkloadProfile w = workloadByName("gobmk.score2");
    w.params.footprintBytes = 512 * kKiB;

    SystemConfig cfg = presets::sectoredSystem8();
    cfg.numCores = 2;
    cfg.sectored.capacityBytes = 4 * kMiB;
    cfg.core.instructions = 5'000;
    cfg.warmupAccessesPerCore = 2'000;

    // Export one core's stream.
    auto gen = makeGenerator(w, 0);
    const std::string path =
        (std::filesystem::temp_directory_path() / "xval.trace")
            .string();
    ASSERT_EQ(writeTraceFile(path, *gen, 40'000), 40'000u);

    auto runWith = [&](bool from_file) {
        std::vector<AccessGeneratorPtr> gens;
        for (std::uint32_t i = 0; i < cfg.numCores; ++i) {
            if (from_file)
                gens.push_back(std::make_unique<TraceFileGenerator>(
                    path, static_cast<Addr>(i) << 40));
            else {
                auto g = makeGenerator(w, 0);
                // Rebase manually to mirror the trace-file offsets.
                std::vector<TraceRequest> rs;
                TraceRequest t;
                for (int k = 0; k < 40'000; ++k) {
                    g->next(t);
                    rs.push_back(t);
                }
                gens.push_back(std::make_unique<TraceFileGenerator>(
                    rs, static_cast<Addr>(i) << 40));
            }
        }
        System sys(cfg, std::move(gens));
        sys.warmup(cfg.warmupAccessesPerCore);
        sys.run();
        return sys.eventQueue().now();
    };

    EXPECT_EQ(runWith(true), runWith(false));
    std::filesystem::remove(path);
}

} // namespace
} // namespace dapsim
