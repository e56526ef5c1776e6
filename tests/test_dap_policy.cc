/**
 * @file
 * Unit tests for the DapPolicy credit-counter machinery.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "dap/dap_controller.hh"

namespace dapsim
{
namespace
{

DapConfig
baseConfig()
{
    DapConfig cfg;
    cfg.arch = DapConfig::Arch::Sectored;
    cfg.windowCycles = 64;
    cfg.efficiency = 0.75;
    cfg.msPeakAccPerCycle = 0.4;  // HBM 102.4 GB/s
    cfg.mmPeakAccPerCycle = 0.15; // DDR4-2400
    return cfg;
}

TEST(DapConfig, DerivedWindowBudgets)
{
    const DapConfig cfg = baseConfig();
    EXPECT_EQ(cfg.msAccessesPerWindow(), 19); // floor(0.75*0.4*64)
    EXPECT_EQ(cfg.mmAccessesPerWindow(), 7);  // floor(0.75*0.15*64)
}

TEST(DapConfig, RatioKIsThePaperEleventhFourths)
{
    const FixedRatio k = baseConfig().ratioK();
    EXPECT_EQ(k.numerator(), 11u);
    EXPECT_EQ(k.denominator(), 4u);
}

TEST(DapConfigDeathTest, UnsetBandwidthIsFatal)
{
    DapConfig cfg;
    EXPECT_DEATH((void)cfg.ratioK(), "bandwidths");
}

TEST(DapConfigDeathTest, EfficiencyOutsideUnitIntervalIsFatal)
{
    for (double e : {0.0, -0.5, 1.5, std::nan("")}) {
        DapConfig cfg = baseConfig();
        cfg.efficiency = e;
        EXPECT_DEATH(DapPolicy{cfg}, "efficiency must be in \\(0, 1\\]");
    }
    DapConfig full = baseConfig();
    full.efficiency = 1.0;
    DapPolicy ok(full);
}

WindowCounters
heavyWindow()
{
    WindowCounters w;
    w.aMs = 40;
    w.aMm = 2;
    w.readMisses = 5;
    w.writes = 20;
    w.cleanHits = 10;
    return w;
}

TEST(DapPolicy, CreditsLoadFromWindowTargets)
{
    DapPolicy dap(baseConfig());
    dap.beginWindow(heavyWindow());
    EXPECT_TRUE(dap.currentTargets().active);
    EXPECT_EQ(dap.fwbCredits(), 5);
    EXPECT_EQ(dap.wbCredits(), 7);
    EXPECT_EQ(dap.windowsPartitioned.value(), 1u);
    EXPECT_EQ(dap.windowsTotal.value(), 1u);
}

TEST(DapPolicy, ConsumingDecrementsAndStopsAtZero)
{
    DapPolicy dap(baseConfig());
    dap.beginWindow(heavyWindow());
    const std::int64_t n = dap.fwbCredits();
    for (std::int64_t i = 0; i < n; ++i)
        EXPECT_TRUE(dap.shouldBypassFill(0));
    EXPECT_FALSE(dap.shouldBypassFill(0));
    EXPECT_EQ(dap.fwbApplied.value(), static_cast<std::uint64_t>(n));
}

TEST(DapPolicy, CreditsAccumulateAcrossWindowsSaturating)
{
    DapConfig cfg = baseConfig();
    cfg.creditMax = 12;
    DapPolicy dap(cfg);
    for (int i = 0; i < 10; ++i)
        dap.beginWindow(heavyWindow());
    EXPECT_EQ(dap.fwbCredits(), 12); // saturated, not 50
    EXPECT_EQ(dap.wbCredits(), 12);
}

TEST(DapPolicy, QuietWindowLoadsNoBypasses)
{
    DapPolicy dap(baseConfig());
    WindowCounters quiet;
    quiet.aMs = 3;
    quiet.aMm = 1;
    dap.beginWindow(quiet);
    EXPECT_FALSE(dap.currentTargets().active);
    EXPECT_FALSE(dap.shouldBypassFill(0));
    EXPECT_FALSE(dap.shouldBypassWrite(0));
    EXPECT_FALSE(dap.shouldForceReadMiss(0));
    // SFRM may still exploit the idle memory (latency-neutral).
    EXPECT_GT(dap.sfrmCredits(), 0);
}

TEST(DapPolicy, TechniqueDisablesAreRespected)
{
    DapConfig cfg = baseConfig();
    cfg.enableFwb = false;
    cfg.enableWb = false;
    DapPolicy dap(cfg);
    dap.beginWindow(heavyWindow());
    EXPECT_FALSE(dap.shouldBypassFill(0));
    EXPECT_FALSE(dap.shouldBypassWrite(0));
    EXPECT_EQ(dap.fwbCredits(), 0);
    EXPECT_EQ(dap.wbCredits(), 0);
}

TEST(DapPolicy, AlloyArchLoadsWriteThroughCredits)
{
    DapConfig cfg = baseConfig();
    cfg.arch = DapConfig::Arch::Alloy;
    cfg.msPeakAccPerCycle = 0.4 * 2.0 / 3.0; // TAD derating
    DapPolicy dap(cfg);
    WindowCounters w;
    w.aMs = 20; // above the 12-access window budget: partitioning on
    w.aMm = 0;
    w.cleanHits = 4; // caps IFRM at 4, leaving residual MM bandwidth
    dap.beginWindow(w);
    EXPECT_TRUE(dap.currentTargets().active);
    EXPECT_EQ(dap.currentTargets().nIfrm, 4);
    int wt = 0;
    while (dap.shouldWriteThrough(0))
        ++wt;
    // 0.8 * (7 - 0 - 4) = 2 residual write-through credits.
    EXPECT_EQ(wt, 2);
}

TEST(DapPolicy, EdramArchUsesSplitChannels)
{
    DapConfig cfg = baseConfig();
    cfg.arch = DapConfig::Arch::Edram;
    cfg.msPeakAccPerCycle = 0.2;      // read channels 51.2 GB/s
    cfg.msWritePeakAccPerCycle = 0.2; // write channels 51.2 GB/s
    DapPolicy dap(cfg);
    WindowCounters w;
    w.aMsRead = 15;
    w.aMsWrite = 5;
    w.aMm = 4;
    w.cleanHits = 8;
    dap.beginWindow(w);
    EXPECT_TRUE(dap.currentTargets().active);
    EXPECT_GT(dap.ifrmCredits(), 0);
    EXPECT_EQ(dap.sfrmCredits(), 0);
}

TEST(DapPolicy, NameIsDap)
{
    DapPolicy dap(baseConfig());
    EXPECT_STREQ(dap.name(), "dap");
}

} // namespace
} // namespace dapsim
