/**
 * @file
 * Figure 9: DAP's sensitivity to main-memory latency and bandwidth.
 *
 * Four main-memory models under the default MS$: DDR4-2400 (default),
 * DDR4-2400 without the board/IO delay, LPDDR4-2400 (same bandwidth,
 * much higher latency), and DDR4-3200 (higher bandwidth). Paper
 * shape: DAP's benefit shrinks as memory latency grows (LPDDR4) and
 * grows with memory bandwidth (DDR4-3200, which shifts the optimal
 * partition toward memory).
 */

#include "bench_util.hh"

using namespace dapsim;
using namespace dapsim::bench;

Report
bench::fig09MmTechnology(Plan &plan)
{
    std::vector<SystemConfig> configs;
    for (const DramConfig &mem :
         {dapsim::presets::ddr4_2400(), dapsim::presets::ddr4_2400_no_io(),
          dapsim::presets::lpddr4_2400(), dapsim::presets::ddr4_3200()}) {
        SystemConfig cfg = presets::sectoredSystem8();
        cfg.mainMemory = mem;
        configs.push_back(cfg);
    }
    return [t = dapSpeedupTable(
                plan, configs,
                "   ddr4-2400  no-io      lpddr4     ddr4-3200")] {
        banner("Figure 9", "DAP speedup vs main-memory technology");
        t();
    };
}
