/**
 * @file
 * Figure 10: DAP vs memory-side cache capacity and bandwidth.
 *
 * Top panel: capacities 2/4/8 GB (scaled 32/64/128 MB) at 102.4 GB/s.
 * Bottom panel: bandwidths 102.4/128/204.8 GB/s at 4 GB (scaled 64 MB).
 * Paper shape: DAP's benefit grows with capacity (bigger caches absorb
 * more accesses and drift further from the optimal partition) and
 * shrinks with cache bandwidth (the optimum moves toward the cache).
 */

#include "bench_util.hh"

using namespace dapsim;
using namespace dapsim::bench;

Report
bench::fig10CacheScaling(Plan &plan)
{
    std::vector<SystemConfig> capacities;
    for (std::uint64_t mb : {32u, 64u, 128u}) {
        SystemConfig cfg = presets::sectoredSystem8();
        cfg.sectored.capacityBytes = mb * kMiB;
        capacities.push_back(cfg);
    }
    std::vector<SystemConfig> bandwidths;
    for (const DramConfig &array :
         {dapsim::presets::hbm_102(), dapsim::presets::hbm_128(),
          dapsim::presets::hbm_205()}) {
        SystemConfig cfg = presets::sectoredSystem8();
        cfg.sectored.array = array;
        bandwidths.push_back(cfg);
    }
    return [capacity = dapSpeedupTable(plan, capacities,
                                       "      32MB       64MB      128MB"),
            bandwidth = dapSpeedupTable(plan, bandwidths,
                                        "     102.4      128.0      204.8")] {
        banner("Figure 10", "DAP speedup vs MS$ capacity and bandwidth");
        std::printf("--- capacity sweep (bandwidth 102.4 GB/s) ---\n");
        capacity();
        std::printf("\n--- bandwidth sweep (capacity 64 MB scaled) ---\n");
        bandwidth();
    };
}
