/**
 * @file
 * Figure 13: DAP on a sixteen-core system.
 *
 * 16 cores, 16 MB (scaled 2 MB) L3, 8 GB (scaled 128 MB) MS$ at
 * 204.8 GB/s, dual-channel DDR4-3200 (51.2 GB/s), twelve
 * bandwidth-sensitive rate-16 mixes. Paper shape: gains comparable to
 * the eight-core system (14.6% average).
 */

#include "bench_util.hh"

using namespace dapsim;
using namespace dapsim::bench;

Report
bench::fig13SixteenCore(Plan &plan)
{
    return [t = dapSpeedupTable(plan, {presets::sectoredSystem16()},
                                "   speedup", 16)] {
        banner("Figure 13", "DAP on the sixteen-core configuration");
        t();
    };
}
