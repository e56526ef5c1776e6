/**
 * @file
 * Figure 6: DAP on the sectored DRAM cache (the headline result).
 *
 * Top panel: weighted speedup of DAP over the optimized baseline for
 * the twelve bandwidth-sensitive rate-8 mixes (paper: 15.2% average,
 * up to 2x for omnetpp). Bottom panel: normalized average L3 read-miss
 * latency (paper: 18% average saving) — the speedups track the
 * latency savings.
 */

#include "bench_util.hh"

using namespace dapsim;
using namespace dapsim::bench;

Report
bench::fig06DapSectored(Plan &plan)
{
    const SystemConfig cfg = presets::sectoredSystem8();

    std::vector<Row> rows;
    for (const auto &w : bandwidthSensitiveWorkloads()) {
        const Mix mix = rateMix(w, 8);
        const Job base = plan.add(cfg, PolicyKind::Baseline, mix);
        const Job dap = plan.add(cfg, PolicyKind::Dap, mix);
        rows.push_back({w.name, [=] {
                            return std::vector{
                                speedup(*dap, *base),
                                dap->avgL3ReadMissLatency /
                                    std::max(1.0,
                                             base->avgL3ReadMissLatency)};
                        }});
    }
    return [t = table("   speedup  norm-l3-read-miss-lat", rows)] {
        banner("Figure 6",
               "DAP vs optimized baseline (sectored DRAM cache, rate-8)");
        t();
    };
}
