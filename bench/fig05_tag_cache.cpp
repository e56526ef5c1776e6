/**
 * @file
 * Figure 5: the optimized baseline's SRAM tag cache.
 *
 * Top panel: weighted speedup of adding the tag cache to the sectored
 * DRAM cache baseline (twelve bandwidth-sensitive rate-8 mixes).
 * Bottom panel: tag-cache miss ratio. Paper shape: most workloads
 * benefit (16% average); astar.BigLakes and omnetpp show high tag
 * cache miss rates from poor sector utilization.
 */

#include "bench_util.hh"

using namespace dapsim;
using namespace dapsim::bench;

Report
bench::fig05TagCache(Plan &plan)
{
    const SystemConfig with_tc = presets::sectoredSystem8();
    const SystemConfig without_tc = presets::sectoredSystemNoTagCache8();

    std::vector<Row> rows;
    for (const auto &w : bandwidthSensitiveWorkloads()) {
        const Mix mix = rateMix(w, 8);
        const Job off = plan.add(without_tc, PolicyKind::Baseline, mix);
        const Job on = plan.add(with_tc, PolicyKind::Baseline, mix);
        rows.push_back({w.name, [=] {
                            return std::vector{speedup(*on, *off),
                                               on->tagCacheMissRatio};
                        }});
    }
    return [t = table("   speedup  tc-missratio", rows)] {
        banner("Figure 5", "Effect of the 32K-entry (scaled) SRAM tag cache");
        t();
    };
}
