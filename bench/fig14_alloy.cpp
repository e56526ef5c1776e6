/**
 * @file
 * Figure 14: DAP on the Alloy cache.
 *
 * Top panel: BEAR and Alloy+DAP speedups over the baseline Alloy
 * cache (paper: 22% and 29%). Bottom panel: main-memory CAS fraction
 * for baseline / BEAR / DAP — the Alloy optimum is 36% because the
 * TAD bloat derates the cache's useful bandwidth to 2/3, and DAP gets
 * close while BEAR stays near the baseline.
 */

#include "bench_util.hh"
#include "dap/bandwidth_model.hh"

using namespace dapsim;
using namespace dapsim::bench;

Report
bench::fig14Alloy(Plan &plan)
{
    const SystemConfig cfg = presets::alloySystem8();

    std::vector<Row> rows;
    for (auto w : bandwidthSensitiveWorkloads()) {
        // The direct-mapped Alloy cache has no footprint prefetcher to
        // compensate for conflict misses, so matching the paper's
        // footprint:capacity regime (~0.5 for its SPEC snippets on
        // 4 GB) requires halving the scaled footprints; otherwise the
        // array never saturates and DAP correctly stands down.
        w.params.footprintBytes /= 2;
        const Mix mix = rateMix(w, 8);
        const Job base = plan.add(cfg, PolicyKind::Baseline, mix);
        const Job bear = plan.add(cfg, PolicyKind::Bear, mix);
        const Job dap = plan.add(cfg, PolicyKind::Dap, mix);
        rows.push_back({w.name, [=] {
                            return std::vector{
                                speedup(*bear, *base), speedup(*dap, *base),
                                base->mmCasFraction, bear->mmCasFraction,
                                dap->mmCasFraction};
                        }});
    }
    return [t = table("    BEAR        DAP       casB    casBEAR     casDAP",
                      rows)] {
        banner("Figure 14", "Alloy cache: BEAR vs Alloy+DAP");
        std::printf("optimal MM CAS fraction (TAD-derated): %.2f\n\n",
                    bwmodel::optimalMemoryFraction(102.4 * 2.0 / 3.0,
                                                   38.4));
        t();
    };
}
