/**
 * @file
 * Figure 8: how close DAP comes to the optimal access partition.
 *
 * Top panel: fraction of all CAS operations served by main memory for
 * baseline vs DAP (the optimum is B_MM/(B_MM + B_MS$) = 0.27 for
 * 38.4 vs 102.4 GB/s). Bottom panel: MS$ hit ratio for baseline,
 * FWB+WB only, and full DAP — the hit rate drops as DAP trades hits
 * for bandwidth balance.
 */

#include "bench_util.hh"
#include "dap/bandwidth_model.hh"

using namespace dapsim;
using namespace dapsim::bench;

Report
bench::fig08CasFraction(Plan &plan)
{
    const SystemConfig cfg = presets::sectoredSystem8();
    SystemConfig fwbwb = cfg;
    fwbwb.dap.enableIfrm = false;
    fwbwb.dap.enableSfrm = false;

    std::vector<Row> rows;
    for (const auto &w : bandwidthSensitiveWorkloads()) {
        const Mix mix = rateMix(w, 8);
        const Job base = plan.add(cfg, PolicyKind::Baseline, mix);
        const Job part = plan.add(fwbwb, PolicyKind::Dap, mix);
        const Job dap = plan.add(cfg, PolicyKind::Dap, mix);
        rows.push_back({w.name, [=] {
                            return std::vector{
                                base->mmCasFraction, dap->mmCasFraction,
                                base->msHitRatio, part->msHitRatio,
                                dap->msHitRatio};
                        }});
    }
    return [t = table("  casB      casDAP     hitB   hitFWB+WB   hitDAP",
                      rows, "MEAN")] {
        banner("Figure 8",
               "Main-memory CAS fraction and MS$ hit ratio under DAP");
        std::printf("optimal MM CAS fraction: %.2f\n\n",
                    bwmodel::optimalMemoryFraction(102.4, 38.4));
        t();
    };
}
