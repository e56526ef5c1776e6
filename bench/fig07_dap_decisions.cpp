/**
 * @file
 * Figure 7: contribution of FWB / WB / IFRM / SFRM to all DAP
 * decisions per workload (sectored DRAM cache, rate-8).
 *
 * Paper shape: FWB and WB dominate across the board (23% and 40% of
 * decisions on average); IFRM and SFRM contribute for several
 * workloads, with omnetpp dominated by SFRM due to its high tag-cache
 * miss rate.
 */

#include "bench_util.hh"

using namespace dapsim;
using namespace dapsim::bench;

Report
bench::fig07DapDecisions(Plan &plan)
{
    const SystemConfig cfg = presets::sectoredSystem8();

    std::vector<Row> rows;
    for (const auto &w : bandwidthSensitiveWorkloads()) {
        const Job dap = plan.add(cfg, PolicyKind::Dap, rateMix(w, 8));
        rows.push_back({w.name, [=] {
                            return std::vector{
                                dap->fwbFraction(), dap->wbFraction(),
                                dap->ifrmFraction(), dap->sfrmFraction()};
                        }});
    }
    return [t = table("       FWB         WB       IFRM       SFRM", rows,
                      "MEAN")] {
        banner("Figure 7", "DAP decision mix: FWB / WB / IFRM / SFRM");
        t();
    };
}
