/**
 * @file
 * Figure 11: DAP vs the prior access-partitioning proposals.
 *
 * SBD (self-balancing dispatch, with forced page cleaning), SBD-WT
 * (write-through only), BATMAN (set disabling toward a target hit
 * rate) and DAP, normalized to the optimized baseline on the sectored
 * DRAM cache. Paper shape: SBD loses (forced cleaning congestion),
 * SBD-WT gains a little, BATMAN is near baseline, DAP wins clearly.
 */

#include "bench_util.hh"

using namespace dapsim;
using namespace dapsim::bench;

Report
bench::fig11Related(Plan &plan)
{
    const SystemConfig cfg = presets::sectoredSystem8();

    std::vector<Row> rows;
    for (const auto &w : bandwidthSensitiveWorkloads()) {
        const Mix mix = rateMix(w, 8);
        const Job base = plan.add(cfg, PolicyKind::Baseline, mix);
        std::vector<std::pair<Job, Job>> runs;
        for (PolicyKind pol : {PolicyKind::Sbd, PolicyKind::SbdWt,
                               PolicyKind::Batman, PolicyKind::Dap})
            runs.emplace_back(base, plan.add(cfg, pol, mix));
        rows.push_back({w.name, speedups(runs)});
    }
    return [t = table("      SBD     SBD-WT     BATMAN        DAP", rows)] {
        banner("Figure 11", "SBD / SBD-WT / BATMAN / DAP vs baseline");
        t();
    };
}
