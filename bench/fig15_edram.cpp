/**
 * @file
 * Figure 15: DAP on the sectored eDRAM cache (three bandwidth
 * sources).
 *
 * Against the 256 MB (scaled 4 MB) baseline: DAP at 256 MB, the plain
 * 512 MB (scaled 8 MB) baseline, and DAP at 512 MB, plus the change
 * in hit ratio. Paper shape: DAP@256 gains ~7% while *lowering* the
 * hit rate ~9.5 points; the 512 MB baseline raises the hit rate but
 * gains only ~2%; DAP@512 delivers ~11%.
 */

#include "bench_util.hh"

using namespace dapsim;
using namespace dapsim::bench;

Report
bench::fig15Edram(Plan &plan)
{
    const SystemConfig small = presets::edramSystem8(4);
    const SystemConfig big = presets::edramSystem8(8);

    std::vector<Row> rows;
    for (const auto &w : bandwidthSensitiveWorkloads()) {
        const Mix mix = rateMix(w, 8);
        const Job base256 = plan.add(small, PolicyKind::Baseline, mix);
        const Job dap256 = plan.add(small, PolicyKind::Dap, mix);
        const Job base512 = plan.add(big, PolicyKind::Baseline, mix);
        const Job dap512 = plan.add(big, PolicyKind::Dap, mix);
        rows.push_back({w.name, [=] {
                            return std::vector{
                                speedup(*dap256, *base256),
                                speedup(*base512, *base256),
                                speedup(*dap512, *base256),
                                dap256->msHitRatio - base256->msHitRatio,
                                dap512->msHitRatio - base256->msHitRatio};
                        }});
    }
    return [t = table("  dap256     base512     dap512   dHit256  dHit512d",
                      rows)] {
        banner("Figure 15", "eDRAM cache: DAP vs capacity doubling");
        t();
    };
}
