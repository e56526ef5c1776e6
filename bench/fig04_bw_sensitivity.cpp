/**
 * @file
 * Figure 4: bandwidth sensitivity of all 17 workload snippets.
 *
 * Top panel: weighted speedup when the DRAM cache bandwidth doubles
 * from 102.4 to 204.8 GB/s (rate-8). Bottom panel: L3 MPKI. Paper
 * shape: the twelve bandwidth-sensitive snippets gain substantially;
 * the five insensitive ones barely move; sensitive workloads have the
 * higher average MPKI (20.4 vs 11.6 in the paper).
 */

#include "bench_util.hh"

using namespace dapsim;
using namespace dapsim::bench;

Report
bench::fig04BwSensitivity(Plan &plan)
{
    SystemConfig base = presets::sectoredSystem8();
    SystemConfig fast = base;
    fast.sectored.array = dapsim::presets::hbm_205();

    std::vector<Row> rows;
    std::vector<std::pair<bool, Job>> bases; // (sensitive, run) for MPKI
    for (const auto &w : allWorkloads()) {
        const Mix mix = rateMix(w, 8);
        const Job r1 = plan.add(base, PolicyKind::Baseline, mix);
        const Job r2 = plan.add(fast, PolicyKind::Baseline, mix);
        rows.push_back({w.name + (w.bandwidthSensitive ? "" : " (i)"), [=] {
                            return std::vector{speedup(*r2, *r1), r1->l3Mpki};
                        }});
        bases.emplace_back(w.bandwidthSensitive, r1);
    }
    return [t = table("   speedup     L3MPKI", rows), bases] {
        banner("Figure 4",
               "Speedup from doubling MS$ bandwidth (102.4 -> 204.8 GB/s) "
               "+ L3 MPKI");
        t();
        std::vector<double> sens_mpki, insens_mpki;
        for (const auto &[sensitive, r1] : bases)
            (sensitive ? sens_mpki : insens_mpki).push_back(r1->l3Mpki);
        std::printf("\nmean L3 MPKI: bandwidth-sensitive %.1f, "
                    "insensitive %.1f (paper: 20.4 vs 11.6)\n",
                    mean(sens_mpki), mean(insens_mpki));
    };
}
