/**
 * @file
 * Ablation study (extension beyond the paper's figures): DAP's
 * techniques enabled incrementally — FWB only, +WB, +IFRM, +SFRM —
 * plus a credit-cap ablation, on the twelve bandwidth-sensitive
 * rate-8 mixes. This quantifies how much of DAP's gain each technique
 * carries and that the 8-bit saturating credits are not a limiter.
 */

#include "bench_util.hh"

using namespace dapsim;
using namespace dapsim::bench;

namespace
{

SystemConfig
withTechniques(bool fwb, bool wb, bool ifrm, bool sfrm)
{
    SystemConfig cfg = presets::sectoredSystem8();
    cfg.dap.enableFwb = fwb;
    cfg.dap.enableWb = wb;
    cfg.dap.enableIfrm = ifrm;
    cfg.dap.enableSfrm = sfrm;
    return cfg;
}

} // namespace

Report
bench::ablationDap(Plan &plan)
{
    const SystemConfig base = presets::sectoredSystem8();
    const SystemConfig steps[] = {
        withTechniques(true, false, false, false), // FWB
        withTechniques(true, true, false, false),  // +WB
        withTechniques(true, true, true, false),   // +IFRM
        withTechniques(true, true, true, true),    // +SFRM(all)
    };

    std::vector<Row> rows;
    for (const auto &w : bandwidthSensitiveWorkloads()) {
        const Mix mix = rateMix(w, 8);
        const Job rb = plan.add(base, PolicyKind::Baseline, mix);
        std::vector<std::pair<Job, Job>> runs;
        for (const SystemConfig &cfg : steps)
            runs.emplace_back(rb, plan.add(cfg, PolicyKind::Dap, mix));
        rows.push_back({w.name, speedups(runs)});
    }

    const Mix mix = rateMix(workloadByName("gcc.s04"), 8);
    const Job rb = plan.add(base, PolicyKind::Baseline, mix);
    std::vector<std::pair<std::int64_t, Job>> credits;
    for (std::int64_t max : {15, 63, 255, 1 << 20}) {
        SystemConfig cfg = presets::sectoredSystem8();
        cfg.dap.creditMax = max;
        credits.emplace_back(max, plan.add(cfg, PolicyKind::Dap, mix));
    }

    return [t = table("     FWB        +WB      +IFRM  +SFRM(all)", rows),
            rb, credits] {
        banner("Ablation", "DAP techniques enabled incrementally");
        t();
        std::printf("\n--- credit-counter width ablation (gcc.s04) ---\n");
        for (const auto &[max, rd] : credits)
            std::printf("creditMax=%-8lld speedup %.3f\n",
                        static_cast<long long>(max), speedup(*rd, *rb));
    };
}
