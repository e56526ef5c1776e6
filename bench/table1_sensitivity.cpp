/**
 * @file
 * Table I: DAP's sensitivity to the window size W and the assumed
 * bandwidth efficiency E (geomean over the twelve bandwidth-sensitive
 * rate-8 mixes).
 *
 * Paper shape: W = 64 / E = 0.75 is the sweet spot; E = 1.0 is the
 * worst efficiency point because assuming full bandwidth makes DAP
 * partition too little.
 */

#include "bench_util.hh"

using namespace dapsim;
using namespace dapsim::bench;

Report
bench::table1Sensitivity(Plan &plan)
{
    // The six (W, E) points of the table; W=64/E=0.75 appears twice,
    // and its jobs run once.
    struct Point
    {
        Cycle window;
        double efficiency;
        Values speedups;
    };
    std::vector<Point> points;
    for (Cycle w : {32u, 64u, 128u})
        points.push_back({w, 0.75, {}});
    for (double e : {0.50, 0.75, 1.00})
        points.push_back({64, e, {}});

    const SystemConfig base = presets::sectoredSystem8();
    for (Point &p : points) {
        SystemConfig cfg = presets::sectoredSystem8();
        cfg.windowCycles = p.window;
        cfg.dap.efficiency = p.efficiency;
        std::vector<std::pair<Job, Job>> runs;
        for (const auto &w : bandwidthSensitiveWorkloads()) {
            const Mix mix = rateMix(w, 8);
            runs.emplace_back(plan.add(base, PolicyKind::Baseline, mix),
                              plan.add(cfg, PolicyKind::Dap, mix));
        }
        p.speedups = speedups(runs);
    }
    return [points] {
        banner("Table I",
               "DAP speedup sensitivity to window size W and efficiency E");
        std::printf("%-24s %10s\n", "configuration", "speedup");
        for (const Point &p : points)
            std::printf("W=%-4llu E=%-4.2f           %10.3f\n",
                        static_cast<unsigned long long>(p.window),
                        p.efficiency, geomean(p.speedups()));
    };
}
