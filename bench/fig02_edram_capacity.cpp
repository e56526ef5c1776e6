/**
 * @file
 * Figure 2: impact of doubling the eDRAM cache (256 MB -> 512 MB,
 * scaled 4 MB -> 8 MB) on the twelve bandwidth-sensitive rate-8 mixes.
 *
 * Top panel: weighted speedup of the larger cache normalized to the
 * smaller. Bottom panel: drop in miss rate. Paper shape: most
 * applications gain with the miss-rate drop, but some (gcc.s04,
 * omnetpp) gain little or lose despite it — hit rate alone does not
 * determine performance.
 */

#include "bench_util.hh"

using namespace dapsim;
using namespace dapsim::bench;

Report
bench::fig02EdramCapacity(Plan &plan)
{
    struct Row
    {
        std::string name;
        Job small, big;
    };
    std::vector<Row> rows;
    for (const auto &w : bandwidthSensitiveWorkloads()) {
        const Mix mix = rateMix(w, 8);
        rows.push_back(
            {w.name,
             plan.add(presets::edramSystem8(4), PolicyKind::Baseline, mix),
             plan.add(presets::edramSystem8(8), PolicyKind::Baseline, mix)});
    }
    return [rows] {
        banner("Figure 2",
               "512 MB (scaled 8 MB) vs 256 MB (scaled 4 MB) eDRAM cache");
        std::printf("%-18s %10s %10s\n", "workload", "speedup",
                    "missdrop%");
        std::vector<double> speedups, drops;
        for (const Row &r : rows) {
            const double s = speedup(*r.big, *r.small);
            // Miss-rate deltas can be slightly negative; report them
            // as-is (geomean is only meaningful for the speedup column).
            const double d =
                (r.small->msReadMissRatio - r.big->msReadMissRatio) * 100;
            std::printf("%-18s %10.3f %10.3f\n", r.name.c_str(), s, d);
            speedups.push_back(s);
            drops.push_back(d);
        }
        std::printf("%-18s %10.3f %10.3f\n", "MEAN", geomean(speedups),
                    mean(drops));
    };
}
