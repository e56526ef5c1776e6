/**
 * @file
 * Figure 12: DAP over the full 44-mix roster.
 *
 * 12 bandwidth-sensitive homogeneous mixes, 5 bandwidth-insensitive
 * homogeneous mixes, and 27 heterogeneous mixes, each sorted by
 * speedup within its class (weighted speedup via per-app alone-run
 * IPCs for the heterogeneous mixes). Paper shape: insensitive mixes
 * never lose (DAP seldom partitions for them); heterogeneous mixes
 * gain broadly; 13% overall geomean.
 */

#include <algorithm>
#include <map>

#include "bench_util.hh"

using namespace dapsim;
using namespace dapsim::bench;

Report
bench::fig12AllWorkloads(Plan &plan)
{
    const SystemConfig cfg = presets::sectoredSystem8();

    // Alone-run IPCs, shared across mixes (hetero weighted speedup):
    // each profile on one core of the same system and policy.
    SystemConfig one = cfg;
    one.numCores = 1;
    std::map<std::string, Job> alone;
    for (const auto &w : allWorkloads())
        alone[w.name] = plan.add(one, one.policy, rateMix(w, 1));

    struct Run
    {
        Mix mix;
        Job base, dap;
    };
    std::vector<Run> runs;
    for (const auto &mix : allMixes())
        runs.push_back({mix, plan.add(cfg, PolicyKind::Baseline, mix),
                        plan.add(cfg, PolicyKind::Dap, mix)});

    return [alone, runs] {
        banner("Figure 12",
               "DAP speedup over all 44 multi-programmed mixes");
        struct Entry
        {
            std::string name;
            double speedup;
        };
        std::map<Mix::Kind, std::vector<Entry>> byKind;
        std::vector<double> all;
        for (const Run &r : runs) {
            std::vector<double> alone_ipc;
            for (const auto &a : r.mix.apps)
                alone_ipc.push_back(alone.at(a.name)->ipc[0]);
            const double s = r.dap->weightedSpeedup(alone_ipc) /
                             r.base->weightedSpeedup(alone_ipc);
            byKind[r.mix.kind].push_back({r.mix.name, s});
            all.push_back(s);
        }

        const std::map<Mix::Kind, const char *> kindName{
            {Mix::Kind::Sensitive, "bandwidth-sensitive (12)"},
            {Mix::Kind::Insensitive, "bandwidth-insensitive (5)"},
            {Mix::Kind::Hetero, "heterogeneous (27)"},
        };
        for (auto &[kind, entries] : byKind) {
            std::sort(entries.begin(), entries.end(),
                      [](const Entry &a, const Entry &b) {
                          return a.speedup < b.speedup;
                      });
            std::printf("--- %s, sorted by speedup ---\n",
                        kindName.at(kind));
            std::vector<double> v;
            for (const auto &e : entries) {
                std::printf("%-22s %8.3f\n", e.name.c_str(), e.speedup);
                v.push_back(e.speedup);
            }
            std::printf("%-22s %8.3f\n\n", "GMEAN", geomean(v));
        }
        std::printf("overall GMEAN (44 mixes): %.3f  (paper: 1.13)\n",
                    geomean(all));
    };
}
