/**
 * @file
 * Tiered-memory sweep: DAP-n vs the two-source policies when a third
 * bandwidth source (a CXL/RDMA-style remote pool) backs the DDR tier.
 *
 * Part 1 sweeps the remote pool's bandwidth (DDR/S for S in
 * {2,4,8,16}) at a fixed 120 ns latency adder; part 2 sweeps the
 * latency adder ({60,120,240,480} ns) at the default DDR/4 bandwidth.
 * Each x-value runs a classic SPEC-style profile and a workload-engine
 * Zipf spec under baseline/dap/sbd/batman/bear and reports weighted
 * speedup over the optimized baseline. The reproduction target is the
 * shape: DAP-n's margin should grow with remote bandwidth (more
 * spare capacity for Eq 4 to claim) and shrink gracefully as the
 * latency adder climbs, while the hit-rate-maximizing policies leave
 * the third source idle.
 *
 * Every policy of a scenario forks from one shared functional warm-up
 * (see exp/sweep_runner.hh), so the grid costs one warm-up per row.
 */

#include "bench_util.hh"
#include "workload/compose.hh"

using namespace dapsim;
using namespace dapsim::bench;

namespace
{

/** The policies each row compares with the optimized baseline. */
constexpr PolicyKind kPolicies[] = {PolicyKind::Dap, PolicyKind::Sbd,
                                    PolicyKind::Batman, PolicyKind::Bear};

/** One tiered scenario: a remote configuration on the 8-core system. */
struct Scenario
{
    const char *label;
    double bwScale;
    double latencyNs;
};

const Scenario kBandwidthGrid[] = {
    {"ddr/2", 2.0, 120.0},
    {"ddr/4", 4.0, 120.0},
    {"ddr/8", 8.0, 120.0},
    {"ddr/16", 16.0, 120.0},
};

const Scenario kLatencyGrid[] = {
    {"60ns", 4.0, 60.0},
    {"120ns", 4.0, 120.0},
    {"240ns", 4.0, 240.0},
    {"480ns", 4.0, 480.0},
};

/** The two workloads every scenario runs: one classic profile and one
 *  workload-engine spec. */
struct Stream
{
    const char *label;
    const char *spec;
};

const Stream kStreams[] = {
    {"hpcg", "hpcg"},
    {"zipf0.99", "zipf:skew=0.99,fp=16M"},
};

/** Declare every policy of every (scenario, stream); the report
 *  prints each policy's speedup over the baseline. */
template <std::size_t N>
Report
grid(Plan &plan, const SystemConfig &base, const Scenario (&scenarios)[N])
{
    std::vector<Row> rows;
    for (const auto &s : scenarios) {
        SystemConfig cfg = base;
        cfg.remote.enabled = true;
        cfg.remote.bwScaleFactor = s.bwScale;
        cfg.remote.addLatencyNs = s.latencyNs;
        for (const auto &st : kStreams) {
            const Mix mix = workload::composeWorkload(st.spec, 8).mix;
            const Job baseline = plan.add(cfg, PolicyKind::Baseline, mix);
            std::vector<std::pair<Job, Job>> runs;
            for (PolicyKind p : kPolicies)
                runs.emplace_back(baseline, plan.add(cfg, p, mix));
            rows.push_back(
                {std::string(s.label) + "/" + st.label, speedups(runs)});
        }
    }
    return table("       dap        sbd     batman       bear", rows);
}

} // namespace

Report
bench::figTieredSweep(Plan &plan)
{
    const SystemConfig cfg = presets::sectoredSystem8();
    const Report bw = grid(plan, cfg, kBandwidthGrid);
    const Report lat = grid(plan, cfg, kLatencyGrid);
    return [bw, lat] {
        banner("Tiered-memory sweep (remote third source)",
               "DAP-n vs SBD/BATMAN/BEAR with a remote bandwidth tier: "
               "remote-bandwidth and remote-latency sweeps (sectored DRAM "
               "cache, 8 cores)");
        std::printf("\n-- remote bandwidth sweep, 120 ns adder (speedup "
                    "over baseline) --\n");
        bw();
        std::printf("\n-- remote latency sweep, DDR/4 bandwidth --\n");
        lat();
    };
}
