/**
 * @file
 * Workload-engine stress sweep: DAP vs SBD/BATMAN/BEAR outside the
 * SPEC-style comfort zone.
 *
 * Part 1 sweeps Zipf skew x phase drift (single-tenant rate-8): skew
 * moves the hit-ratio operating point the partitioning policies see,
 * drift invalidates their learned state every period. Part 2 scales
 * tenant count with adversarial co-runners (streaming flood,
 * pointer-chase, write-burst, sparse strides) composed by the mix
 * engine. Both report weighted speedup over the optimized baseline;
 * the reproduction target is the *shape*: DAP's margin should survive
 * skew and drift and widen under bandwidth-hostile co-runners, where
 * hit-rate-maximizing policies overload the scarce source.
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

/** One named scenario: a spec composed onto the 8-core system. */
struct Scenario
{
    const char *label;
    const char *spec;
};

const Scenario kSkewDriftGrid[] = {
    {"skew0.7", "zipf:skew=0.7,fp=16M"},
    {"skew0.99", "zipf:skew=0.99,fp=16M"},
    {"skew1.3", "zipf:skew=1.3,fp=16M"},
    {"skew0.7+rotate", "zipf:skew=0.7,fp=16M,drift=rotate,period=50000"},
    {"skew0.99+rotate",
     "zipf:skew=0.99,fp=16M,drift=rotate,period=50000"},
    {"skew1.3+rotate", "zipf:skew=1.3,fp=16M,drift=rotate,period=50000"},
    {"skew0.7+jump", "zipf:skew=0.7,fp=16M,drift=jump,period=50000"},
    {"skew0.99+jump", "zipf:skew=0.99,fp=16M,drift=jump,period=50000"},
    {"skew1.3+jump", "zipf:skew=1.3,fp=16M,drift=jump,period=50000"},
};

const Scenario kTenantGrid[] = {
    {"tenants1", "zipf:skew=0.99,fp=16M"},
    {"tenants2", "mix:t0=zipf,t0.skew=0.99,t0.fp=16M,t0.cores=4,"
                 "t1=flood,t1.fp=8M,t1.mpki=40"},
    {"tenants4", "mix:t0=zipf,t0.skew=0.99,t0.fp=16M,t0.cores=2,"
                 "t1=flood,t1.fp=8M,t1.mpki=40,t1.cores=2,"
                 "t2=chase,t2.fp=8M,t2.cores=2,"
                 "t3=wburst,t3.fp=8M,t3.cores=2"},
    {"tenants8", "mix:t0=zipf,t0.skew=0.99,t0.fp=16M,"
                 "t1=zipf,t1.skew=1.2,t1.fp=8M,t1.drift=jump,"
                 "t1.period=50000,"
                 "t2=hotspot,t2.hot=0.05,t2.fp=8M,"
                 "t3=flood,t3.fp=8M,t3.mpki=40,"
                 "t4=chase,t4.fp=8M,"
                 "t5=wburst,t5.fp=8M,"
                 "t6=sparse,t6.fp=8M,"
                 "t7=wburst,t7.fp=4M,t7.burst=32,t7.duty=0.6"},
};

/** Declare every policy of every scenario; the report prints each
 *  policy's speedup over the baseline. */
template <std::size_t N>
Report
grid(Plan &plan, const SystemConfig &cfg, const Scenario (&scenarios)[N])
{
    std::vector<Row> rows;
    for (const auto &s : scenarios) {
        const Mix mix = workload::composeWorkload(s.spec, 8).mix;
        const Job base = plan.add(cfg, PolicyKind::Baseline, mix);
        std::vector<std::pair<Job, Job>> runs;
        for (PolicyKind p : kPolicies)
            runs.emplace_back(base, plan.add(cfg, p, mix));
        rows.push_back({s.label, speedups(runs)});
    }
    return table("       dap        sbd     batman       bear", rows);
}

} // namespace

Report
bench::figWorkloadStress(Plan &plan)
{
    const SystemConfig cfg = presets::sectoredSystem8();
    const Report skew = grid(plan, cfg, kSkewDriftGrid);
    const Report tenants = grid(plan, cfg, kTenantGrid);
    return [skew, tenants] {
        banner("Workload-engine stress sweep",
               "DAP vs SBD/BATMAN/BEAR under Zipf skew, phase drift and "
               "adversarial multi-tenant mixes (sectored DRAM cache, "
               "8 cores)");
        std::printf("\n-- Zipf skew x phase drift (speedup over "
                    "baseline) --\n");
        skew();
        std::printf("\n-- tenant count with adversarial co-runners --\n");
        tenants();
    };
}
