/**
 * @file
 * The paper harness's Plan (bench/bench_util.hh): standard jobs with
 * equal exp::jobId run once and share one result, custom jobs never
 * merge, and a planned result equals the direct runMix() of its spec.
 */

#include <gtest/gtest.h>

#include "bench_util.hh"
#include "sim/runner.hh"

namespace dapsim
{
namespace
{

constexpr std::uint64_t kInstr = 5'000;

SystemConfig
oneCoreSectored()
{
    SystemConfig cfg = presets::sectoredSystem8();
    cfg.numCores = 1;
    cfg.sectored.capacityBytes = 8 * kMiB;
    cfg.sectored.tagCache.entries = 128;
    cfg.warmupAccessesPerCore = 20'000;
    return cfg;
}

exp::JobSpec
aloneJob(const SystemConfig &one, const WorkloadProfile &app)
{
    exp::JobSpec spec;
    spec.cfg = one;
    spec.mix = rateMix(app, 1);
    spec.policy = one.policy;
    spec.instr = kInstr;
    return spec;
}

TEST(PaperHarness, AloneRunsMemoizePerApp)
{
    // A mix's alone runs, as fig12 declares them: one 1-core job per
    // app. Copies of one app are one job; another app is another.
    const SystemConfig one = oneCoreSectored();
    WorkloadProfile hpcg = workloadByName("hpcg");
    hpcg.params.footprintBytes = 512 * kKiB;
    WorkloadProfile mcf = workloadByName("mcf");
    mcf.params.footprintBytes = 512 * kKiB;
    const Mix mix = rateMix(hpcg, 8);

    bench::Plan plan;
    std::vector<bench::Job> alone;
    for (const auto &app : mix.apps)
        alone.push_back(plan.add(aloneJob(one, app)));
    const bench::Job other = plan.add(aloneJob(one, mcf));
    ASSERT_EQ(alone.size(), 8u);
    for (const bench::Job job : alone)
        EXPECT_EQ(job, alone[0]); // same app: same alone run
    EXPECT_NE(other, alone[0]);

    plan.run(2, "");
    const RunResult direct = runMix(one, rateMix(hpcg, 1), kInstr);
    ASSERT_EQ(alone[0]->ipc.size(), 1u);
    EXPECT_GT(alone[0]->ipc[0], 0.0);
    EXPECT_EQ(alone[0]->ipc[0], direct.ipc[0]);
    EXPECT_EQ(alone[0]->cycles, direct.cycles);
    EXPECT_NE(other->ipc[0], alone[0]->ipc[0]);
}

TEST(PaperHarness, CustomJobsNeverMerge)
{
    // A custom job's id is only its label, so equal labels are still
    // two jobs with their own results.
    bench::Plan plan;
    std::vector<bench::Job> jobs;
    for (double ipc : {1.0, 2.0}) {
        exp::JobSpec spec;
        spec.label = "read-kernel";
        spec.custom = [ipc] {
            RunResult r;
            r.ipc = {ipc};
            return r;
        };
        jobs.push_back(plan.add(std::move(spec)));
    }
    ASSERT_NE(jobs[0], jobs[1]);

    plan.run(1, "");
    ASSERT_EQ(jobs[0]->ipc.size(), 1u);
    ASSERT_EQ(jobs[1]->ipc.size(), 1u);
    EXPECT_EQ(jobs[0]->ipc[0], 1.0);
    EXPECT_EQ(jobs[1]->ipc[0], 2.0);
}

} // namespace
} // namespace dapsim
