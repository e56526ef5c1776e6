/**
 * @file
 * Tests for the experiment orchestration subsystem: determinism of
 * sweeps under concurrency, failure isolation, ordered delivery, and
 * the warm-up-aware scheduler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include <sys/wait.h>
#include <unistd.h>

#include "common/fsio.hh"
#include "common/json_reader.hh"
#include "exp/sweep_runner.hh"
#include "sim/presets.hh"

namespace dapsim
{
namespace
{

SystemConfig
tinySystem()
{
    SystemConfig cfg = presets::sectoredSystem8();
    cfg.numCores = 4;
    cfg.sectored.capacityBytes = 2 * kMiB;
    cfg.sectored.tagCache.entries = 128;
    cfg.warmupAccessesPerCore = 2'000;
    return cfg;
}

Mix
tinyMix(const std::string &workload)
{
    WorkloadProfile w = workloadByName(workload);
    w.params.footprintBytes = 256 * kKiB;
    return rateMix(w, 4);
}

/** Queue the 2-policy x 3-workload grid used by the determinism tests. */
void
addTestGrid(exp::SweepRunner &runner)
{
    runner.addGrid(tinySystem(),
                   {tinyMix("bwaves"), tinyMix("mcf"),
                    tinyMix("omnetpp")},
                   {PolicyKind::Baseline, PolicyKind::Dap}, 2'000);
}

/** Run the test grid on @p threads workers. */
std::vector<exp::JobResult>
runTestGrid(std::size_t threads)
{
    exp::SweepRunner runner;
    addTestGrid(runner);
    return runner.run(threads);
}

/** Every metric of @p a and @p b is bit-identical. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.mixName, b.mixName);
    EXPECT_EQ(a.policyName, b.policyName);
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (std::size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_EQ(a.ipc[i], b.ipc[i]);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.msHitRatio, b.msHitRatio);
    EXPECT_EQ(a.msReadMissRatio, b.msReadMissRatio);
    EXPECT_EQ(a.mmCasFraction, b.mmCasFraction);
    EXPECT_EQ(a.tagCacheMissRatio, b.tagCacheMissRatio);
    EXPECT_EQ(a.avgL3ReadMissLatency, b.avgL3ReadMissLatency);
    EXPECT_EQ(a.l3Mpki, b.l3Mpki);
    EXPECT_EQ(a.readGBps, b.readGBps);
    EXPECT_EQ(a.fwb, b.fwb);
    EXPECT_EQ(a.wb, b.wb);
    EXPECT_EQ(a.ifrm, b.ifrm);
    EXPECT_EQ(a.sfrm, b.sfrm);
}

TEST(SweepRunner, GridExpansionIsMixMajor)
{
    exp::SweepRunner runner;
    addTestGrid(runner);
    EXPECT_EQ(runner.jobCount(), 6u);
}

TEST(SweepRunner, ParallelRunIsBitIdenticalToSerial)
{
    const auto serial = runTestGrid(1);
    const auto parallel = runTestGrid(4);
    ASSERT_EQ(serial.size(), 6u);
    ASSERT_EQ(parallel.size(), 6u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        expectIdentical(serial[i].result, parallel[i].result);
    }
}

TEST(SweepRunner, RepeatedParallelRunsAgree)
{
    // Re-running the same grid in parallel twice must also agree
    // (no dependence on thread scheduling at all).
    const auto a = runTestGrid(4);
    const auto b = runTestGrid(4);
    for (std::size_t i = 0; i < a.size(); ++i)
        expectIdentical(a[i].result, b[i].result);
}

TEST(SweepRunner, ThrowingJobFailsAloneAndSweepCompletes)
{
    exp::SweepRunner runner;
    runner.addGrid(tinySystem(), {tinyMix("bwaves")},
                   {PolicyKind::Baseline}, 2'000);

    exp::JobSpec bad;
    bad.label = "deliberate-failure";
    bad.custom = []() -> RunResult {
        throw std::runtime_error("injected fault");
    };
    const std::size_t bad_index = runner.add(std::move(bad));

    runner.addGrid(tinySystem(), {tinyMix("mcf")},
                   {PolicyKind::Baseline}, 2'000);

    const auto results = runner.run(4);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[bad_index].ok);
    EXPECT_EQ(results[bad_index].error, "injected fault");
    EXPECT_TRUE(results[2].ok);
    EXPECT_GT(results[2].result.throughput(), 0.0);
}

/** Sink recording delivery order and totals. */
class RecordingSink : public exp::ResultSink
{
  public:
    void begin(std::size_t total) override { total_ = total; }
    void consume(const exp::JobResult &r) override
    {
        order_.push_back(r.index);
    }
    void end() override { ended_ = true; }

    std::size_t total_ = 0;
    std::vector<std::size_t> order_;
    bool ended_ = false;
};

TEST(SweepRunner, SinksReceiveResultsInSubmissionOrder)
{
    exp::SweepRunner runner;
    // Custom jobs with deliberately uneven durations so completion
    // order scrambles under 4 threads.
    for (int i = 0; i < 8; ++i) {
        exp::JobSpec spec;
        spec.label = "job" + std::to_string(i);
        spec.custom = [i]() {
            RunResult r;
            // Busy work inversely proportional to index: later jobs
            // finish first.
            volatile double x = 0;
            for (int k = 0; k < (8 - i) * 100'000; ++k)
                x = x + k;
            r.ipc = {static_cast<double>(i)};
            return r;
        };
        runner.add(std::move(spec));
    }
    RecordingSink sink;
    runner.addSink(&sink);
    const auto results = runner.run(4);

    EXPECT_EQ(sink.total_, 8u);
    EXPECT_TRUE(sink.ended_);
    ASSERT_EQ(sink.order_.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(sink.order_[i], i);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(results[i].result.ipc[0], static_cast<double>(i));
}

/**
 * The scheduler's test grid, interleaved so no group's jobs are
 * contiguous: three fork groups whose warm-ups differ in length, an
 * unforkable custom job, and a group whose shared warm-up fails (its
 * checkpoint cannot be published, see failWarmup()), so its jobs fall
 * back to running their own warm-up.
 */
struct SchedulerGrid
{
    std::vector<exp::JobSpec> specs;
    std::uint64_t failingGroup = 0;
    static constexpr std::uint64_t kForkingGroups = 3;
};

SchedulerGrid
schedulerGrid()
{
    auto job = [](std::uint64_t warm, const char *workload,
                  PolicyKind policy) {
        exp::JobSpec spec;
        spec.cfg = tinySystem();
        spec.cfg.warmupAccessesPerCore = warm;
        spec.mix = tinyMix(workload);
        spec.policy = policy;
        spec.instr = 1'000;
        spec.label = "w" + std::to_string(warm) + "/" + workload + "/" +
                     exp::policyKindName(policy);
        return spec;
    };
    exp::JobSpec custom;
    custom.label = "custom";
    custom.custom = [] {
        RunResult r;
        r.mixName = "custom";
        r.ipc = {0.5};
        return r;
    };

    SchedulerGrid g;
    g.specs = {job(500, "mcf", PolicyKind::Baseline),
               job(8'000, "bwaves", PolicyKind::Baseline),
               custom,
               job(2'000, "omnetpp", PolicyKind::Baseline),
               job(1'000, "mcf", PolicyKind::Baseline),
               job(500, "mcf", PolicyKind::Dap),
               job(8'000, "bwaves", PolicyKind::Dap),
               job(2'000, "omnetpp", PolicyKind::Dap),
               job(1'000, "mcf", PolicyKind::Dap),
               job(8'000, "bwaves", PolicyKind::Sbd)};
    g.failingGroup = exp::warmupStateHash(g.specs[4]);
    return g;
}

/** A fresh checkpoint directory in which @p group's checkpoint cannot
 *  be published: a directory already sits at its path. */
std::string
failWarmup(const std::string &name, std::uint64_t group)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / name).string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(
        exp::WarmupCache(dir).checkpointPath(group) + "/blocker");
    return dir;
}

/** JSON-lines rows of a warmup-fork run of the scheduler grid; @p tag
 *  keeps the checkpoint directories of concurrent tests apart. */
std::string
schedulerRows(const std::string &tag, std::size_t threads,
              const std::string &phase_trace = "")
{
    const SchedulerGrid grid = schedulerGrid();
    const std::string dir =
        failWarmup("dapsim_sched_" + tag + "_" + std::to_string(threads),
                   grid.failingGroup);
    exp::SweepRunner runner;
    for (const auto &spec : grid.specs)
        runner.add(spec);
    std::ostringstream rows;
    exp::JsonLinesSink json(rows);
    RecordingSink order;
    runner.addSink(&json);
    runner.addSink(&order);
    runner.setWarmupFork(true, dir);
    if (!phase_trace.empty())
        runner.setPhaseTrace(phase_trace);
    const auto results = runner.run(threads);
    std::filesystem::remove_all(dir);

    for (const auto &r : results)
        EXPECT_TRUE(r.ok) << r.label << ": " << r.error;
    EXPECT_EQ(runner.warmupsExecuted(), SchedulerGrid::kForkingGroups)
        << threads << " threads";
    EXPECT_TRUE(order.ended_);
    EXPECT_EQ(order.order_.size(), grid.specs.size());
    for (std::size_t i = 0; i < order.order_.size(); ++i)
        EXPECT_EQ(order.order_[i], i) << threads << " threads";
    return rows.str();
}

TEST(SweepRunner, SchedulerRowsMatchSerialAtEveryThreadCount)
{
    // Unforked and serial: the rows every schedule must reproduce.
    exp::SweepRunner plain;
    for (const auto &spec : schedulerGrid().specs)
        plain.add(spec);
    std::ostringstream want;
    exp::JsonLinesSink sink(want);
    plain.addSink(&sink);
    plain.run(1);

    const std::string serial = schedulerRows("rows", 1);
    EXPECT_EQ(serial, want.str());
    for (std::size_t threads : {2, 3, 4, 8})
        EXPECT_EQ(schedulerRows("rows", threads), serial)
            << threads << " threads";
}

/** One span of a SweepRunner phase trace, in microseconds. */
struct TraceSpan
{
    std::uint64_t tid = 0;
    std::string name;
    double start = 0;
    double end = 0;
};

TEST(SweepRunner, PhaseTraceNestsEachWarmupInItsGroupsFirstJob)
{
    const SchedulerGrid grid = schedulerGrid();
    std::map<std::string, std::string> group_of; // label -> group key
    for (const auto &spec : grid.specs)
        group_of[spec.displayLabel()] = exp::groupKey(spec);

    for (std::size_t threads : {1, 2, 4, 8}) {
        const std::string path =
            (std::filesystem::temp_directory_path() /
             ("dapsim_sched_trace_" + std::to_string(threads) + ".json"))
                .string();
        schedulerRows("trace", threads, path);
        std::ifstream in(path);
        std::stringstream text;
        text << in.rdbuf();
        std::filesystem::remove(path);

        const json::Value trace = json::parse(text.str());
        std::vector<TraceSpan> jobs;
        std::map<std::string, TraceSpan> warm; // group key -> span
        for (const json::Value &e : trace.at("traceEvents").arr) {
            if (e.at("ph").asString() != "X")
                continue;
            TraceSpan s{e.at("tid").asU64(), e.at("name").asString(),
                        e.at("ts").asDouble(),
                        e.at("ts").asDouble() + e.at("dur").asDouble()};
            if (e.at("cat").asString() == "warmup") {
                const std::string key = s.name.substr(7); // "warmup "
                EXPECT_EQ(warm.count(key), 0u) << "two warm-ups: " << key;
                warm[key] = s;
            } else {
                jobs.push_back(s);
            }
        }
        ASSERT_EQ(jobs.size(), grid.specs.size());
        // Every group ran its warm-up, the failing one included.
        EXPECT_EQ(warm.size(), SchedulerGrid::kForkingGroups + 1);

        constexpr double kEps = 1e-3; // ts + dur rounding, in us
        for (const auto &[key, w] : warm) {
            std::size_t hosts = 0;
            for (const TraceSpan &j : jobs) {
                if (group_of.at(j.name) != key)
                    continue;
                if (j.tid == w.tid && j.start <= w.start + kEps &&
                    w.end <= j.end + kEps) {
                    ++hosts;
                    continue;
                }
                // No other job of the group starts before its warm-up
                // has ended.
                EXPECT_GE(j.start + kEps, w.end)
                    << j.name << " started inside warm-up " << key
                    << " at " << threads << " threads";
            }
            EXPECT_EQ(hosts, 1u)
                << "warm-up " << key << " at " << threads << " threads";
        }
    }
}

/** The cache keeps no state: without a directory every call for a
 *  group simulates it again, and with one the second call loads the
 *  first call's checkpoint from disk. */
TEST(SweepWarmupFork, CacheKeepsNothingBetweenCalls)
{
    exp::JobSpec spec;
    spec.cfg = tinySystem();
    spec.mix = tinyMix("mcf");
    spec.instr = 1'000;

    const exp::WarmupCache memory("");
    const auto first = memory.ensure(spec);
    ASSERT_TRUE(first.ckpt);
    EXPECT_TRUE(first.executed);
    const auto second = memory.ensure(spec);
    EXPECT_TRUE(second.executed);
    EXPECT_FALSE(second.reused);
    EXPECT_EQ(second.ckpt.header.stateHash, exp::warmupStateHash(spec));

    const std::string dir =
        (std::filesystem::temp_directory_path() / "dapsim_cache_stateless")
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const exp::WarmupCache disk(dir);
    const auto made = disk.ensure(spec);
    EXPECT_TRUE(made.executed);
    EXPECT_FALSE(made.reused);
    const auto loaded = disk.ensure(spec);
    ASSERT_TRUE(loaded.ckpt);
    EXPECT_FALSE(loaded.executed);
    EXPECT_TRUE(loaded.reused);
    // Both views fork the same job to the same row.
    EXPECT_EQ(exp::jobResultToJson(exp::runJob(spec, 0, made.ckpt)),
              exp::jobResultToJson(exp::runJob(spec, 0, loaded.ckpt)));
    std::filesystem::remove_all(dir);
}

/** A group of one job shares nothing, so it runs unforked unless a
 *  checkpoint directory keeps its warm-up for later sweeps. Either
 *  way the rows equal an unforked run. */
TEST(SweepWarmupFork, LoneJobsRunUnforkedWithoutADirectory)
{
    auto add = [](exp::SweepRunner &runner) {
        runner.addGrid(tinySystem(), {tinyMix("mcf")},
                       {PolicyKind::Baseline, PolicyKind::Dap}, 1'000);
        runner.addGrid(tinySystem(), {tinyMix("bwaves")},
                       {PolicyKind::Dap}, 1'000);
    };
    auto rows = [](exp::SweepRunner &runner) {
        std::vector<std::string> out;
        for (const exp::JobResult &r : runner.run(2)) {
            EXPECT_TRUE(r.ok) << r.label << ": " << r.error;
            out.push_back(exp::jobResultToJson(r));
        }
        return out;
    };
    exp::SweepRunner plain;
    add(plain);
    const std::vector<std::string> want = rows(plain);
    EXPECT_EQ(plain.warmupsExecuted(), 0u);

    exp::SweepRunner forked;
    add(forked);
    forked.setWarmupFork(true);
    EXPECT_EQ(rows(forked), want);
    EXPECT_EQ(forked.warmupsExecuted(), 1u);

    const std::string dir =
        (std::filesystem::temp_directory_path() / "dapsim_lone_jobs")
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    exp::SweepRunner kept;
    add(kept);
    kept.setWarmupFork(true, dir);
    EXPECT_EQ(rows(kept), want);
    EXPECT_EQ(kept.warmupsExecuted(), 2u);
    std::filesystem::remove_all(dir);
}

/** A lone job is claimed where its group's warm-up would start, not
 *  as a ready job ahead of every warm-up: one worker runs the grid in
 *  submission order, the lone job last. */
TEST(SweepWarmupFork, LoneJobKeepsItsPlaceInTheClaimOrder)
{
    exp::SweepRunner runner;
    runner.addGrid(tinySystem(), {tinyMix("mcf"), tinyMix("omnetpp")},
                   {PolicyKind::Baseline, PolicyKind::Dap}, 1'000);
    runner.addGrid(tinySystem(), {tinyMix("bwaves")}, {PolicyKind::Dap},
                   1'000);
    const std::string path =
        (std::filesystem::temp_directory_path() / "dapsim_lone_order.json")
            .string();
    runner.setWarmupFork(true);
    runner.setPhaseTrace(path);
    for (const exp::JobResult &r : runner.run(1))
        EXPECT_TRUE(r.ok) << r.label << ": " << r.error;
    EXPECT_EQ(runner.warmupsExecuted(), 2u);

    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::filesystem::remove(path);
    const json::Value trace = json::parse(text.str());
    std::vector<std::pair<double, std::string>> jobs; // start, label
    for (const json::Value &e : trace.at("traceEvents").arr)
        if (e.at("ph").asString() == "X" && e.at("cat").asString() == "job")
            jobs.emplace_back(e.at("ts").asDouble(), e.at("name").asString());
    std::sort(jobs.begin(), jobs.end());
    ASSERT_EQ(jobs.size(), 5u);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].second.find("bwaves") != std::string::npos, i == 4)
            << i << ": " << jobs[i].second;
}

/** A creation lock whose owner is a dead process on this host is
 *  reaped at once, long before the TTL would age it out, and the
 *  warm-up then runs and is published. */
TEST(SweepWarmupFork, DeadOwnersCreationLockIsReapedAtOnce)
{
    exp::JobSpec spec;
    spec.cfg = tinySystem();
    spec.mix = tinyMix("mcf");
    spec.instr = 1'000;
    const std::string dir =
        (std::filesystem::temp_directory_path() / "dapsim_dead_lock")
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    // Past the 30 s TTL a lock is reaped by age whatever its owner.
    exp::WarmupCache cache(dir, 30.0);
    const std::string path =
        cache.checkpointPath(exp::warmupStateHash(spec));
    const std::string lock = path + ".lock";

    // A guaranteed-dead same-host pid: a child that exits at once.
    const pid_t dead = fork();
    ASSERT_GE(dead, 0);
    if (dead == 0)
        _exit(0);
    int status = 0;
    ASSERT_EQ(waitpid(dead, &status, 0), dead);
    ASSERT_TRUE(fsio::createExclusive(
        lock, "{\"pid\":" + std::to_string(dead) + ",\"host\":\"" +
                  fsio::hostName() + "\"}"));

    const auto t0 = std::chrono::steady_clock::now();
    const exp::WarmupCache::Result res = cache.ensure(spec);
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    ASSERT_TRUE(res.ckpt);
    EXPECT_TRUE(res.executed);
    EXPECT_LT(waited, 15.0);
    EXPECT_FALSE(fsio::fileExists(lock));
    EXPECT_EQ(ckpt::readFile(path).header.stateHash,
              exp::warmupStateHash(spec));
    std::filesystem::remove_all(dir);
}

TEST(Job, EchoesSpecIdentityFields)
{
    exp::JobSpec spec;
    spec.cfg = tinySystem();
    spec.mix = tinyMix("bwaves");
    spec.policy = PolicyKind::Dap;
    spec.instr = 1'000;
    spec.seedSalt = 7;
    spec.knobs["capacity_mb"] = "2";
    const exp::JobResult r = exp::runJob(spec, 3);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.index, 3u);
    EXPECT_EQ(r.archName, "sectored");
    EXPECT_EQ(r.policyName, "dap");
    EXPECT_EQ(r.mixName, "bwaves-rate4");
    EXPECT_EQ(r.numCores, 4u);
    EXPECT_EQ(r.instr, 1'000u);
    EXPECT_EQ(r.seedSalt, 7u);
    EXPECT_EQ(r.knobs.at("capacity_mb"), "2");
    EXPECT_EQ(r.result.policyName, "dap");
}

TEST(Job, InvalidSpecBecomesFailedJobNotProcessExit)
{
    // runMix() would fatal() (process exit) on these; the job layer
    // must convert them to reported failures instead.
    exp::JobSpec narrow;
    narrow.cfg = tinySystem(); // 4 cores
    narrow.mix = rateMix(workloadByName("bwaves"), 8);
    narrow.instr = 1'000;
    const exp::JobResult r1 = exp::runJob(narrow, 0);
    EXPECT_FALSE(r1.ok);
    EXPECT_NE(r1.error.find("8-wide"), std::string::npos) << r1.error;

    exp::JobSpec zero;
    zero.cfg = tinySystem();
    zero.mix = tinyMix("bwaves");
    zero.instr = 0;
    const exp::JobResult r2 = exp::runJob(zero, 1);
    EXPECT_FALSE(r2.ok);
    EXPECT_NE(r2.error.find("zero instruction"), std::string::npos)
        << r2.error;
}

TEST(Job, PolicyNamesRoundTrip)
{
    for (PolicyKind p :
         {PolicyKind::Baseline, PolicyKind::Dap, PolicyKind::Sbd,
          PolicyKind::SbdWt, PolicyKind::Batman, PolicyKind::Bear})
        EXPECT_EQ(exp::policyKindFromName(exp::policyKindName(p)), p);
}

} // namespace
} // namespace dapsim
