/**
 * @file
 * Determinism and schema tests for the time-series stat sampler.
 *
 * The sampler inherits the simulator's determinism contract: the same
 * spec must produce byte-identical sample files on every run and on
 * every thread of a parallel sweep (each job writes its own file, so
 * concurrency can only change scheduling, never content).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/sweep_runner.hh"
#include "obs/observability.hh"
#include "sim/presets.hh"
#include "sim/runner.hh"

namespace dapsim
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "obs_sampler_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is) << path;
    std::stringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

SystemConfig
tinySystem()
{
    SystemConfig cfg = presets::sectoredSystem8();
    cfg.numCores = 4;
    cfg.sectored.capacityBytes = 2 * kMiB;
    cfg.sectored.tagCache.entries = 128;
    cfg.warmupAccessesPerCore = 2'000;
    cfg.policy = PolicyKind::Dap;
    cfg.core.instructions = 2'000;
    return cfg;
}

std::vector<AccessGeneratorPtr>
tinyGens(const SystemConfig &cfg)
{
    WorkloadProfile w = workloadByName("mcf");
    w.params.footprintBytes = 256 * kKiB;
    std::vector<AccessGeneratorPtr> gens;
    for (std::uint32_t i = 0; i < cfg.numCores; ++i)
        gens.push_back(makeGenerator(w, i));
    return gens;
}

/** Run the pinned tiny scenario sampling into @p path. */
void
runSampled(const std::string &path, obs::SampleFormat format)
{
    SystemConfig cfg = tinySystem();
    cfg.obs.sampleEvery = 1'000;
    cfg.obs.sampleOut = path;
    cfg.obs.sampleFormat = format;
    System sys(cfg, tinyGens(cfg));
    sys.warmup(cfg.warmupAccessesPerCore);
    sys.run();
    // Flush before the System (and its streams) go out of scope.
    sys.observability()->finish();
}

TEST(ObsSampler, RepeatedRunsAreByteIdentical)
{
    const std::string a = tmpPath("det_a.jsonl");
    const std::string b = tmpPath("det_b.jsonl");
    runSampled(a, obs::SampleFormat::Jsonl);
    runSampled(b, obs::SampleFormat::Jsonl);
    const std::string ca = slurp(a);
    EXPECT_FALSE(ca.empty());
    EXPECT_EQ(ca, slurp(b));
    std::remove(a.c_str());
    std::remove(b.c_str());
}

/** Count the elements of the first JSON array named @p key in
 *  @p line. Values are plain numbers/strings with no nesting, so
 *  top-level commas delimit them. */
std::size_t
arraySize(const std::string &line, const std::string &key)
{
    const std::string marker = "\"" + key + "\":[";
    const auto begin = line.find(marker);
    EXPECT_NE(begin, std::string::npos) << line;
    const auto start = begin + marker.size();
    const auto end = line.find(']', start);
    EXPECT_NE(end, std::string::npos) << line;
    if (end == start)
        return 0;
    std::size_t commas = 0;
    for (std::size_t i = start; i < end; ++i)
        commas += line[i] == ',';
    return commas + 1;
}

TEST(ObsSampler, JsonlSchemaIsSelfConsistent)
{
    const std::string path = tmpPath("schema.jsonl");
    runSampled(path, obs::SampleFormat::Jsonl);

    std::ifstream is(path);
    std::string header;
    ASSERT_TRUE(std::getline(is, header));
    EXPECT_NE(header.find("\"schema\":\"dapsim.timeseries.v1\""),
              std::string::npos);
    EXPECT_NE(header.find("\"sample_every_cycles\":1000"),
              std::string::npos);
    const std::size_t columns = arraySize(header, "columns");
    EXPECT_GT(columns, 20u); // l3 + ms + dap + derived probes

    std::string line;
    std::size_t rows = 0;
    std::uint64_t prev_tick = 0;
    while (std::getline(is, line)) {
        EXPECT_EQ(arraySize(line, "values"), columns) << line;
        const auto tick_at = line.find("\"tick\":");
        ASSERT_NE(tick_at, std::string::npos);
        const std::uint64_t tick =
            std::stoull(line.substr(tick_at + 7));
        EXPECT_GT(tick, prev_tick); // strictly increasing samples
        prev_tick = tick;
        ++rows;
    }
    EXPECT_GT(rows, 0u);
    std::remove(path.c_str());
}

/** The column list of a tiered DAP run with two tenants, in output
 *  order: counter columns first (each group in name order), then the
 *  derived probes. Every dapsim.timeseries.v1 header follows it. */
TEST(ObsSampler, TieredDapTenantColumnsArePinned)
{
    SystemConfig cfg = tinySystem();
    cfg.remote.enabled = true;
    cfg.obs.sampleEvery = 1'000;
    cfg.obs.sampleOut = tmpPath("columns.jsonl");
    cfg.obs.coreTenants = {"web", "db", "web", "db"};
    System sys(cfg, tinyGens(cfg));
    const std::vector<std::string> want = {
        "l3.hits",
        "l3.misses",
        "l3.writebacks",
        "ms.dirtyWritebacks",
        "ms.fills",
        "ms.fillsBypassed",
        "ms.forcedReadMisses",
        "ms.readHits",
        "ms.readMisses",
        "ms.speculativeReads",
        "ms.writeHits",
        "ms.writeMisses",
        "ms.writesBypassed",
        "remote.reads",
        "remote.writes",
        "dap.fwbApplied",
        "dap.ifrmApplied",
        "dap.remoteApplied",
        "dap.sfrmApplied",
        "dap.wbApplied",
        "dap.windowsPartitioned",
        "dap.windowsTotal",
        "dap.wtApplied",
        "remote.busUtilization",
        "remote.queuePeakDepth",
        "dap.fwbCredits",
        "dap.wbCredits",
        "dap.ifrmCredits",
        "dap.sfrmCredits",
        "dap.wtCredits",
        "dap.remoteCredits",
        "sim.events",
        "cores.ipc",
        "ms.hitRatio",
        "ms.mmCasFraction",
        "mainMemory.casReads",
        "mainMemory.casWrites",
        "mainMemory.rowHits",
        "mainMemory.rowMisses",
        "tenant.web.reads",
        "tenant.web.writes",
        "tenant.web.ipc",
        "tenant.db.reads",
        "tenant.db.writes",
        "tenant.db.ipc",
    };
    EXPECT_EQ(sys.observability()->sampler().columnNames(), want);
    sys.observability()->finish();
    std::remove(cfg.obs.sampleOut.c_str());
}

TEST(ObsSampler, CsvRowsMatchHeader)
{
    const std::string path = tmpPath("format.csv");
    runSampled(path, obs::SampleFormat::Csv);

    std::ifstream is(path);
    std::string header;
    ASSERT_TRUE(std::getline(is, header));
    EXPECT_EQ(header.rfind("tick,", 0), 0u);
    std::size_t fields = 1;
    for (char c : header)
        fields += c == ',';

    std::string line;
    std::size_t rows = 0;
    while (std::getline(is, line)) {
        std::size_t got = 1;
        for (char c : line)
            got += c == ',';
        EXPECT_EQ(got, fields) << line;
        ++rows;
    }
    EXPECT_GT(rows, 0u);
    std::remove(path.c_str());
}

TEST(ObsSampler, ParallelSweepJobsWriteIdenticalFiles)
{
    // Four jobs, two of which are the SAME spec sampling into
    // different files: under --jobs 4 the duplicates must still come
    // out byte-identical, and distinct specs must not interleave.
    exp::SweepRunner runner;
    std::vector<std::string> paths;
    for (int i = 0; i < 4; ++i) {
        const std::string path =
            tmpPath("sweep_" + std::to_string(i) + ".jsonl");
        paths.push_back(path);
        exp::JobSpec spec;
        spec.cfg = tinySystem();
        spec.cfg.obs.sampleEvery = 1'000;
        spec.cfg.obs.sampleOut = path;
        // Jobs 0 and 1 are duplicates; 2 and 3 vary the policy.
        spec.policy = i < 2 ? PolicyKind::Dap : PolicyKind::Baseline;
        spec.instr = 2'000;
        spec.seedSalt = i < 2 ? 0 : static_cast<std::uint64_t>(i);
        WorkloadProfile w = workloadByName("mcf");
        w.params.footprintBytes = 256 * kKiB;
        spec.mix = rateMix(w, spec.cfg.numCores);
        runner.add(std::move(spec));
    }
    const auto results = runner.run(4);
    for (const auto &r : results)
        EXPECT_TRUE(r.ok) << r.error;

    const std::string first = slurp(paths[0]);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, slurp(paths[1])); // duplicate spec, same bytes
    EXPECT_NE(first, slurp(paths[2])); // different policy differs
    for (const auto &p : paths)
        std::remove(p.c_str());
}

TEST(ObsSampler, ForkedSweepJobsWriteTheUnforkedFiles)
{
    // One warm-up group of two policies, each job sampling and tracing
    // DAP windows into its own files. Forked from the group's shared
    // warm-up, every file must equal the one the job writes unforked.
    auto runGrid = [](bool fork, const std::string &tag) {
        exp::SweepRunner runner;
        std::vector<std::string> paths;
        for (PolicyKind policy : {PolicyKind::Baseline, PolicyKind::Dap}) {
            const std::string stem =
                tmpPath("fork_" + tag + "_" + exp::policyKindName(policy));
            exp::JobSpec spec;
            spec.cfg = tinySystem();
            spec.cfg.obs.sampleEvery = 1'000;
            spec.cfg.obs.sampleOut = stem + ".samples.jsonl";
            spec.cfg.obs.dapTrace = stem + ".daptrace.jsonl";
            spec.policy = policy;
            spec.instr = 2'000;
            WorkloadProfile w = workloadByName("mcf");
            w.params.footprintBytes = 256 * kKiB;
            spec.mix = rateMix(w, spec.cfg.numCores);
            paths.push_back(spec.cfg.obs.sampleOut);
            paths.push_back(spec.cfg.obs.dapTrace);
            runner.add(std::move(spec));
        }
        if (fork)
            runner.setWarmupFork(true);
        for (const auto &r : runner.run(2))
            EXPECT_TRUE(r.ok) << r.error;
        EXPECT_EQ(runner.warmupsExecuted(), fork ? 1u : 0u);
        std::vector<std::string> files;
        for (const auto &p : paths) {
            files.push_back(slurp(p));
            std::remove(p.c_str());
        }
        return files;
    };
    const auto unforked = runGrid(false, "off");
    const auto forked = runGrid(true, "on");
    ASSERT_EQ(forked.size(), 4u);
    EXPECT_FALSE(unforked[0].empty()); // baseline samples
    EXPECT_FALSE(unforked[2].empty()); // DAP samples
    EXPECT_FALSE(unforked[3].empty()); // DAP decision trace
    EXPECT_EQ(forked, unforked);
}

} // namespace
} // namespace dapsim
