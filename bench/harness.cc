/**
 * @file
 * The paper harness's batch, front door and figure registry: every
 * figure binary, and `paper`, declare the selected figures into one
 * Plan, run it, then print each figure in order (DESIGN.md §18).
 */

#include <algorithm>
#include <filesystem>
#include <string_view>
#include <thread>

#include "bench_util.hh"

namespace dapsim::bench
{

Job
Plan::add(exp::JobSpec spec)
{
    ++submissions_;
    if (!spec.custom) {
        const auto [it, fresh] = ids_.try_emplace(
            exp::jobContentHash(spec), results_.size());
        if (!fresh)
            return &results_[it->second];
    }
    runner_.add(std::move(spec));
    return &results_.emplace_back();
}

Job
Plan::add(const SystemConfig &cfg, PolicyKind policy, const Mix &mix)
{
    exp::JobSpec spec;
    spec.cfg = cfg;
    spec.mix = mix;
    spec.policy = policy;
    spec.instr = instr_;
    return add(std::move(spec));
}

void
Plan::run(std::size_t threads, const std::string &store)
{
    // With a store, the group checkpoints live in its fleet-wide
    // content-addressed cache (DIR/ckpt), the one a dapsim.expq.v1
    // store's workers use, so reruns and expd sweeps share warm-ups.
    std::string ckpt_dir;
    if (!store.empty()) {
        ckpt_dir = store + "/ckpt";
        std::error_code ec;
        std::filesystem::create_directories(ckpt_dir, ec);
        if (ec)
            fatal("cannot create " + ckpt_dir + ": " + ec.message());
    }
    runner_.setProgress(true);
    runner_.setWarmupFork(true, ckpt_dir);
    for (exp::JobResult &r : runner_.run(threads)) {
        if (!r.ok)
            fatal("job '" + r.label + "' failed: " + r.error);
        results_[r.index] = std::move(r.result);
    }
    std::fprintf(stderr,
                 "harness: %zu submissions, %zu jobs, %llu warm-ups "
                 "executed\n",
                 submissions_, results_.size(),
                 static_cast<unsigned long long>(runner_.warmupsExecuted()));
}

Report
table(const std::string &header, std::vector<Row> rows,
      const std::string &footer)
{
    return [header, rows, footer] {
        std::printf("%-18s %s\n", "workload", header.c_str());
        std::vector<std::vector<double>> columns;
        for (const Row &r : rows) {
            const std::vector<double> values = r.values();
            columns.resize(values.size());
            std::printf("%-18s", r.name.c_str());
            for (std::size_t i = 0; i < values.size(); ++i) {
                std::printf(" %10.3f", values[i]);
                columns[i].push_back(values[i]);
            }
            std::printf("\n");
        }
        std::printf("%-18s", footer.c_str());
        for (const auto &col : columns) {
            const bool positive = std::all_of(
                col.begin(), col.end(), [](double v) { return v > 0.0; });
            std::printf(" %10.3f", positive ? geomean(col) : mean(col));
        }
        std::printf("\n");
    };
}

Values
speedups(std::vector<std::pair<Job, Job>> runs)
{
    return [runs] {
        std::vector<double> out;
        for (const auto &[base, test] : runs)
            out.push_back(speedup(*test, *base));
        return out;
    };
}

Report
dapSpeedupTable(Plan &plan, const std::vector<SystemConfig> &configs,
                const std::string &header, std::uint32_t copies)
{
    std::vector<Row> rows;
    for (const auto &w : bandwidthSensitiveWorkloads()) {
        const Mix mix = rateMix(w, copies);
        std::vector<std::pair<Job, Job>> runs;
        for (const SystemConfig &cfg : configs)
            runs.emplace_back(plan.add(cfg, PolicyKind::Baseline, mix),
                              plan.add(cfg, PolicyKind::Dap, mix));
        rows.push_back({w.name, speedups(runs)});
    }
    return table(header, rows);
}

namespace
{

const char *const kUsage =
    "  --jobs N     worker threads (default DAPSIM_BENCH_JOBS, else all CPUs)\n"
    "  --store DIR  keep warm-up checkpoints in DIR/ckpt (DAPSIM_BENCH_STORE)\n"
    "  DAPSIM_BENCH_INSTR sets the instructions per core (default 120000)\n";

struct Figure
{
    std::string_view binary;
    Report (*declare)(Plan &);
    bool paper; ///< run by `paper`; else a study beyond the paper
};

/** Every figure; the paper's in DESIGN.md §4 order. */
constexpr Figure kFigures[] = {
    {"fig01_bw_vs_hitrate", fig01BwVsHitrate, true},
    {"fig02_edram_capacity", fig02EdramCapacity, true},
    {"fig04_bw_sensitivity", fig04BwSensitivity, true},
    {"fig05_tag_cache", fig05TagCache, true},
    {"fig06_dap_sectored", fig06DapSectored, true},
    {"fig07_dap_decisions", fig07DapDecisions, true},
    {"fig08_cas_fraction", fig08CasFraction, true},
    {"table1_sensitivity", table1Sensitivity, true},
    {"fig09_mm_technology", fig09MmTechnology, true},
    {"fig10_cache_scaling", fig10CacheScaling, true},
    {"fig11_related", fig11Related, true},
    {"fig12_all_workloads", fig12AllWorkloads, true},
    {"fig13_16core", fig13SixteenCore, true},
    {"fig14_alloy", fig14Alloy, true},
    {"fig15_edram", fig15Edram, true},
    {"ablation_dap", ablationDap, true},
    {"fig_workload_stress", figWorkloadStress, false},
    {"fig_tiered_sweep", figTieredSweep, false},
};

[[noreturn]] void
usageError(std::string_view binary, const std::string &what)
{
    std::fprintf(stderr, "usage: %s [--jobs N] [--store DIR]\n%s",
                 std::string(binary).c_str(), kUsage);
    fatal(what);
}

/** --jobs N, else DAPSIM_BENCH_JOBS, else the hardware threads. */
std::size_t
defaultJobs()
{
    const std::size_t cpus =
        std::max(1u, std::thread::hardware_concurrency());
    if (const char *env = std::getenv("DAPSIM_BENCH_JOBS")) {
        const std::uint64_t v = parseUnsigned(env).value_or(0);
        if (v != 0)
            return v;
        warn("invalid DAPSIM_BENCH_JOBS '" + std::string(env) +
             "'; using " + std::to_string(cpus));
    }
    return cpus;
}

} // namespace

int
runFigures(std::string_view binary, int argc, char **argv)
{
    std::size_t jobs = defaultJobs();
    const char *env_store = std::getenv("DAPSIM_BENCH_STORE");
    std::string store = env_store ? env_store : "";
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag != "--jobs" && flag != "--store")
            usageError(binary, "unknown option '" + flag + "'");
        if (i + 1 == argc)
            usageError(binary, flag + " expects a value");
        if (flag == "--store") {
            store = argv[i + 1];
            continue;
        }
        jobs = parseUnsigned(argv[i + 1]).value_or(0);
        if (jobs == 0)
            usageError(binary, "--jobs expects a positive integer, got '" +
                                   std::string(argv[i + 1]) + "'");
    }

    Plan plan;
    std::vector<Report> reports;
    for (const Figure &f : kFigures) {
        if (binary == f.binary || (binary == "paper" && f.paper))
            reports.push_back(f.declare(plan));
    }
    plan.run(jobs, store);
    for (const Report &print : reports)
        print();
    return 0;
}

} // namespace dapsim::bench
