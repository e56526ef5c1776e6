/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses.
 *
 * Each bench binary regenerates one table or figure of the paper:
 * it runs the required simulations and prints the same rows/series
 * the paper reports. Absolute values are not expected to match the
 * authors' testbed; the *shape* (who wins, by roughly what factor,
 * where crossovers fall) is the reproduction target (see DESIGN.md
 * and EXPERIMENTS.md).
 */

#ifndef DAPSIM_BENCH_BENCH_UTIL_HH
#define DAPSIM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/parse_number.hh"
#include "exp/sweep_runner.hh"
#include "sim/presets.hh"
#include "sim/runner.hh"

namespace dapsim::bench
{

/** Instructions per core for bench runs (reduced-scale methodology). */
inline std::uint64_t
benchInstructions()
{
    constexpr std::uint64_t kDefault = 120'000;
    if (const char *env = std::getenv("DAPSIM_BENCH_INSTR")) {
        const std::uint64_t v = parseUnsigned(env).value_or(0);
        if (v == 0) {
            warn("invalid DAPSIM_BENCH_INSTR '" + std::string(env) +
                 "'; using default " + std::to_string(kDefault));
            return kDefault;
        }
        return v;
    }
    return kDefault;
}

/**
 * Worker threads for the bench's sweep: `--jobs N` on the command
 * line, else the DAPSIM_BENCH_JOBS environment variable, else 1.
 * Results are bit-identical for any value (see exp/sweep_runner.hh);
 * only wall-clock time changes.
 */
inline std::size_t
benchJobs(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--jobs") {
            const std::uint64_t v = parseUnsigned(argv[i + 1]).value_or(0);
            if (v == 0)
                fatal("--jobs expects a positive integer");
            return v;
        }
    }
    if (const char *env = std::getenv("DAPSIM_BENCH_JOBS")) {
        const std::uint64_t v = parseUnsigned(env).value_or(0);
        if (v == 0) {
            warn("invalid DAPSIM_BENCH_JOBS '" + std::string(env) +
                 "'; running serially");
            return 1;
        }
        return v;
    }
    return 1;
}

/**
 * Store passthrough for benches whose sweeps share warm-ups: with
 * `--store DIR` (or DAPSIM_BENCH_STORE) the bench's warmup-fork
 * checkpoints live in `DIR/ckpt` — the same fleet-wide
 * content-addressed cache a `dapsim.expq.v1` store and its expd
 * workers use — so figure reruns and experiment-service sweeps reuse
 * each other's warm-ups instead of resimulating them. Returns "" when
 * no store is configured (in-memory warm-up sharing only).
 */
inline std::string
benchStoreDir(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--store")
            return argv[i + 1];
    }
    if (const char *env = std::getenv("DAPSIM_BENCH_STORE"))
        return env;
    return "";
}

/** Enable warmup-fork on @p runner, routed through the store's
 *  checkpoint cache when a store directory is configured. */
inline void
benchWarmupFork(exp::SweepRunner &runner, const std::string &store_dir)
{
    if (store_dir.empty()) {
        runner.setWarmupFork(true, "");
        return;
    }
    const std::string ckpt_dir = store_dir + "/ckpt";
    std::error_code ec;
    std::filesystem::create_directories(ckpt_dir, ec);
    if (ec)
        fatal("cannot create " + ckpt_dir + ": " + ec.message());
    runner.setWarmupFork(true, ckpt_dir);
}

/** Fetch an ok job result or die with the job's captured error. */
inline const RunResult &
require(const exp::JobResult &r)
{
    if (!r.ok)
        fatal("job '" + r.label + "' failed: " + r.error);
    return r.result;
}

/** Print a banner naming the experiment. */
inline void
banner(const std::string &title, const std::string &what)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("%s\n", what.c_str());
    std::printf("==============================================================\n");
}

/** Run one mix under @p cfg with the given policy. */
inline RunResult
runPolicy(SystemConfig cfg, PolicyKind policy, const Mix &mix,
          std::uint64_t instr, std::uint64_t salt = 0)
{
    cfg.policy = policy;
    return runMix(cfg, mix, instr, salt);
}

/** Queue runPolicy() as a sweep job; returns its submission index. */
inline std::size_t
queuePolicy(exp::SweepRunner &runner, const SystemConfig &cfg,
            PolicyKind policy, const Mix &mix, std::uint64_t instr,
            std::uint64_t salt = 0)
{
    exp::JobSpec spec;
    spec.cfg = cfg;
    spec.mix = mix;
    spec.policy = policy;
    spec.instr = instr;
    spec.seedSalt = salt;
    return runner.add(std::move(spec));
}

/** Queue an alone-IPC run (custom job; result.ipc = {alone_ipc}). */
inline std::size_t
queueAloneIpc(exp::SweepRunner &runner, const SystemConfig &cfg,
              const WorkloadProfile &profile, std::uint64_t instr,
              std::uint64_t salt = 0)
{
    exp::JobSpec spec;
    spec.cfg = cfg;
    spec.instr = instr;
    spec.seedSalt = salt;
    spec.label = profile.name + "/alone";
    spec.custom = [cfg, profile, instr, salt] {
        RunResult r;
        r.mixName = profile.name;
        r.ipc = {aloneIpc(cfg, profile, instr, salt)};
        return r;
    };
    return runner.add(std::move(spec));
}

/** Throughput-normalized speedup (rate-mode weighted speedup). */
inline double
speedup(const RunResult &test, const RunResult &base)
{
    return test.throughput() / base.throughput();
}

/** Collector printing per-workload rows plus a geometric mean. */
class SpeedupTable
{
  public:
    explicit SpeedupTable(std::string header) : header_(std::move(header))
    {
        std::printf("%-18s %s\n", "workload", header_.c_str());
    }

    void
    row(const std::string &name, const std::vector<double> &values)
    {
        if (columns_.empty())
            columns_.resize(values.size());
        std::printf("%-18s", name.c_str());
        for (std::size_t i = 0; i < values.size(); ++i) {
            std::printf(" %10.3f", values[i]);
            columns_[i].push_back(values[i]);
        }
        std::printf("\n");
        std::fflush(stdout);
    }

    void
    finish(const char *label = "GMEAN")
    {
        std::printf("%-18s", label);
        for (auto &col : columns_) {
            // Delta columns (hit-rate changes) can be non-positive:
            // fall back to the arithmetic mean for those.
            bool all_positive = true;
            for (double v : col)
                all_positive &= v > 0.0;
            std::printf(" %10.3f",
                        all_positive ? geomean(col) : mean(col));
        }
        std::printf("\n");
    }

    std::vector<double> column(std::size_t i) const { return columns_[i]; }

  private:
    std::string header_;
    std::vector<std::vector<double>> columns_;
};

} // namespace dapsim::bench

#endif // DAPSIM_BENCH_BENCH_UTIL_HH
