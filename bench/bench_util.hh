/**
 * @file
 * The paper harness (DESIGN.md §18). Each figure regenerates one table
 * or figure of the paper: it adds its simulations to a shared Plan and
 * returns a Report that prints the paper's rows/series from their
 * results once the batch has run. Absolute values are not expected to
 * match the authors' testbed; the *shape* (who wins, by roughly what
 * factor, where crossovers fall) is the reproduction target.
 */

#ifndef DAPSIM_BENCH_BENCH_UTIL_HH
#define DAPSIM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/log.hh"
#include "common/parse_number.hh"
#include "exp/sweep_runner.hh"
#include "sim/presets.hh"

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
 * A planned job's result. It is filled in when the batch runs, so a
 * figure reads it only from its Report; the Plan owns it.
 */
using Job = const RunResult *;

/** Prints a figure from its jobs' results after the batch. */
using Report = std::function<void()>;

/**
 * The batch of simulations the selected figures declare. One
 * exp::SweepRunner runs it with warmup-fork on. A standard job whose
 * exp::jobId equals that of a job already planned is the same job:
 * it runs once and both figures read its result. Custom jobs never
 * merge, because their id is only their label.
 */
class Plan
{
  public:
    /** Add @p spec; returns the handle of its result. */
    Job add(exp::JobSpec spec);

    /** Add the standard job that runs @p mix under @p cfg and
     *  @p policy for benchInstructions() per core. */
    Job add(const SystemConfig &cfg, PolicyKind policy, const Mix &mix);

    /** Run every planned job on @p threads workers, sharing warm-ups
     *  through @p store's checkpoint cache when it is not empty.
     *  fatal() when a job fails. */
    void run(std::size_t threads, const std::string &store);

  private:
    const std::uint64_t instr_ = benchInstructions();
    exp::SweepRunner runner_;
    std::size_t submissions_ = 0;
    /** exp::jobContentHash -> runner index, for standard jobs. */
    std::map<std::uint64_t, std::size_t> ids_;
    /** By runner index; a deque, so handles stay valid as it grows. */
    std::deque<RunResult> results_;
};

/** A table row's values, read from its jobs' results after the batch. */
using Values = std::function<std::vector<double>()>;

/** A table row: a workload or scenario name and its values. */
struct Row
{
    std::string name;
    Values values;
};

/** Prints @p rows under @p header, then @p footer with each column's
 *  geometric mean, or its arithmetic mean where a value is not
 *  positive (hit-rate deltas). */
Report table(const std::string &header, std::vector<Row> rows,
             const std::string &footer = "GMEAN");

/** Each (base, test) run's speedup of test over base. */
Values speedups(std::vector<std::pair<Job, Job>> runs);

/** DAP's speedup over the baseline for each bandwidth-sensitive
 *  workload at rate @p copies, one column per config in @p configs. */
Report dapSpeedupTable(Plan &plan, const std::vector<SystemConfig> &configs,
                       const std::string &header, std::uint32_t copies = 8);

// The figures, one per source file, in DESIGN.md §4 order.
Report fig01BwVsHitrate(Plan &);
Report fig02EdramCapacity(Plan &);
Report fig04BwSensitivity(Plan &);
Report fig05TagCache(Plan &);
Report fig06DapSectored(Plan &);
Report fig07DapDecisions(Plan &);
Report fig08CasFraction(Plan &);
Report table1Sensitivity(Plan &);
Report fig09MmTechnology(Plan &);
Report fig10CacheScaling(Plan &);
Report fig11Related(Plan &);
Report fig12AllWorkloads(Plan &);
Report fig13SixteenCore(Plan &);
Report fig14Alloy(Plan &);
Report fig15Edram(Plan &);
Report ablationDap(Plan &);
Report figWorkloadStress(Plan &);
Report figTieredSweep(Plan &);

/** The main() of every figure binary: run the figure named @p binary,
 *  or with "paper" every figure of the paper, as one batch. Accepts
 *  --jobs N and --store DIR; anything else prints the usage and exits
 *  1. */
int runFigures(std::string_view binary, int argc, char **argv);

/** Print a banner naming the experiment. */
inline void
banner(const std::string &title, const std::string &what)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("%s\n", what.c_str());
    std::printf("==============================================================\n");
}

/** Throughput-normalized speedup (rate-mode weighted speedup). */
inline double
speedup(const RunResult &test, const RunResult &base)
{
    return test.throughput() / base.throughput();
}

} // namespace dapsim::bench

#endif // DAPSIM_BENCH_BENCH_UTIL_HH
