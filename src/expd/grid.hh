/**
 * @file
 * Grid definition and deterministic expansion for the experiment
 * service.
 *
 * A GridOptions is the full description of a sweep grid — the same
 * knobs dapsim_sweep takes on its command line. expandGrid() turns it
 * into the ordered list of fully-specified jobs (arch-major, then
 * capacity, workload, policy — the historical dapsim_sweep order), and
 * the expansion is a pure function of the options and the build, so a
 * worker that re-expands a persisted grid reproduces the exact same
 * JobSpecs, job ids and group keys. The `dapsim.expq.v1` store records
 * every job's content hash at submit time and refuses to run when a
 * re-expansion disagrees (a different build or profile table would
 * silently change what "job 17" means).
 *
 * GridOptions round-trips through a canonical JSON encoding
 * (encodeGridOptions / decodeGridOptions) for the store manifest; the
 * command-line option table (cli_options.hh) defines both.
 */

#ifndef DAPSIM_EXPD_GRID_HH
#define DAPSIM_EXPD_GRID_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json_reader.hh"
#include "exp/job.hh"

namespace dapsim::expd
{

/** Everything that defines a sweep grid (mirrors dapsim_sweep flags). */
struct GridOptions
{
    std::vector<std::string> archs{"sectored"};
    std::vector<std::string> policies{"baseline", "dap"};
    std::vector<std::string> workloads{"sensitive"};
    std::vector<std::uint64_t> capacitiesMb{0}; // 0 = preset default
    std::uint32_t cores = 8;
    std::uint64_t instr = 120'000;
    std::uint64_t seed = 0;
    /** Warm-up accesses per core; 0 = the preset-derived default. */
    std::uint64_t warmup = 0;
    bool remote = false;
    double remoteScale = 4.0;
    double remoteLatencyNs = 120.0;
    std::uint32_t remoteOutstanding = 32;
    /** Fidelity mode name ("exact", "sampled", "analytic"); validated
     *  at submit. Reduced-fidelity runs carry a "fidelity" knob so
     *  result rows and job ids stay distinguishable. */
    std::string fidelity = "exact";
    /** Sampled-mode knobs; 0 keeps FidelityConfig defaults. */
    std::uint64_t fidelityDetail = 0;
    std::uint64_t fidelityPeriod = 0;
};

/** One expanded grid point: the runnable spec plus its identity. */
struct ExpandedJob
{
    exp::JobSpec spec;
    std::string id;    ///< exp::jobId content hash
    std::string group; ///< warmup-fork group key ("" = unforkable)
};

/** Base SystemConfig for an arch name + capacity; fatal() on unknown
 *  arch names (reject before submission, like other config errors). */
SystemConfig archConfig(const std::string &arch,
                        std::uint64_t capacity_mb);

/** Apply @p opt's per-point knobs (cores, warm-up, remote tier,
 *  fidelity) to an arch's base config; fatal() on an unknown fidelity
 *  mode. expandGrid and dapsim's configuration share it. */
void applyGridPoint(const GridOptions &opt, SystemConfig &cfg);

/**
 * Expand @p opt into grid order. Unknown workload names become
 * custom error jobs (their grid points surface as failed rows instead
 * of killing the sweep); malformed workload-engine specs fatal()
 * before anything runs. Custom error jobs get group "" and an
 * id derived from their label.
 */
std::vector<ExpandedJob> expandGrid(const GridOptions &opt);

/** Canonical JSON object encoding (the manifest's "options" field). */
std::string encodeGridOptions(const GridOptions &opt);

/** Parse encodeGridOptions() output; throws json::JsonError on
 *  malformed or missing fields. */
GridOptions decodeGridOptions(const json::Value &v);

} // namespace dapsim::expd

#endif // DAPSIM_EXPD_GRID_HH
