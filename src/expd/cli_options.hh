/**
 * @file
 * The command-line front door of dapsim, dapsim_sweep and dapsim_expd:
 * one option table (cli_options.cc, DESIGN.md §17) drives argv
 * parsing, usage text and the manifest coding of GridOptions. It is
 * library code because perfbench compiles tools/dapsim_cli.cc on its
 * own against the dapsim library.
 */

#ifndef DAPSIM_EXPD_CLI_OPTIONS_HH
#define DAPSIM_EXPD_CLI_OPTIONS_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "expd/grid.hh"
#include "expd/worker.hh"

namespace dapsim::expd
{

/** The front doors; each option row holds a mask of these. */
enum Tool : unsigned
{
    kDapsim = 1,
    kSweep = 2,
    kExpd = 4,
};

/** Everything a front door sets: the grid plus each tool's extras. */
struct CliOptions
{
    /** dapsim takes exactly one value in each list. */
    GridOptions grid;

    // dapsim
    std::string trace;
    Cycle window = 64;
    double efficiency = 0.75;
    std::string saveCkpt;
    std::string restoreCkpt;
    std::string sampleOut;
    std::string dapTraceFile;
    std::string chromeTraceFile;
    bool stats = false;

    // dapsim and dapsim_sweep
    std::uint64_t sampleEvery = 0;
    std::string sampleFormat = "jsonl";
    bool list = false;

    // dapsim_sweep
    std::uint64_t jobs = 1;
    std::string jsonPath;
    std::string submitStore;
    std::string ckptDir;
    std::string obsDir;
    std::string phaseTracePath;
    bool dryRun = false;
    bool warmupFork = false;
    bool dapTrace = false;
    bool chromeTrace = false;
    bool quiet = false;

    // dapsim_expd
    WorkerOptions worker;
    std::string outPath;
};

/** A flag or value the front door rejects; what() names the flag, the
 *  text and the expected form. */
struct OptionError : std::runtime_error
{
    OptionError(const std::string &flag, const std::string &what)
        : std::runtime_error(what), flag(flag)
    {}

    std::string flag; ///< as typed: "--instr", or an unknown word
};

/** @p tool's defaults with @p args (flags and values, without the
 *  program name or command) applied in order; throws OptionError. */
CliOptions parseOptions(Tool tool, const std::vector<std::string> &args);

/** @p tool's usage text: a synopsis, then one line per option. */
std::string usage(Tool tool);

/** main()'s front door: parseOptions over argv[1, argc). An
 *  OptionError prints the usage and a `fatal:` line and exits 1;
 *  --list prints the workload catalog and exits 0. */
CliOptions parseCommandLine(Tool tool, int argc, char **argv);

/** dapsim's configuration: archConfig (or, for dapsim only, the
 *  MS$-less "none"), the per-point mapping expandGrid applies, then
 *  dapsim's own knobs. fatal() on an unknown arch, policy or fidelity,
 *  or on an unpaired --sample-every/--sample-out. */
SystemConfig dapsimConfig(const CliOptions &o);

} // namespace dapsim::expd

#endif // DAPSIM_EXPD_CLI_OPTIONS_HH
