/**
 * @file
 * dapsim_sweep — parallel grid-sweep driver.
 *
 * Expands an arch x capacity x policy x workload grid into jobs, runs
 * them on --jobs worker threads, and writes results as a console table
 * and/or a JSON-lines artifact. Results are emitted in grid order no
 * matter how jobs interleave, and the metrics are bit-identical for any
 * --jobs value (each job owns its whole simulation state).
 *
 * The grid expansion itself lives in src/expd/grid.cc and is shared
 * with the persistent experiment service: --dry-run prints the
 * expansion (stable job ids + warmup group keys) without simulating,
 * and --store DIR submits the grid to a durable `dapsim.expq.v1`
 * store for dapsim_expd workers instead of running it here. The flags
 * come from the option table in src/expd/cli_options.hh.
 *
 * Examples:
 *   dapsim_sweep --policy baseline,dap --workload sensitive --jobs 4
 *   dapsim_sweep --arch sectored,alloy --workload mcf,lbm \
 *                --jobs 8 --json bench/out/sweep.jsonl
 *   dapsim_sweep --capacity-mb 32,64,128 --policy dap --workload all
 *   dapsim_sweep --workload all --dry-run
 *   dapsim_sweep --workload all --store bench/out/store
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "exp/result_sink.hh"
#include "exp/sweep_runner.hh"
#include "expd/cli_options.hh"
#include "expd/store.hh"

using namespace dapsim;

namespace
{

/** Filesystem-safe job label: '/' and other separators become '_'. */
std::string
sanitizeLabel(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
              c == '.'))
            c = '_';
    }
    return out;
}

/** `DIR/job###-<label>` — the per-job observability path stem. */
std::string
obsStem(const std::string &dir, std::size_t index,
        const std::string &label)
{
    char num[16];
    std::snprintf(num, sizeof(num), "job%03zu", index);
    return dir + "/" + num + "-" + sanitizeLabel(label);
}

} // namespace

int
main(int argc, char **argv)
{
    const expd::CliOptions opt =
        expd::parseCommandLine(expd::kSweep, argc, argv);
    const bool csv = opt.sampleFormat == "csv";

    // Per-job observability (see src/obs/): every selected output goes
    // to its own file under --obs-dir, so parallel jobs never
    // interleave a stream.
    const bool perJobObs =
        opt.sampleEvery != 0 || opt.dapTrace || opt.chromeTrace;
    if (perJobObs && opt.obsDir.empty())
        fatal("--sample-every/--dap-trace/--chrome-trace require "
              "--obs-dir");
    if (!opt.obsDir.empty() && !perJobObs)
        fatal("--obs-dir needs --sample-every, --dap-trace or "
              "--chrome-trace");
    for (const std::string &dir :
         {perJobObs ? opt.obsDir : "", opt.ckptDir}) {
        std::error_code ec;
        if (!dir.empty())
            std::filesystem::create_directories(dir, ec);
        if (ec)
            fatal("cannot create " + dir + ": " + ec.message());
    }

    if (opt.dryRun) {
        const auto expanded = expd::expandGrid(opt.grid);
        for (std::size_t i = 0; i < expanded.size(); ++i)
            std::printf("%zu\t%s\t%s\t%s\n", i,
                        expanded[i].id.c_str(),
                        expanded[i].group.empty()
                            ? "-"
                            : expanded[i].group.c_str(),
                        expanded[i].spec.displayLabel().c_str());
        return 0;
    }

    if (!opt.submitStore.empty()) {
        try {
            const expd::Store store =
                expd::Store::create(opt.submitStore, opt.grid);
            std::fprintf(stderr,
                         "submitted %zu jobs to %s; run workers "
                         "with:\n  dapsim_expd run --store %s\n",
                         store.jobs().size(), opt.submitStore.c_str(),
                         opt.submitStore.c_str());
        } catch (const std::exception &e) {
            fatal(e.what());
        }
        return 0;
    }

    std::vector<expd::ExpandedJob> expanded =
        expd::expandGrid(opt.grid);
    if (expanded.empty())
        fatal("empty sweep grid");

    exp::SweepRunner runner;
    for (expd::ExpandedJob &job : expanded) {
        if (perJobObs && !job.spec.custom) {
            const std::string stem = obsStem(
                opt.obsDir, runner.jobCount(),
                job.spec.mix.name + "/" +
                    exp::policyKindName(job.spec.policy));
            if (opt.sampleEvery) {
                job.spec.cfg.obs.sampleEvery = opt.sampleEvery;
                job.spec.cfg.obs.sampleFormat =
                    csv ? obs::SampleFormat::Csv
                        : obs::SampleFormat::Jsonl;
                job.spec.cfg.obs.sampleOut =
                    stem + (csv ? ".samples.csv" : ".samples.jsonl");
            }
            if (opt.dapTrace)
                job.spec.cfg.obs.dapTrace = stem + ".daptrace.jsonl";
            if (opt.chromeTrace)
                job.spec.cfg.obs.chromeTrace = stem + ".trace.json";
        }
        runner.add(std::move(job.spec));
    }

    exp::ConsoleTableSink console;
    if (!opt.quiet)
        runner.addSink(&console);

    std::ofstream json_file;
    exp::JsonLinesSink json_sink(json_file);
    if (!opt.jsonPath.empty()) {
        json_file.open(opt.jsonPath);
        if (!json_file)
            fatal("cannot open " + opt.jsonPath + " for writing");
        runner.addSink(&json_sink);
    }

    const bool fork = opt.warmupFork || !opt.ckptDir.empty();
    if (fork)
        runner.setWarmupFork(true, opt.ckptDir);
    if (!opt.phaseTracePath.empty())
        runner.setPhaseTrace(opt.phaseTracePath);

    runner.setProgress(true);
    const auto results = runner.run(std::max<std::size_t>(opt.jobs, 1));

    std::size_t failed = 0;
    for (const auto &r : results)
        failed += r.ok ? 0 : 1;
    std::fprintf(stderr, "sweep complete: %zu jobs, %zu failed\n",
                 results.size(), failed);
    if (fork)
        std::fprintf(stderr,
                     "warmup-fork: %llu shared warm-ups executed\n",
                     static_cast<unsigned long long>(
                         runner.warmupsExecuted()));
    return failed == results.size() ? 1 : 0;
}
