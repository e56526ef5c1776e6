/**
 * @file
 * dapsim_expd — the persistent experiment service CLI.
 *
 * Drives a durable `dapsim.expq.v1` store (see src/expd/store.hh):
 *
 *   submit       expand a grid and persist it as a new store
 *   run          execute (a shard of) the store's pending jobs
 *   resume       after a crash: replay the ledger, re-verify result
 *                rows, and run every job still pending
 *   status       per-worker progress, ETA, failed-job diagnostics
 *   merge        write the verbatim result rows in grid order —
 *                byte-identical to a serial `dapsim_sweep --json`
 *   retry-failed clear failure records so workers re-run those jobs
 *
 * Workers may run concurrently on any machines sharing the store
 * directory; a SIGKILLed worker's leases expire and its jobs return
 * to pending, while its completed jobs stay durable.
 *
 * Examples:
 *   dapsim_expd submit --store out/q --workload all --policy dap
 *   dapsim_expd run --store out/q --shard 0/2 &
 *   dapsim_expd run --store out/q --shard 1/2 &
 *   dapsim_expd status --store out/q
 *   dapsim_expd resume --store out/q
 *   dapsim_expd merge --store out/q --out results.jsonl
 *
 * The flags come from the option table in src/expd/cli_options.hh.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/fsio.hh"
#include "common/log.hh"
#include "expd/cli_options.hh"
#include "expd/store.hh"
#include "expd/worker.hh"

#include <unistd.h>

using namespace dapsim;

namespace
{

int
cmdStatus(const expd::Store &store)
{
    const expd::Replay replay = store.replay();
    const std::size_t total = store.jobs().size();
    const std::size_t done =
        replay.countState(expd::JobState::State::Done);
    const std::size_t failed =
        replay.countState(expd::JobState::State::Failed);
    const std::size_t pending = total - done - failed;
    std::size_t leased = 0;
    for (std::size_t i = 0; i < total; ++i)
        leased += store.leased(i) ? 1 : 0;

    std::printf("store: %s\n", store.dir().c_str());
    std::printf("jobs: %zu total, %zu done, %zu failed, %zu pending "
                "(%zu leased)\n",
                total, done, failed, pending, leased);
    if (replay.droppedTornTail)
        std::printf("note: a torn trailing ledger record was dropped "
                    "(crashed writer)\n");

    for (const auto &[worker, count] : replay.doneByWorker)
        std::printf("  worker %-16s %llu done\n", worker.c_str(),
                    static_cast<unsigned long long>(count));

    if (done >= 2 && pending > 0 &&
        replay.lastDoneAt > replay.firstDoneAt) {
        const double rate =
            static_cast<double>(done - 1) /
            (replay.lastDoneAt - replay.firstDoneAt);
        std::printf("eta: %.0f s for %zu pending jobs (%.2f jobs/s "
                    "observed)\n",
                    static_cast<double>(pending) / rate, pending,
                    rate);
    }

    for (std::size_t i = 0; i < total; ++i) {
        const expd::JobState &job = replay.jobs[i];
        if (job.state != expd::JobState::State::Failed)
            continue;
        std::printf("failed job %zu (%s): %s\n  stderr: %s\n", i,
                    store.jobs()[i].spec.displayLabel().c_str(),
                    job.error.c_str(), store.stderrPath(i).c_str());
    }
    return failed > 0 ? 2 : (pending > 0 ? 1 : 0);
}

int
cmdMerge(const expd::Store &store, const std::string &out_path)
{
    const std::vector<std::string> rows =
        store.mergedRows(store.replay());
    std::ofstream file;
    std::ostream *os = &std::cout;
    if (!out_path.empty()) {
        file.open(out_path, std::ios::binary);
        if (!file)
            fatal("cannot open " + out_path + " for writing");
        os = &file;
    }
    for (const std::string &row : rows)
        *os << row << '\n';
    os->flush();
    if (!*os)
        fatal("merge: write failed");
    return 0;
}

int
cmdRetryFailed(const expd::Store &store)
{
    const expd::Replay replay = store.replay();
    fsio::AppendFile events(store.eventsPath(
        "retry" + std::to_string(::getpid())));
    std::size_t cleared = 0;
    for (std::size_t i = 0; i < replay.jobs.size(); ++i) {
        const expd::JobState &job = replay.jobs[i];
        if (job.state != expd::JobState::State::Failed)
            continue;
        // One retry record per outstanding failure so the count rule
        // (failed > retries => failed) flips the job back to pending.
        for (std::uint64_t k = job.retries; k < job.failures; ++k)
            events.append(expd::retryRecord(i));
        ++cleared;
    }
    std::printf("retry-failed: %zu jobs returned to pending\n",
                cleared);
    return 0;
}

int
cmdResume(const expd::Store &store, expd::WorkerOptions opt)
{
    // Replay and re-verify every recorded result row against the
    // manifest before running anything new — resume refuses to extend
    // a store whose history is already inconsistent.
    const expd::Replay replay = store.replay();
    std::size_t verified = 0;
    for (std::size_t i = 0; i < replay.jobs.size(); ++i) {
        const expd::JobState &job = replay.jobs[i];
        if (job.row.empty())
            continue;
        store.verifyRow(i, job.row);
        ++verified;
    }
    std::fprintf(stderr,
                 "resume: %zu recorded rows verified, %zu jobs "
                 "pending%s\n",
                 verified,
                 replay.countState(expd::JobState::State::Pending),
                 replay.droppedTornTail
                     ? " (dropped a torn trailing record)"
                     : "");

    opt.shardIndex = 0;
    opt.shardCount = 1;
    if (opt.workerId.empty())
        opt.workerId = "resume" + std::to_string(::getpid());
    const expd::WorkerStats stats = expd::runWorker(opt);
    std::fprintf(stderr,
                 "resume: %llu executed, %llu failed, %llu skipped\n",
                 static_cast<unsigned long long>(stats.executed),
                 static_cast<unsigned long long>(stats.failed),
                 static_cast<unsigned long long>(stats.skipped));

    const expd::Replay after = store.replay();
    return after.countState(expd::JobState::State::Pending) == 0 ? 0
                                                                 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fputs(expd::usage(expd::kExpd).c_str(), stderr);
        return 1;
    }
    const std::string cmd = argv[1];
    const expd::CliOptions opt =
        expd::parseCommandLine(expd::kExpd, argc - 1, argv + 1);
    const expd::WorkerOptions &worker = opt.worker;
    const std::string &store_dir = worker.storeDir;
    if (store_dir.empty())
        fatal("dapsim_expd: --store DIR is required");

    try {
        if (cmd == "submit") {
            const expd::Store store =
                expd::Store::create(store_dir, opt.grid);
            std::printf("submitted %zu jobs to %s\n",
                        store.jobs().size(), store_dir.c_str());
            return 0;
        }
        if (cmd == "run") {
            const expd::WorkerStats stats = expd::runWorker(worker);
            std::fprintf(
                stderr,
                "worker done: %llu executed, %llu failed, %llu "
                "skipped, %llu warmups executed, %llu reused\n",
                static_cast<unsigned long long>(stats.executed),
                static_cast<unsigned long long>(stats.failed),
                static_cast<unsigned long long>(stats.skipped),
                static_cast<unsigned long long>(
                    stats.warmupsExecuted),
                static_cast<unsigned long long>(stats.warmupsReused));
            return 0;
        }
        const expd::Store store = expd::Store::open(store_dir);
        if (cmd == "status")
            return cmdStatus(store);
        if (cmd == "merge")
            return cmdMerge(store, opt.outPath);
        if (cmd == "retry-failed")
            return cmdRetryFailed(store);
        if (cmd == "resume")
            return cmdResume(store, worker);
    } catch (const std::exception &e) {
        fatal(e.what());
    }
    std::fputs(expd::usage(expd::kExpd).c_str(), stderr);
    return 1;
}
