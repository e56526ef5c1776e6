#include "expd/worker.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include <unistd.h>

#include "common/fsio.hh"
#include "exp/result_sink.hh"
#include "exp/warmup_cache.hh"

namespace dapsim::expd
{

WorkerStats
runWorker(const WorkerOptions &opt)
{
    if (opt.shardCount == 0 || opt.shardIndex >= opt.shardCount)
        throw StoreError("expq: worker shard must be i/N with i < N");
    // Store::tryLease reaps a lease when its age > TTL: a NaN TTL never
    // reaps a dead worker's lease, and a negative one reaps live ones.
    if (!(opt.leaseTtlSec > 0.0))
        throw StoreError("expq: worker --lease-ttl must be > 0 seconds");

    const Store store = Store::open(opt.storeDir);
    // std::string("w") + ... rather than "w" + ...: the const char*
    // overload routes through insert(), which GCC 12's -Wrestrict
    // misanalyzes at -O3 (false positive; CI builds with -Werror).
    const std::string worker_id =
        opt.workerId.empty() ? std::string("w") + std::to_string(::getpid())
                             : opt.workerId;
    const Replay before = store.replay();
    const exp::WarmupCache warmups(store.ckptDir(), opt.leaseTtlSec);
    fsio::AppendFile events(store.eventsPath(worker_id));

    // Heartbeat thread: keeps the currently-held lease fresh so slow
    // jobs are not reaped out from under a healthy worker.
    std::atomic<long long> held{-1};
    std::atomic<bool> stop{false};
    std::thread heartbeat([&] {
        const auto step = std::chrono::milliseconds(100);
        auto next = std::chrono::steady_clock::now();
        while (!stop.load()) {
            std::this_thread::sleep_for(step);
            if (std::chrono::steady_clock::now() < next)
                continue;
            const long long i = held.load();
            if (i >= 0)
                store.heartbeat(static_cast<std::size_t>(i));
            next = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(
                           opt.leaseTtlSec / 4.0));
        }
    });

    WorkerStats stats;
    // The checkpoint of the group this worker is running. A grid lists
    // a group's jobs next to each other, so it is dropped when a job of
    // another group starts, before that group's is prepared.
    std::string ckpt_group;
    ckpt::CheckpointView group_ckpt;
    // Run job @p i, whose lease this worker holds, and record it.
    auto runLeased = [&](std::size_t i, const ExpandedJob &job) {
        events.append(startRecord(i, worker_id));
        if (job.group != ckpt_group) {
            group_ckpt = {};
            ckpt_group = job.group;
            if (!job.group.empty()) {
                exp::WarmupCache::Result shared = warmups.ensure(job.spec);
                group_ckpt = std::move(shared.ckpt);
                if (shared.executed || shared.reused) {
                    events.append(warmupRecord(job.group, worker_id,
                                               shared.executed));
                    stats.warmupsExecuted += shared.executed ? 1 : 0;
                    stats.warmupsReused += shared.reused ? 1 : 0;
                }
            }
        }
        const exp::JobResult r = exp::runJob(job.spec, i, group_ckpt);
        const std::string row = exp::jobResultToJson(r);
        if (r.ok) {
            events.append(doneRecord(i, worker_id, row));
            ++stats.executed;
        } else {
            fsio::atomicWriteFile(store.stderrPath(i), r.error + "\n");
            events.append(failedRecord(i, worker_id, r.error, row));
            ++stats.failed;
        }
        if (opt.progress) {
            std::fprintf(stderr, "[%s] job %zu %s %s\n",
                         worker_id.c_str(), i,
                         job.spec.displayLabel().c_str(),
                         r.ok ? "done" : ("FAILED: " + r.error).c_str());
            std::fflush(stderr);
        }
    };

    const std::size_t n = store.jobs().size();
    for (std::size_t i = opt.shardIndex; i < n; i += opt.shardCount) {
        if (opt.maxJobs != 0 &&
            stats.executed + stats.failed >= opt.maxJobs)
            break;
        const ExpandedJob &job = store.jobs()[i];
        // A live owner elsewhere holds the lease: if it dies, a later
        // pass (or `resume`) reaps the stale lease; if it finishes, the
        // done event is already durable. Either way skipping is safe —
        // and even a lost race that re-runs the job writes a
        // bit-identical row.
        if (before.jobs[i].state == JobState::State::Done ||
            !store.tryLease(i, opt.leaseTtlSec)) {
            ++stats.skipped;
        } else {
            held.store(static_cast<long long>(i));
            try {
                runLeased(i, job);
            } catch (...) {
                held.store(-1);
                store.releaseLease(i);
                stop.store(true);
                heartbeat.join();
                throw;
            }
            held.store(-1);
            store.releaseLease(i);
        }
    }

    stop.store(true);
    heartbeat.join();
    return stats;
}

} // namespace dapsim::expd
