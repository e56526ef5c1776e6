/**
 * @file
 * SweepRunner: expand parameter grids into jobs, run them on worker
 * threads that schedule around shared warm-ups, and deliver results in
 * submission order.
 *
 * Determinism contract: every job builds its own EventQueue, System,
 * and generator Rngs from the spec alone (audited: the simulator keeps
 * no global mutable state — see exp/job.hh), so the metrics of a sweep
 * are bit-identical whether it runs on 1 thread or N. Only the
 * wall-clock time and the stderr progress interleaving change.
 *
 * Failure isolation: a job that throws is delivered as a failed
 * JobResult carrying the exception text; the rest of the sweep
 * completes normally.
 */

#ifndef DAPSIM_EXP_SWEEP_RUNNER_HH
#define DAPSIM_EXP_SWEEP_RUNNER_HH

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exp/job.hh"
#include "exp/result_sink.hh"
#include "exp/warmup_cache.hh"

namespace dapsim::exp
{

/** Runs a batch of JobSpecs and reports ordered results. */
class SweepRunner
{
  public:
    /** Add one job; returns its submission index. */
    std::size_t add(JobSpec spec);

    /** Cross-product convenience: every policy for every mix under
     *  @p cfg. Jobs are added mix-major (all policies of mix 0, then
     *  mix 1, ...). Returns the index of the first added job. */
    std::size_t addGrid(const SystemConfig &cfg,
                        const std::vector<Mix> &mixes,
                        const std::vector<PolicyKind> &policies,
                        std::uint64_t instr,
                        std::uint64_t seed_salt = 0);

    /** Attach a sink; consume() is called in submission order. */
    void addSink(ResultSink *sink) { sinks_.push_back(sink); }

    /** Report per-job progress lines to stderr (default off). */
    void setProgress(bool on) { progress_ = on; }

    /**
     * Warmup-fork mode: group jobs by their checkpoint stateHash
     * (configuration x stream x seed x warm-up length — in practice
     * (arch, workload, warmup) tuples), execute the shared functional
     * warm-up ONCE per group, snapshot it, and fork every other job of
     * the group from the in-memory checkpoint with its own policy and
     * fresh statistics. Results are bit-identical to a non-forked
     * sweep because the warm state never depends on the policy.
     * Workers overlap the warm-ups of different groups, and the group
     * is the checkpoint's only in-process owner: it is freed once the
     * group's last job has restored (see run()). A runner that is
     * never switched on runs every job unforked.
     *
     * With a non-empty @p ckpt_dir the per-group checkpoints are also
     * kept on disk as `warmup-<statehash>.ckpt` and reused by later
     * sweeps; unreadable or mismatched files are regenerated. The
     * directory is a fleet-wide WarmupCache: checkpoints are published
     * with atomic renames and creation is guarded by a lock file, so
     * any number of concurrent sweeps (or expd workers) sharing the
     * directory simulate each warmup exactly once. Custom jobs and
     * jobs that would fail validation run unforked, and so does a
     * group of one job when there is no @p ckpt_dir: forking it would
     * only add a capture and a restore.
     */
    void
    setWarmupFork(bool on, std::string ckpt_dir = "")
    {
        warmupFork_ = on;
        ckptDir_ = std::move(ckpt_dir);
    }

    /** Shared warm-ups actually executed (not loaded from disk) by the
     *  last run() — for tests and telemetry. */
    std::uint64_t warmupsExecuted() const { return warmupsExecuted_; }

    /**
     * Write a Chrome trace_event file of wall-clock job execution
     * after run(): one track per worker thread, one span per job
     * (category "job" or "failed"), plus shared warm-up spans. Spans
     * are collected during the run and written single-threaded at the
     * end, so the trace never perturbs job scheduling.
     */
    void setPhaseTrace(std::string path) { phaseTracePath_ = std::move(path); }

    std::size_t jobCount() const { return specs_.size(); }

    /**
     * Run every job on @p threads workers (1 = serial on the calling
     * thread) and return results indexed by submission order. Sinks
     * receive each result as soon as its submission-order predecessors
     * have been delivered, regardless of completion order.
     *
     * Scheduling: a free worker claims the lowest-index ready job — one
     * that is unforked or whose group checkpoint exists. When none is
     * ready it claims the first job of the next group whose warm-up has
     * not started and runs that warm-up inside the job (a lone job
     * without a checkpoint directory runs unforked). A worker waits
     * only when every unclaimed job belongs to a group whose warm-up
     * is running. At most @p threads checkpoints are live at once.
     */
    std::vector<JobResult> run(std::size_t threads = 1);

  private:
    /** One warmup-fork group: jobs sharing a post-warmup state. */
    struct ForkGroup
    {
        std::uint64_t stateHash = 0;
        enum class Warm { NotStarted, Running, Done };
        Warm warm = Warm::NotStarted;
        /** Shared snapshot while the group has unclaimed jobs; null
         *  once the last one has taken it, and when preparation failed
         *  (the group's jobs then run their own warm-up). */
        ckpt::CheckpointView ckpt;
        /** Jobs of the group no worker has claimed yet. */
        std::size_t unclaimed = 0;
    };

    /** A job a worker has claimed. */
    struct Claim
    {
        std::size_t index = 0;
        ForkGroup *group = nullptr;
        /** Run the group's warm-up before the job. */
        bool warm = false;
        /** The group checkpoint the job forks from (empty: unforked). */
        ckpt::CheckpointView ckpt;
    };

    /** Deliver any contiguous completed prefix to the sinks. A sink
     *  that throws (e.g. the JSON-lines sink on a full disk) marks the
     *  affected job failed instead of aborting the sweep. */
    void drainReady();

    /** Map each job to its fork group (null = run unforked). */
    void buildForkGroups();

    /** Claim the next job per the run() policy (caller holds mutex_);
     *  false when none can start now. */
    bool claim(Claim &c);

    /** Run @p c's group warm-up, publish the checkpoint to the rest of
     *  the group, and store the job's own reference in @p c.ckpt. */
    void warmUp(Claim &c);

    /** Run a claimed job (its group warm-up first, if it owns it). */
    JobResult execute(Claim c);

    /** Claim, execute and finish jobs until none are left. */
    void workerLoop();

    /** Record job @p i's result and deliver what is in order. */
    void finish(std::size_t i, JobResult r);

    /** One wall-clock span for the phase trace. */
    struct PhaseSpan
    {
        std::string name;
        std::string cat;
        double startUs = 0;
        double endUs = 0;
        std::size_t worker = 0;
    };

    /** Ordinal of the calling worker thread (assigned on first use). */
    std::size_t workerOrdinal();

    /** Record one span (thread-safe; no-op without a phase trace). */
    void recordSpan(const std::string &name, const std::string &cat,
                    double start_us, double end_us);

    /** Microseconds since run() started. */
    double nowUs() const;

    void writePhaseTrace();

    std::vector<JobSpec> specs_;
    std::vector<ResultSink *> sinks_;
    bool progress_ = false;

    bool warmupFork_ = false;
    std::string ckptDir_;
    std::uint64_t warmupsExecuted_ = 0;
    std::map<std::uint64_t, ForkGroup> groups_;
    std::vector<ForkGroup *> jobGroup_;

    // run() state, guarded by mutex_ (the group fields above too)
    std::mutex mutex_;
    /** Signalled when a warm-up finishes and its group's jobs become
     *  ready. */
    std::condition_variable warmDone_;
    std::vector<bool> claimed_;
    std::size_t firstUnclaimed_ = 0;
    std::vector<JobResult> results_;
    std::vector<bool> done_;
    std::size_t nextToDeliver_ = 0;
    std::size_t completed_ = 0;

    // Phase-trace state
    std::string phaseTracePath_;
    std::chrono::steady_clock::time_point epoch_;
    std::mutex phaseMutex_;
    std::vector<PhaseSpan> phaseSpans_;
    std::map<std::thread::id, std::size_t> workerIds_;
};

} // namespace dapsim::exp

#endif // DAPSIM_EXP_SWEEP_RUNNER_HH
