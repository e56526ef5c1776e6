#include "exp/sweep_runner.hh"

#include <algorithm>
#include <cinttypes>
#include <fstream>
#include <utility>

#include "obs/chrome_trace.hh"

namespace dapsim::exp
{

std::size_t
SweepRunner::add(JobSpec spec)
{
    specs_.push_back(std::move(spec));
    return specs_.size() - 1;
}

std::size_t
SweepRunner::addGrid(const SystemConfig &cfg,
                     const std::vector<Mix> &mixes,
                     const std::vector<PolicyKind> &policies,
                     std::uint64_t instr, std::uint64_t seed_salt)
{
    const std::size_t first = specs_.size();
    for (const auto &mix : mixes) {
        for (PolicyKind policy : policies) {
            JobSpec spec;
            spec.cfg = cfg;
            spec.mix = mix;
            spec.policy = policy;
            spec.instr = instr;
            spec.seedSalt = seed_salt;
            add(std::move(spec));
        }
    }
    return first;
}

void
SweepRunner::buildForkGroups()
{
    groups_.clear();
    jobGroup_.assign(specs_.size(), nullptr);
    if (!warmupFork_)
        return;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        const JobSpec &spec = specs_[i];
        // Only standard, well-formed jobs fork; everything else keeps
        // the unforked path (and custom jobs have no warm-up to share).
        if (!warmupForkable(spec))
            continue;
        const std::uint64_t key = warmupStateHash(spec);
        ForkGroup &g = groups_[key];
        g.stateHash = key;
        ++g.unclaimed;
        jobGroup_[i] = &g;
    }
}

bool
SweepRunner::claim(Claim &c)
{
    const std::size_t n = specs_.size();
    while (firstUnclaimed_ < n && claimed_[firstUnclaimed_])
        ++firstUnclaimed_;
    // The lowest-index ready job; failing that, the first job of the
    // next group whose warm-up nobody has started.
    std::size_t pick = n;
    bool warm = false;
    for (std::size_t i = firstUnclaimed_; i < n; ++i) {
        if (claimed_[i])
            continue;
        const ForkGroup *g = jobGroup_[i];
        if (g == nullptr || g->warm == ForkGroup::Warm::Done) {
            pick = i;
            warm = false;
            break;
        }
        if (g->warm == ForkGroup::Warm::NotStarted && pick == n) {
            pick = i;
            warm = true;
        }
    }
    if (pick == n)
        return false;

    claimed_[pick] = true;
    c.index = pick;
    c.group = jobGroup_[pick];
    c.warm = warm;
    if (c.group != nullptr) {
        ForkGroup &g = *c.group;
        --g.unclaimed;
        if (warm && g.unclaimed == 0 && ckptDir_.empty()) {
            // A lone job shares its warm-up with no one: it runs
            // unforked, claimed where its group's warm-up would start.
            c.warm = false;
        } else if (warm) {
            g.warm = ForkGroup::Warm::Running;
        } else if (g.unclaimed == 0) {
            c.ckpt = std::exchange(g.ckpt, {});
        } else {
            c.ckpt = g.ckpt;
        }
    }
    return true;
}

void
SweepRunner::warmUp(Claim &c)
{
    ForkGroup &g = *c.group;
    const double start = phaseTracePath_.empty() ? 0.0 : nowUs();
    WarmupCache::Result res = WarmupCache(ckptDir_).ensure(specs_[c.index]);
    // The span ends before the group's other jobs can be claimed.
    recordSpan("warmup " + hashHex(g.stateHash), "warmup", start,
               phaseTracePath_.empty() ? 0.0 : nowUs());
    {
        std::lock_guard lock(mutex_);
        warmupsExecuted_ += res.executed ? 1 : 0;
        g.warm = ForkGroup::Warm::Done;
        if (g.unclaimed != 0)
            g.ckpt = res.ckpt;
    }
    warmDone_.notify_all();
    c.ckpt = std::move(res.ckpt);
}

JobResult
SweepRunner::execute(Claim c)
{
    const std::size_t i = c.index;
    const double start = phaseTracePath_.empty() ? 0.0 : nowUs();
    if (c.warm)
        warmUp(c);
    JobResult r = runJob(specs_[i], i, std::move(c.ckpt));
    recordSpan(specs_[i].displayLabel(), r.ok ? "job" : "failed",
               start, nowUs());
    return r;
}

std::size_t
SweepRunner::workerOrdinal()
{
    std::lock_guard lock(phaseMutex_);
    const auto id = std::this_thread::get_id();
    auto it = workerIds_.find(id);
    if (it != workerIds_.end())
        return it->second;
    const std::size_t ordinal = workerIds_.size();
    workerIds_.emplace(id, ordinal);
    return ordinal;
}

double
SweepRunner::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
SweepRunner::recordSpan(const std::string &name, const std::string &cat,
                        double start_us, double end_us)
{
    if (phaseTracePath_.empty())
        return;
    const std::size_t worker = workerOrdinal();
    std::lock_guard lock(phaseMutex_);
    phaseSpans_.push_back({name, cat, start_us, end_us, worker});
}

void
SweepRunner::writePhaseTrace()
{
    if (phaseTracePath_.empty())
        return;
    std::ofstream os(phaseTracePath_);
    if (!os) {
        std::fprintf(stderr, "sweep: cannot open %s for writing\n",
                     phaseTracePath_.c_str());
        return;
    }
    obs::ChromeTraceWriter trace(os, 0);
    for (const PhaseSpan &s : phaseSpans_)
        trace.span("worker " + std::to_string(s.worker), s.name, s.cat,
                   s.startUs, s.endUs - s.startUs);
    trace.finish();
}

void
SweepRunner::drainReady()
{
    // Caller holds mutex_ (or is single-threaded in serial mode).
    while (nextToDeliver_ < specs_.size() && done_[nextToDeliver_]) {
        JobResult &r = results_[nextToDeliver_];
        // Every sink sees the result as the job produced it; a sink
        // failure is applied afterwards so it cannot hide the row
        // from other sinks, and it fails only this job.
        std::string sink_error;
        for (ResultSink *sink : sinks_) {
            try {
                sink->consume(r);
            } catch (const std::exception &e) {
                sink_error = e.what();
            }
        }
        if (!sink_error.empty() && r.ok) {
            r.ok = false;
            r.error = "result sink failed: " + sink_error;
        }
        ++nextToDeliver_;
    }
}

void
SweepRunner::finish(std::size_t i, JobResult r)
{
    // Caller holds mutex_.
    ++completed_;
    if (progress_) {
        std::fprintf(stderr, "[%zu/%zu] %s %s\n", completed_,
                     specs_.size(), r.label.c_str(),
                     r.ok ? "done" : ("FAILED: " + r.error).c_str());
        std::fflush(stderr);
    }
    results_[i] = std::move(r);
    done_[i] = true;
    drainReady();
}

void
SweepRunner::workerLoop()
{
    std::unique_lock lock(mutex_);
    for (;;) {
        Claim c;
        if (!claim(c)) {
            if (firstUnclaimed_ == specs_.size())
                return;
            // Every unclaimed job waits on a running warm-up.
            warmDone_.wait(lock);
            continue;
        }
        const std::size_t i = c.index;
        lock.unlock();
        JobResult r = execute(std::move(c));
        lock.lock();
        finish(i, std::move(r));
    }
}

std::vector<JobResult>
SweepRunner::run(std::size_t threads)
{
    const std::size_t n = specs_.size();
    results_.assign(n, JobResult{});
    done_.assign(n, false);
    claimed_.assign(n, false);
    firstUnclaimed_ = 0;
    nextToDeliver_ = 0;
    completed_ = 0;
    warmupsExecuted_ = 0;
    epoch_ = std::chrono::steady_clock::now();
    phaseSpans_.clear();
    workerIds_.clear();
    buildForkGroups();

    for (ResultSink *sink : sinks_)
        sink->begin(n);

    if (threads <= 1) {
        workerLoop();
    } else {
        // The caller only waits: simulations allocate in the workers'
        // malloc arenas, not in the one the caller's own code reuses.
        std::vector<std::jthread> workers;
        for (std::size_t w = 0; w < std::min(threads, n); ++w)
            workers.emplace_back([this] { workerLoop(); });
    }

    for (ResultSink *sink : sinks_) {
        try {
            sink->end();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "sweep: sink end() failed: %s\n",
                         e.what());
        }
    }
    writePhaseTrace();

    return std::move(results_);
}

} // namespace dapsim::exp
