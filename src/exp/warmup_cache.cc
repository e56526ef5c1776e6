#include "exp/warmup_cache.hh"

#include <chrono>
#include <cstdio>
#include <thread>

#include <unistd.h>

#include "common/fsio.hh"

namespace dapsim::exp
{

WarmupCache::WarmupCache(std::string dir, double lock_ttl_sec)
    : dir_(std::move(dir)), lockTtlSec_(lock_ttl_sec)
{
}

std::string
WarmupCache::checkpointPath(std::uint64_t state_hash) const
{
    return dir_ + "/warmup-" + hashHex(state_hash) + ".ckpt";
}

WarmupCache::Result
WarmupCache::prepare(const JobSpec &spec, std::uint64_t state_hash) const
{
    Result out;
    // The heap checkpoint this call simulated (kept so the acquired
    // branch can publish it to disk after serving the view).
    std::shared_ptr<const ckpt::Checkpoint> simulated;
    auto simulate = [&]() {
        SystemConfig cfg = spec.cfg;
        cfg.policy = spec.policy;
        // The warm-up is the group's, not this job's: it writes none of
        // the job's observability files (obs is outside the state hash).
        cfg.obs = {};
        simulated = std::make_shared<const ckpt::Checkpoint>(
            ckpt::makeWarmupCheckpoint(cfg, spec.mix, spec.instr,
                                       spec.seedSalt));
        out.ckpt = ckpt::viewOf(simulated);
        out.executed = true;
    };

    if (dir_.empty()) {
        simulate();
        return out;
    }

    const std::string path = checkpointPath(state_hash);
    const std::string lock = path + ".lock";
    auto tryLoad = [&]() -> bool {
        try {
            // Serve the published checkpoint as a read-only mapping:
            // every forked job deserializes straight from the page
            // cache, no per-process heap copy of a multi-MB payload.
            ckpt::CheckpointView loaded = ckpt::readFileMapped(path);
            if (loaded.header.stateHash != state_hash)
                return false; // foreign file under our name: recreate
            out.ckpt = std::move(loaded);
            out.reused = true;
            return true;
        } catch (const std::exception &) {
            return false; // missing (or torn pre-atomic-write relic)
        }
    };

    // Bound the wait on a foreign creator: past the deadline we
    // simulate locally — a duplicate warmup, never a wrong result
    // (warmups are deterministic and publication is atomic).
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(2.0 * lockTtlSec_ + 10.0));

    for (;;) {
        if (tryLoad())
            return out;

        bool acquired = false;
        try {
            acquired = fsio::createExclusive(lock, fsio::ownerRecord());
        } catch (const std::exception &e) {
            // Lock dir unwritable: degrade to a local warmup.
            std::fprintf(stderr, "warmup-cache: %s; running warmup "
                                 "locally\n",
                         e.what());
            simulate();
            return out;
        }

        if (acquired) {
            // Double-check: the previous holder may have published
            // between our load attempt and the lock acquisition.
            if (tryLoad()) {
                ::unlink(lock.c_str());
                return out;
            }
            try {
                simulate();
                ckpt::writeFileAtomic(path, *simulated);
            } catch (...) {
                ::unlink(lock.c_str());
                throw;
            }
            ::unlink(lock.c_str());
            return out;
        }

        if (fsio::reapIfStale(lock, lockTtlSec_))
            continue; // re-run the election

        if (std::chrono::steady_clock::now() > deadline) {
            std::fprintf(stderr,
                         "warmup-cache: gave up waiting on %s; "
                         "running warmup locally\n",
                         lock.c_str());
            simulate();
            return out;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

WarmupCache::Result
WarmupCache::ensure(const JobSpec &spec) const
{
    try {
        return prepare(spec, warmupStateHash(spec));
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "warmup-cache: shared warmup failed (%s); group "
                     "runs unforked\n",
                     e.what());
        return {}; // null ckpt: callers run unforked
    }
}

} // namespace dapsim::exp
