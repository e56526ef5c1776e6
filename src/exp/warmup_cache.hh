/**
 * @file
 * Fleet-wide warmup-checkpoint cache with create-once semantics.
 *
 * Warmup checkpoints are content-addressed by the warmup state hash
 * (arch x workload-spec x seed x warm-up length — the same group key
 * SweepRunner's warmup-fork mode uses): `warmup-<16 hex>.ckpt` in a
 * shared directory. Any number of processes — expd workers on several
 * machines sharing a filesystem, concurrent dapsim_sweep invocations,
 * fig benches with --store — can point at one directory and each
 * distinct warmup is simulated exactly once fleet-wide:
 *
 *  - cross-process: a `.lock` file created with O_CREAT|O_EXCL elects
 *    the single creator; everyone else polls for the checkpoint to
 *    appear. Checkpoints are published by temp-file + fsync + atomic
 *    rename, so a reader never observes a torn file (this replaces the
 *    racy direct writeFile the sweep runner used to do).
 *  - crash-safety: a lock whose owner pid is dead (same host) or whose
 *    mtime exceeds the TTL is reaped and the election re-run. At worst
 *    a crashed creator costs one duplicate warmup — never a corrupt or
 *    missing checkpoint, because warmups are deterministic and
 *    publication is atomic.
 *
 * The cache keeps no state: the code that runs a group holds the view
 * ensure() returns for as long as the group needs it (SweepRunner's
 * fork group, the expd worker's current group). With an empty
 * directory every ensure() simulates.
 */

#ifndef DAPSIM_EXP_WARMUP_CACHE_HH
#define DAPSIM_EXP_WARMUP_CACHE_HH

#include <cstdint>
#include <string>

#include "exp/job.hh"

namespace dapsim::exp
{

/** Load-or-create protocol for shared warmup checkpoints. */
class WarmupCache
{
  public:
    /** @p dir empty = simulate on every call. @p lock_ttl_sec bounds
     *  how long a dead foreign creator can stall a group. */
    explicit WarmupCache(std::string dir, double lock_ttl_sec = 300.0);

    struct Result
    {
        /** Empty when the warmup itself failed (callers fall back to
         *  running jobs unforked). On-disk checkpoints are served as
         *  memory-mapped views, so fleet-wide warmup-fork restores
         *  deserialize straight out of the page cache instead of
         *  re-reading and copying the bytes per job. */
        ckpt::CheckpointView ckpt;
        /** THIS call simulated the warmup (vs loaded/waited). */
        bool executed = false;
        /** Satisfied from an on-disk checkpoint made elsewhere. */
        bool reused = false;
    };

    /**
     * Return the group checkpoint for @p spec (which must be
     * warmupForkable()): load it from the directory, or simulate it
     * and, if this caller wins the create-once election, publish it.
     * A failed warm-up yields an empty view. Thread-safe; it keeps
     * nothing, so each call for a group without a directory simulates
     * again.
     */
    Result ensure(const JobSpec &spec) const;

    /** `DIR/warmup-<16 hex>.ckpt` (for tests and tooling). */
    std::string checkpointPath(std::uint64_t state_hash) const;

  private:
    /** The cross-process load-or-create protocol for one group. */
    Result prepare(const JobSpec &spec, std::uint64_t state_hash) const;

    std::string dir_;
    double lockTtlSec_;
};

} // namespace dapsim::exp

#endif // DAPSIM_EXP_WARMUP_CACHE_HH
