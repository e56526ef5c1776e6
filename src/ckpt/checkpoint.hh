/**
 * @file
 * The `dapsim.ckpt.v3` checkpoint format and its high-level API.
 *
 * A checkpoint captures a System at its quiescent point — tick 0,
 * after functional warm-up, before run() — so a restored run continues
 * bit-identically to an uninterrupted one. The container is a
 * journaled header (magic, version, config hashes, tick) followed by a
 * CRC32-guarded payload of named component sections (System::save).
 * The payload stores large component arrays as bulk little-endian
 * spans, so a restore is a handful of memcpys out of the payload —
 * which CheckpointView/readFileMapped can leave memory-mapped on disk
 * instead of copying onto the heap (DESIGN.md §14). A file of any
 * other version, including the retired versions 1 and 2, is refused
 * with a CkptError.
 *
 * Two hashes guard restores:
 *  - stateHash covers everything the warm state depends on: the
 *    policy-invariant configuration (cores, caches, DRAM, prefetch),
 *    the access-stream description, the seed salt and the warm-up
 *    length. Warm-up never consults the partitioning policy, so a
 *    checkpoint with a matching stateHash seeds ANY policy variant —
 *    the basis of the sweep runner's warmup-fork mode.
 *  - fullHash additionally covers the policy kind and its
 *    configuration; an exact (non-fork) restore requires it to match.
 *
 * All failures throw ckpt::CkptError, never fatal(), so a bad restore
 * inside a sweep fails one job instead of the process.
 */

#ifndef DAPSIM_CKPT_CHECKPOINT_HH
#define DAPSIM_CKPT_CHECKPOINT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/serializer.hh"
#include "sim/metrics.hh"
#include "sim/runner.hh"

namespace dapsim::ckpt
{

/** File magic: the first eight bytes of every checkpoint. */
inline constexpr char kMagic[8] = {'D', 'A', 'P', 'S', 'I', 'M', 'C', 'K'};

/** Journaled checkpoint header (see DESIGN.md for the byte layout). */
struct CheckpointHeader
{
    std::uint32_t version = kVersion;
    /** Policy-invariant configuration + stream hash (fork grouping). */
    std::uint64_t stateHash = 0;
    /** stateHash + policy kind/configuration (exact restore). */
    std::uint64_t fullHash = 0;
    /** Simulated tick of the snapshot; always 0. */
    std::uint64_t tick = 0;
    std::uint64_t seedSalt = 0;
    /** Warm-up accesses per core actually executed before the snapshot. */
    std::uint64_t warmupPerCore = 0;
    /** Per-core instruction target of the capturing run (informational;
     *  the restoring run supplies its own). */
    std::uint64_t instr = 0;
    std::uint32_t numCores = 0;
    /** MsArch of the capturing system, as a stable integer id. */
    std::uint32_t archId = 0;
    /** Construction-time events pending at the snapshot (refresh). */
    std::uint64_t pendingEvents = 0;
};

/** A decoded checkpoint: header + the System::save payload. */
struct Checkpoint
{
    CheckpointHeader header;
    std::vector<std::uint8_t> payload;
};

/**
 * A non-owning-by-default window onto a validated checkpoint whose
 * payload bytes may live anywhere: a heap Checkpoint, or a read-only
 * file mapping (readFileMapped). Restores deserialize straight out of
 * @p payload — the bulk arrays are memcpy'd from the mapping into the
 * component SoA arrays with no intermediate decode or heap copy.
 * @p backing keeps the bytes alive; a view with a null payload means
 * "no checkpoint".
 */
struct CheckpointView
{
    CheckpointHeader header{};
    const std::uint8_t *payload = nullptr;
    std::size_t payloadSize = 0;
    /** Owner of the payload bytes (mmap region or heap checkpoint). */
    std::shared_ptr<const void> backing;

    explicit operator bool() const { return payload != nullptr; }
};

/** View over a heap checkpoint; shares ownership so the view stays
 *  valid after the caller drops its reference. */
CheckpointView viewOf(std::shared_ptr<const Checkpoint> ckpt);

/** Non-owning view; @p ckpt must outlive the view. */
CheckpointView viewOf(const Checkpoint &ckpt);

/** Canonical description of a mix's access streams (hash input). */
std::string describeMix(const Mix &mix);

/** Stable integer id of an MsArch (the header's archId field). */
std::uint32_t archIdOf(MsArch arch);

/** The warm-up count runMix executes for @p cfg
 *  (SystemConfig::warmupPerCore). */
std::uint64_t resolveWarmCount(const SystemConfig &cfg);

/**
 * Hash of everything the warm state depends on. Compute from the
 * PRE-construction configuration (System's constructor derives DAP
 * fields and mutates policy configs in its own copy).
 */
std::uint64_t stateHash(const SystemConfig &cfg,
                        const std::string &stream_desc,
                        std::uint64_t seed_salt,
                        std::uint64_t warm_per_core);

/** stateHash extended with the policy kind and configuration. */
std::uint64_t fullHash(std::uint64_t state_hash, const SystemConfig &cfg);

/**
 * The header a warm-up capture of @p cfg carries: both hashes,
 * computed from this PRE-construction configuration (System's
 * constructor derives fields in its own copy), the seed salt, the
 * warm-up length resolveWarmCount(cfg) and the bookkeeping fields.
 * @p stream_desc is describeMix() of the mix, or any stable
 * description of the streams (`dapsim --trace` uses the path).
 * capture() fills in tick and pendingEvents.
 */
CheckpointHeader warmupHeader(const SystemConfig &cfg,
                              const std::string &stream_desc,
                              std::uint64_t seed_salt,
                              std::uint64_t instr);

/**
 * Snapshot @p sys (which must be at its quiescent point). The caller
 * provides the header's config hashes and bookkeeping fields
 * (warmupHeader); tick and pendingEvents are filled in here.
 */
Checkpoint capture(System &sys, CheckpointHeader header);

/**
 * Restore @p view into @p sys, a freshly constructed System built
 * from the configuration and streams @p expect (warmupHeader) was
 * made for. Throws CkptError when the view is empty, when its
 * stateHash differs from @p expect's, when — unless @p fork — its
 * fullHash differs, or when bytes follow the last section. With
 * @p fork the checkpoint's policy section is skipped, so a warm-up
 * taken under one policy seeds any policy variant. The view is
 * dropped on return, so a caller that moves in its last reference
 * frees the bytes before the timed run.
 */
void restoreInto(System &sys, CheckpointView view,
                 const CheckpointHeader &expect, bool fork = false);

/** Serialize a checkpoint to the on-disk byte layout. */
std::vector<std::uint8_t> encode(const Checkpoint &ckpt);

/** Parse + validate (magic, version, CRC); throws CkptError. */
Checkpoint decode(const std::uint8_t *data, std::size_t size);
Checkpoint decode(const std::vector<std::uint8_t> &bytes);

/** Write/read the encoded form; throws CkptError on I/O failure. */
void writeFile(const std::string &path, const Checkpoint &ckpt);
Checkpoint readFile(const std::string &path);

/**
 * readFile without the heap copy: the file is memory-mapped read-only
 * and validated in place (magic, version, CRC), and the returned
 * view's payload points into the mapping, which lives as long as any
 * copy of the view does. Falls back to an ordinary heap read when the
 * platform/filesystem refuses the mapping.
 */
CheckpointView readFileMapped(const std::string &path);

/**
 * writeFile via temp-file + fsync + atomic rename: a reader never
 * observes a partially written checkpoint, and concurrent writers of
 * the same path race benignly (identical content under the
 * content-addressed `warmup-<statehash>.ckpt` naming). Shared warmup
 * caches must use this form — see exp/warmup_cache.hh.
 */
void writeFileAtomic(const std::string &path, const Checkpoint &ckpt);

/**
 * Build a System for (cfg, mix, seed_salt), run the functional warm-up
 * and capture the post-warmup checkpoint. @p instr is recorded in the
 * header (and used for the build) but does not affect the warm state.
 */
Checkpoint makeWarmupCheckpoint(SystemConfig cfg, const Mix &mix,
                                std::uint64_t instr,
                                std::uint64_t seed_salt);

/**
 * runMix, but starting from @p ckpt instead of executing the warm-up
 * (restoreInto: same checks, same @p fork meaning). The view is
 * dropped once restored, before the timed run, so a caller that moves
 * in its last reference frees the bytes early.
 */
RunResult runMixFromCheckpoint(SystemConfig cfg, const Mix &mix,
                               std::uint64_t instr_per_core,
                               std::uint64_t seed_salt,
                               CheckpointView ckpt, bool fork = false);

} // namespace dapsim::ckpt

#endif // DAPSIM_CKPT_CHECKPOINT_HH
