/**
 * @file
 * The functional warm-up pipeline behind System::warmup (DESIGN.md
 * §15).
 *
 * Warm-up streams records generators -> L3 -> MS$, and no stage reads
 * another's state: the generators only advance their own cursors, the
 * L3 stage only updates the L3 directory, and the MS$ stage only its
 * directories, tag cache and footprint history. So each stage runs on
 * its own thread — the generators and the L3 on two std::threads, the
 * MS$ on the calling thread — linked by bounded rings of preallocated
 * record chunks that synchronize once per chunk, never per record.
 * Every stage consumes its input in order, so each structure sees the
 * access sequence a serial record-by-record loop would give it, and
 * the warm state is byte-identical to that loop's.
 */

#ifndef DAPSIM_SIM_WARM_PIPELINE_HH
#define DAPSIM_SIM_WARM_PIPELINE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "memside/ms_cache.hh"
#include "sim/l3_cache.hh"
#include "trace/access_gen.hh"

namespace dapsim
{

/** Records per chunk, all cores together (256 per core at 8 cores). */
inline constexpr std::size_t kWarmChunkRecords = 2048;

/** Chunks in each of the two rings: 2 x 4 x 2048 x 16 B = 256 KiB. */
inline constexpr std::size_t kWarmRingChunks = 4;

/**
 * Warm @p l3 and the MS$ @p ms behind it with @p per_core records from
 * each of @p gens, interleaved round-robin (record k of every core
 * before record k + 1 of any), exactly as a serial loop of
 * `gens[i]->next()` + `l3.warmTouch()` would. Returns once all three
 * stages have finished; an exception thrown in any stage stops the
 * others and is rethrown here after both threads are joined.
 */
void runWarmPipeline(std::vector<AccessGeneratorPtr> &gens, L3Cache &l3,
                     MemSideCache &ms, std::uint64_t per_core);

} // namespace dapsim

#endif // DAPSIM_SIM_WARM_PIPELINE_HH
