/**
 * @file
 * System presets matching the paper's evaluated configurations, with
 * the ~64x capacity scaling documented in DESIGN.md. Coverage ratios
 * (tag cache entries per sector, DBC entries per Alloy set) are
 * preserved at scale.
 */

#ifndef DAPSIM_SIM_PRESETS_HH
#define DAPSIM_SIM_PRESETS_HH

#include "sim/system.hh"

namespace dapsim::presets
{

/** Instructions per core used by the bench harnesses. */
constexpr std::uint64_t kBenchInstructions = 400'000;

/** Default eight-core sectored-DRAM-cache system (Section VI-A):
 *  64 MB (for 4 GB) HBM at 102.4 GB/s, 4 KB sectors, tag cache,
 *  dual-channel DDR4-2400. */
SystemConfig sectoredSystem8();

/** The same system with the tag cache disabled (Fig 5 baseline). */
SystemConfig sectoredSystemNoTagCache8();

/** Eight-core Alloy-cache system (Section VI-B). */
SystemConfig alloySystem8();

/** Eight-core sectored eDRAM system (Section VI-C); capacity_mb is 4
 *  (for 256 MB) or 8 (for 512 MB). */
SystemConfig edramSystem8(std::uint64_t capacity_mb = 4);

/** Sixteen-core scaled system (Fig 13): 128 MB (for 8 GB) MS$ at
 *  204.8 GB/s, DDR4-3200, 2 MB L3. */
SystemConfig sectoredSystem16();

} // namespace dapsim::presets

#endif // DAPSIM_SIM_PRESETS_HH
