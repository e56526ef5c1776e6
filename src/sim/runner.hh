/**
 * @file
 * High-level experiment runner: build a System for a mix, run it to
 * completion, harvest results. This is the API exp::runJob and the
 * examples drive.
 */

#ifndef DAPSIM_SIM_RUNNER_HH
#define DAPSIM_SIM_RUNNER_HH

#include <cstdint>

#include "sim/metrics.hh"
#include "sim/system.hh"
#include "trace/mixes.hh"

namespace dapsim
{

/** Run @p mix on @p cfg, each core retiring @p instr_per_core. */
RunResult runMix(SystemConfig cfg, const Mix &mix,
                 std::uint64_t instr_per_core,
                 std::uint64_t seed_salt = 0);

} // namespace dapsim

#endif // DAPSIM_SIM_RUNNER_HH
