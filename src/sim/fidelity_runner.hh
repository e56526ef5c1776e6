/**
 * @file
 * Fidelity-dispatching run driver (`--fidelity {exact,sampled,analytic}`).
 *
 * runFidelityOn() finishes a warmed (or checkpoint-restored) System at
 * the fidelity its configuration selects; runMix,
 * ckpt::runMixFromCheckpoint and the dapsim CLI all funnel through it,
 * so every layer above them (jobs, sweeps, the experiment service)
 * inherits fidelity selection without further dispatch.
 *
 *  - exact: the historical cycle-accurate path, statement-for-
 *    statement what run()+harvest() executed before this layer existed
 *    — bit-identical by construction.
 *  - sampled: SMARTS-style interval sampling. Each period of
 *    FidelityConfig::periodInstr instructions per core opens with
 *    detailInstr simulated in detail; the remainder is fast-forwarded
 *    functionally (streams and directories advance, no event time) and
 *    priced by fastfwd::AnalyticEngine from the EWMA-smoothed window
 *    measurements. DAP credit state is re-warmed with a modeled
 *    steady-state window at each fast-forward so the next detailed
 *    segment starts converged. Per-run error bounds (mean + 95% CI of
 *    IPC and per-source bandwidth over the detailed windows) land in
 *    RunResult::fidelity.
 *  - analytic: no event loop at all. A functional measurement pass of
 *    analyticInstr instructions per core derives the access mix; IPC
 *    is the retire-width/MLP bound (Little's law with the configured
 *    service latency) scaled by the n-source delivered-bandwidth cap.
 */

#ifndef DAPSIM_SIM_FIDELITY_RUNNER_HH
#define DAPSIM_SIM_FIDELITY_RUNNER_HH

#include <cstdint>
#include <string>

#include "sim/metrics.hh"
#include "sim/system.hh"

namespace dapsim
{

/**
 * Complete a run on @p sys at cfg.fidelity. The System must be past
 * warm-up (or checkpoint restore) and not yet run. @p instr_per_core
 * must equal the cfg.core.instructions the System was built with.
 */
RunResult runFidelityOn(System &sys, const std::string &mix_name,
                        std::uint64_t instr_per_core);

} // namespace dapsim

#endif // DAPSIM_SIM_FIDELITY_RUNNER_HH
