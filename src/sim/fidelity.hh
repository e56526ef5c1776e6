/**
 * @file
 * Simulation fidelity selection (`--fidelity {exact,sampled,analytic}`).
 *
 * Exact is the cycle-accurate event-driven run every result so far has
 * used and stays bit-identical to it. Sampled is SMARTS-style interval
 * sampling: short detailed windows at a configurable period, with the
 * Eq 4 analytic bandwidth model fast-forwarding the instructions in
 * between and per-run error bounds reported from the window-to-window
 * variance. Analytic skips the event loop entirely and prices the run
 * with the steady-state n-source model fed by a functional measurement
 * pass over the access streams.
 *
 * This header is dependency-free so SystemConfig can embed a
 * FidelityConfig without pulling the runner layers into every
 * component.
 */

#ifndef DAPSIM_SIM_FIDELITY_HH
#define DAPSIM_SIM_FIDELITY_HH

#include <cstdint>
#include <string>

namespace dapsim
{

/** How faithfully a run is simulated. */
enum class FidelityMode : std::uint32_t
{
    Exact = 0,    ///< cycle-accurate event-driven run (the default)
    Sampled = 1,  ///< detailed windows + analytic fast-forward
    Analytic = 2, ///< closed-form steady-state bandwidth model only
};

/** Fidelity knobs; the defaults target ~20% detailed coverage. */
struct FidelityConfig
{
    FidelityMode mode = FidelityMode::Exact;

    /** Sampled: instructions per core simulated in detail at the head
     *  of every sampling period. */
    std::uint64_t detailInstr = 2'000;

    /** Sampled: sampling period in instructions per core (detail +
     *  fast-forward). Clamped up to detailInstr. */
    std::uint64_t periodInstr = 10'000;

    /** Sampled: instructions per core at the head of each detailed
     *  window simulated in detail but excluded from the measured
     *  sample. Fast-forward drains in-flight misses, so every window
     *  re-opens with a cold pipeline; measuring that transient biases
     *  window IPC low (the classic SMARTS detailed-warm-up). Clamped
     *  to half the detailed segment so the measured window never
     *  degenerates to a handful of instructions. */
    std::uint64_t detailWarmupInstr = 1'000;

    /** Analytic: instructions per core of the functional measurement
     *  pass that derives the access mix. */
    std::uint64_t analyticInstr = 20'000;

    /** Analytic: assumed mean lower-hierarchy service latency in CPU
     *  cycles, bounding per-core MLP via Little's law. A documented
     *  coarse knob — analytic mode trades this for not simulating
     *  timing at all. */
    double analyticLatencyCycles = 120.0;

    /** Sampled: EWMA smoothing factor for the fast-forward engine's
     *  measured rates (1 = last window only). */
    double ewmaAlpha = 0.5;

    /** Reported confidence intervals never shrink below this relative
     *  floor: windows of one run are not IID samples, so the t-interval
     *  alone understates the achievable resolution. */
    double minRelCi = 0.03;

    /** Analytic: the documented relative error bound reported as the
     *  mode's "confidence" half-width. Analytic mode has no
     *  window-to-window variance to measure, so this is a calibration
     *  constant (validated by the error-bound suite), not a
     *  statistical estimate. */
    double analyticRelBound = 0.25;

    /** Analytic: sustained-over-peak derate applied to the delivered-
     *  bandwidth cap. The detailed simulator never holds every source
     *  at DAP's efficiency E simultaneously — partition fractions
     *  adapt with lag and demand arrives in bursts — so the
     *  steady-state model over-predicts saturated workloads without
     *  it. Calibrated against the error-bound suite's exact runs. */
    double analyticBwDerate = 0.8;

    bool exact() const { return mode == FidelityMode::Exact; }
};

/** Parse a mode name; returns false on unknown names. */
inline bool
fidelityModeFromName(const std::string &name, FidelityMode &out)
{
    if (name == "exact") {
        out = FidelityMode::Exact;
        return true;
    }
    if (name == "sampled") {
        out = FidelityMode::Sampled;
        return true;
    }
    if (name == "analytic") {
        out = FidelityMode::Analytic;
        return true;
    }
    return false;
}

} // namespace dapsim

#endif // DAPSIM_SIM_FIDELITY_HH
