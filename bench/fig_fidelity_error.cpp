/**
 * @file
 * Accuracy-vs-speedup curve for the fidelity ladder.
 *
 * Runs the pinned fig12-style end-to-end scenario (8-core
 * heterogeneous mix, sectored MS$, DAP, 150k instructions per core)
 * at every fidelity level: exact once as the golden baseline, sampled
 * at a range of sampling periods, and analytic. Each row reports simulator wall-clock,
 * speedup over exact, aggregate IPC, its relative error against
 * exact, and whether exact falls inside the run's own reported
 * confidence interval — the curve EXPERIMENTS.md discusses.
 *
 * `--ci-guard` runs only exact and default-knob sampled (best of two
 * timings each) and fails unless sampled is >= 3x faster with <= 2%
 * aggregate-IPC error: the Release CI regression gate for the
 * fast-forward path.
 */

#include <chrono>
#include <cmath>
#include <cstring>

#include "bench_util.hh"
#include "sim/fidelity.hh"
#include "sim/fidelity_runner.hh"
#include "sim/system.hh"
#include "trace/mixes.hh"
#include "trace/workloads.hh"

using namespace dapsim;
using namespace dapsim::bench;

namespace
{

/** The pinned scenario. */
constexpr std::uint64_t kInstr = 150'000;
constexpr std::uint64_t kWarmup = 20'000;
constexpr double kGuardMinSpeedup = 3.0;
constexpr double kGuardMaxIpcError = 0.02;

Mix
pinnedMix()
{
    const char *apps[8] = {"mcf",      "libquantum", "omnetpp",
                           "milc",     "hpcg",       "bwaves",
                           "gcc.expr", "parboil-lbm"};
    Mix m;
    m.name = "fig12_hetero_mix8";
    for (const char *app : apps)
        m.apps.push_back(workloadByName(app));
    return m;
}

struct Timed
{
    RunResult result;
    double wallMs;
};

/** Warm and run the pinned scenario at @p fid; only the post-warmup
 *  simulation is timed (warm-up is identical across fidelities). */
Timed
runAt(const FidelityConfig &fid)
{
    SystemConfig cfg = presets::sectoredSystem8();
    cfg.policy = PolicyKind::Dap;
    cfg.core.instructions = kInstr;
    cfg.fidelity = fid;

    const Mix mix = pinnedMix();
    std::vector<AccessGeneratorPtr> gens;
    for (std::uint32_t i = 0; i < cfg.numCores; ++i)
        gens.push_back(makeGenerator(mix.apps[i], i));
    System sys(cfg, std::move(gens));
    sys.warmup(kWarmup);

    const auto t0 = std::chrono::steady_clock::now();
    Timed t;
    t.result = runFidelityOn(sys, mix.name, kInstr);
    t.wallMs = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count() *
               1e3;
    return t;
}

/** Best-of-@p reps timing (the result is identical across reps). */
Timed
runBest(const FidelityConfig &fid, int reps)
{
    Timed best = runAt(fid);
    for (int r = 1; r < reps; ++r) {
        const Timed t = runAt(fid);
        if (t.wallMs < best.wallMs)
            best.wallMs = t.wallMs;
    }
    return best;
}

int
ciGuard()
{
    const Timed exact = runBest(FidelityConfig{}, 2);
    FidelityConfig sampled;
    sampled.mode = FidelityMode::Sampled;
    const Timed fast = runBest(sampled, 2);

    const double speedup = exact.wallMs / fast.wallMs;
    const double err = std::fabs(fast.result.throughput() -
                                 exact.result.throughput()) /
                       exact.result.throughput();
    std::printf("ci-guard: exact %.1f ms, sampled %.1f ms -> %.2fx "
                "(need >= %.1fx); IPC err %.2f%% (need <= %.0f%%)\n",
                exact.wallMs, fast.wallMs, speedup, kGuardMinSpeedup,
                err * 1e2, kGuardMaxIpcError * 1e2);
    const bool ok =
        speedup >= kGuardMinSpeedup && err <= kGuardMaxIpcError;
    std::printf("ci-guard: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--ci-guard") == 0)
            return ciGuard();
        std::fprintf(stderr,
                     "usage: fig_fidelity_error [--ci-guard]\n");
        return 2;
    }

    banner("Fidelity ladder",
           "accuracy vs speedup on the pinned fig12 scenario "
           "(8-core hetero mix, DAP, 150k instr/core)");

    const Timed exact = runAt(FidelityConfig{});
    const double goldenIpc = exact.result.throughput();
    std::printf("%-18s %9s %8s %8s %7s %7s %s\n", "mode", "wall_ms",
                "speedup", "ipc", "err%", "ci%", "exact_in_ci");
    std::printf("%-18s %9.1f %8.2f %8.3f %7.2f %7s %s\n", "exact",
                exact.wallMs, 1.0, goldenIpc, 0.0, "-", "-");

    auto row = [&](const std::string &name,
                   const FidelityConfig &fid) {
        const Timed t = runAt(fid);
        const double ipc = t.result.throughput();
        const double err = std::fabs(ipc - goldenIpc) / goldenIpc;
        const FidelityReport &f = t.result.fidelity;
        const bool inCi =
            std::fabs(f.ipcMean - goldenIpc) <= f.ipcCiHalf;
        std::printf("%-18s %9.1f %8.2f %8.3f %7.2f %7.2f %s\n",
                    name.c_str(), t.wallMs, exact.wallMs / t.wallMs,
                    ipc, err * 1e2,
                    f.ipcMean > 0.0 ? f.ipcCiHalf / f.ipcMean * 1e2
                                    : 0.0,
                    inCi ? "yes" : "no");
    };

    // Sampling-period sweep: the detail fraction falls (and speedup
    // rises) left to right; the CI widens with it.
    for (std::uint64_t period : {5'000, 10'000, 20'000, 50'000}) {
        FidelityConfig fid;
        fid.mode = FidelityMode::Sampled;
        fid.periodInstr = period;
        row("sampled/p" + std::to_string(period / 1'000) + "k", fid);
    }

    FidelityConfig analytic;
    analytic.mode = FidelityMode::Analytic;
    row("analytic", analytic);
    return 0;
}
