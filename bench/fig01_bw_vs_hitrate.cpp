/**
 * @file
 * Figure 1: delivered bandwidth against memory-side cache hit ratio.
 *
 * A read-only kernel streams through arrays at target hit rates
 * {0, 25, 50, 70, 90, 100}% for (a) an HBM DRAM cache with a single
 * bidirectional 102.4 GB/s bus and (b) an eDRAM cache with separate
 * 51.2 GB/s read/write channel sets, both over 38.4 GB/s DDR4.
 *
 * Paper shape: the DRAM cache's curve rises and saturates near the
 * cache bandwidth around 70%; the eDRAM curve peaks mid-range (sum of
 * sources) and *falls* toward the read-channel bandwidth at 100%.
 * Both the simulated values and the Section III analytical model are
 * printed.
 */

#include "bench_util.hh"
#include "dap/bandwidth_model.hh"

using namespace dapsim;
using namespace dapsim::bench;

namespace
{

/** Generator hitting a small resident region with probability h and
 *  streaming through a huge cold region otherwise. */
class HitRateKernel final : public AccessGenerator
{
  public:
    HitRateKernel(double hit_rate, Addr base)
        : hitRate_(hit_rate), rng_(base + 17), base_(base)
    {
    }

    bool
    next(TraceRequest &out) override
    {
        if (rng_.chance(hitRate_)) {
            out.addr = base_ + (hotPtr_++ % kHotBlocks) * kBlockBytes;
        } else {
            // One block per sector, never revisited: a guaranteed
            // miss with no spatial reuse to distort the target rate.
            out.addr = base_ + (1ULL << 36) + (coldPtr_++) * 4096;
        }
        out.isWrite = false;
        out.instrGap = 4; // bandwidth kernel: demand-saturating
        return true;
    }

  private:
    static constexpr std::uint64_t kHotBlocks = 8192; // 512 KB / core
    double hitRate_;
    Rng rng_;
    Addr base_;
    std::uint64_t hotPtr_ = 0;
    std::uint64_t coldPtr_ = 0;
};

RunResult
measure(MsArch arch, double hit_rate)
{
    SystemConfig cfg = arch == MsArch::Sectored
                           ? presets::sectoredSystem8()
                           : presets::edramSystem8(64);
    cfg.arch = arch;
    cfg.l3.capacityBytes = 256 * kKiB; // keep the L3 out of the way
    cfg.core.instructions = 60'000;
    // The kernel measures intrinsic source bandwidths: no prefetch
    // machinery, demand-block-only fills (the paper's Figure 1 also
    // assumes no maintenance overheads).
    cfg.prefetch.enabled = false;
    cfg.sectored.footprint.coldRunLength = 1;
    cfg.edram.footprint.coldRunLength = 1;

    std::vector<AccessGeneratorPtr> gens;
    for (std::uint32_t i = 0; i < cfg.numCores; ++i)
        gens.push_back(std::make_unique<HitRateKernel>(
            hit_rate, static_cast<Addr>(i) << 40));
    System sys(cfg, std::move(gens));
    sys.warmup(40'000);
    sys.run();
    return harvest(sys, "kernel");
}

} // namespace

Report
bench::fig01BwVsHitrate(Plan &plan)
{
    // measure() builds its System by hand, so each run is a custom job.
    const auto job = [&plan](MsArch arch, double h) {
        exp::JobSpec spec;
        spec.label = std::string("fig01/") + exp::archName(arch) + "/" +
                     std::to_string(h);
        spec.custom = [arch, h] { return measure(arch, h); };
        return plan.add(std::move(spec));
    };
    std::vector<std::tuple<double, Job, Job>> points;
    for (double h : {0.0, 0.25, 0.5, 0.7, 0.9, 1.0})
        points.emplace_back(h, job(MsArch::Sectored, h),
                            job(MsArch::Edram, h));
    return [points] {
        banner("Figure 1",
               "Delivered read bandwidth vs MS$ hit ratio (read kernel)");
        std::printf("%-10s %12s %12s %12s %12s\n", "hit-rate",
                    "DRAM$ sim", "DRAM$ model", "eDRAM sim",
                    "eDRAM model");
        for (const auto &[h, dram_sim, edram_sim] : points) {
            const double dram_model = bwmodel::dramCacheReadKernelBW(
                h, 0.75 * 102.4, 0.75 * 38.4);
            const double edram_model =
                bwmodel::edramReadKernelBW(h, 0.75 * 51.2, 0.75 * 38.4);
            std::printf("%-10.0f %12.1f %12.1f %12.1f %12.1f\n", h * 100,
                        dram_sim->readGBps, dram_model,
                        edram_sim->readGBps, edram_model);
        }
        std::printf("\nShape check: DRAM$ saturates near the cache "
                    "bandwidth by ~70%%;\neDRAM peaks mid-range and falls "
                    "toward its read-channel bandwidth at 100%%.\n");
    };
}
