/**
 * @file
 * dapsim — command-line simulation driver.
 *
 * Runs one simulation from the command line and prints the headline
 * metrics (optionally a full gem5-style stats dump). Workloads are
 * either named synthetic profiles (rate mode) or trace files.
 *
 * Examples:
 *   dapsim --workload mcf --policy dap
 *   dapsim --arch alloy --policy bear --instr 200000 --stats
 *   dapsim --trace mem.trace --cores 4 --policy dap
 *   dapsim --arch edram --capacity-mb 8 --workload hpcg
 *   dapsim --workload mcf --save-ckpt warm.ckpt
 *   dapsim --workload mcf --policy dap --restore-ckpt warm.ckpt
 *
 * The flags come from the option table shared with dapsim_sweep and
 * dapsim_expd (src/expd/cli_options.hh); an unknown flag lists them.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "ckpt/checkpoint.hh"
#include "expd/cli_options.hh"
#include "sim/fidelity_runner.hh"
#include "trace/trace_file.hh"
#include "workload/compose.hh"
#include "workload/spec.hh"

using namespace dapsim;

int
main(int argc, char **argv)
{
    const expd::CliOptions opt =
        expd::parseCommandLine(expd::kDapsim, argc, argv);
    const std::string &arch = opt.grid.archs[0];
    const std::string &workload = opt.grid.workloads[0];
    const std::uint64_t instr = opt.grid.instr;
    const std::uint64_t seed = opt.grid.seed;

    if (!opt.saveCkpt.empty() && !opt.restoreCkpt.empty())
        fatal("--save-ckpt and --restore-ckpt are mutually exclusive");
    SystemConfig cfg = expd::dapsimConfig(opt);

    std::vector<AccessGeneratorPtr> gens;
    std::string mix_name;
    std::string stream_desc;
    if (!opt.trace.empty()) {
        mix_name = opt.trace;
        stream_desc = "trace:" + opt.trace;
        for (std::uint32_t i = 0; i < cfg.numCores; ++i)
            gens.push_back(std::make_unique<TraceFileGenerator>(
                opt.trace, static_cast<Addr>(i) << 40));
    } else {
        const workload::ComposedMix cm =
            workload::composeWorkload(workload, cfg.numCores);
        mix_name = cm.mix.name;
        stream_desc = ckpt::describeMix(cm.mix);
        // Tenant attribution only for engine specs; classic profile
        // runs keep their exact historical stats row set.
        if (workload::looksLikeSpec(workload))
            cfg.obs.coreTenants = cm.coreTenants;
        for (std::uint32_t i = 0; i < cfg.numCores; ++i)
            gens.push_back(makeGenerator(cm.mix.apps[i], i, seed));
    }

    // The header's hashes come from the PRE-construction configuration
    // (the System constructor derives fields in its own copy).
    const ckpt::CheckpointHeader header =
        ckpt::warmupHeader(cfg, stream_desc, seed, instr);
    System sys(cfg, std::move(gens));
    try {
        if (!opt.restoreCkpt.empty()) {
            // Mapped read: the payload arrays restore by memcpy
            // straight out of the page cache.
            ckpt::CheckpointView c = ckpt::readFileMapped(opt.restoreCkpt);
            const std::uint64_t warm = c.header.warmupPerCore;
            ckpt::restoreInto(sys, std::move(c), header);
            std::printf("restored %s (%llu warm-up accesses/core)\n",
                        opt.restoreCkpt.c_str(),
                        static_cast<unsigned long long>(warm));
        } else {
            sys.warmup(header.warmupPerCore);
            if (!opt.saveCkpt.empty()) {
                ckpt::writeFile(opt.saveCkpt, ckpt::capture(sys, header));
                std::printf("saved %s (%llu warm-up accesses/core)\n",
                            opt.saveCkpt.c_str(),
                            static_cast<unsigned long long>(
                                header.warmupPerCore));
            }
        }
    } catch (const ckpt::CkptError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    const RunResult r = runFidelityOn(sys, mix_name, instr);
    std::printf("mix %s  arch %s  policy %s  seed %llu\n",
                mix_name.c_str(), arch.c_str(),
                r.policyName.c_str(),
                static_cast<unsigned long long>(seed));
    std::printf("throughput %.3f IPC  cycles %llu\n", r.throughput(),
                static_cast<unsigned long long>(r.cycles));
    std::printf("MS$ hit ratio %.3f  MM CAS fraction %.3f  "
                "L3 read-miss latency %.1f ns\n",
                r.msHitRatio, r.mmCasFraction,
                r.avgL3ReadMissLatency / 1000.0);
    if (r.fidelity.valid)
        std::printf("fidelity %s  windows %llu  detail %.1f%%  "
                    "IPC %.3f +/- %.3f\n",
                    r.fidelity.mode.c_str(),
                    static_cast<unsigned long long>(
                        r.fidelity.windows),
                    r.fidelity.detailFraction * 100.0,
                    r.fidelity.ipcMean, r.fidelity.ipcCiHalf);
    if (r.fwb + r.wb + r.ifrm + r.sfrm > 0)
        std::printf("DAP decisions: FWB %llu WB %llu IFRM %llu "
                    "SFRM %llu\n",
                    static_cast<unsigned long long>(r.fwb),
                    static_cast<unsigned long long>(r.wb),
                    static_cast<unsigned long long>(r.ifrm),
                    static_cast<unsigned long long>(r.sfrm));
    if (opt.stats) {
        std::printf("---- stats ----\n");
        sys.dumpStats(std::cout);
    }
    return 0;
}
