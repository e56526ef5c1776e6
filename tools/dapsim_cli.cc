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

    // Both hashes come from the PRE-construction configuration (the
    // System constructor derives fields in its own copy).
    const std::uint64_t warm = ckpt::resolveWarmCount(cfg);
    const std::uint64_t state_hash =
        ckpt::stateHash(cfg, stream_desc, seed, warm);
    const std::uint64_t full_hash = ckpt::fullHash(state_hash, cfg);

    System sys(cfg, std::move(gens));
    try {
        if (!opt.restoreCkpt.empty()) {
            // Mapped read: v2 payload arrays restore by memcpy straight
            // out of the page cache (v1 streams decode from it too).
            const ckpt::CheckpointView c =
                ckpt::readFileMapped(opt.restoreCkpt);
            if (c.header.stateHash != state_hash)
                throw ckpt::CkptError(
                    "ckpt: configuration/stream mismatch (the "
                    "checkpoint was taken under a different system "
                    "configuration, workload, seed or warm-up "
                    "length)");
            if (c.header.fullHash != full_hash)
                throw ckpt::CkptError(
                    "ckpt: policy mismatch (the checkpoint was taken "
                    "under a different partitioning policy)");
            ckpt::Deserializer d(c.payload, c.payloadSize,
                                 c.header.version);
            sys.restore(d);
            if (!d.atEnd())
                throw ckpt::CkptError(
                    "ckpt: trailing bytes after the last section");
            std::printf("restored %s (%llu warm-up accesses/core)\n",
                        opt.restoreCkpt.c_str(),
                        static_cast<unsigned long long>(
                            c.header.warmupPerCore));
        } else {
            sys.warmup(warm);
            if (!opt.saveCkpt.empty()) {
                ckpt::CheckpointHeader h;
                h.stateHash = state_hash;
                h.fullHash = full_hash;
                h.seedSalt = seed;
                h.warmupPerCore = warm;
                h.instr = instr;
                h.numCores = cfg.numCores;
                h.archId = ckpt::archIdOf(cfg.arch);
                ckpt::writeFile(
                    opt.saveCkpt,
                    ckpt::capture(sys, h,
                                  opt.ckptFormat == "v1"
                                      ? ckpt::kVersionV1
                                      : ckpt::kVersionV2));
                std::printf("saved %s (%llu warm-up accesses/core)\n",
                            opt.saveCkpt.c_str(),
                            static_cast<unsigned long long>(warm));
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
