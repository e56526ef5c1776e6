#include "sim/runner.hh"

#include "common/log.hh"
#include "sim/fidelity_runner.hh"

namespace dapsim
{

RunResult
runMix(SystemConfig cfg, const Mix &mix, std::uint64_t instr_per_core,
       std::uint64_t seed_salt)
{
    if (mix.apps.size() != cfg.numCores)
        fatal("runMix: mix width != core count");
    cfg.core.instructions = instr_per_core;

    std::vector<AccessGeneratorPtr> gens;
    gens.reserve(cfg.numCores);
    for (std::uint32_t i = 0; i < cfg.numCores; ++i)
        gens.push_back(makeGenerator(mix.apps[i], i, seed_salt));

    System sys(cfg, std::move(gens));
    sys.warmup(cfg.warmupPerCore());
    return runFidelityOn(sys, mix.name, instr_per_core);
}

} // namespace dapsim
