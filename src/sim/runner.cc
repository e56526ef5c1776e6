#include "sim/runner.hh"

#include <map>

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

double
aloneIpc(SystemConfig cfg, const WorkloadProfile &profile,
         std::uint64_t instr, std::uint64_t seed_salt)
{
    cfg.numCores = 1;
    cfg.core.instructions = instr;

    std::vector<AccessGeneratorPtr> gens;
    gens.push_back(makeGenerator(profile, 0, seed_salt));

    System sys(cfg, std::move(gens));
    sys.warmup(cfg.warmupPerCore());
    sys.run();
    return sys.core(0).finished()
               ? sys.core(0).finishIpc()
               : sys.core(0).ipcAt(sys.eventQueue().now());
}

std::vector<double>
aloneIpcTable(const SystemConfig &cfg, const Mix &mix,
              std::uint64_t instr, std::uint64_t seed_salt)
{
    std::map<std::string, double> memo;
    std::vector<double> out;
    out.reserve(mix.apps.size());
    for (const auto &app : mix.apps) {
        auto it = memo.find(app.name);
        if (it == memo.end()) {
            it = memo.emplace(app.name,
                              aloneIpc(cfg, app, instr, seed_salt))
                     .first;
        }
        out.push_back(it->second);
    }
    return out;
}

} // namespace dapsim
