#include "expd/grid.hh"

#include <stdexcept>

#include "common/log.hh"
#include "sim/presets.hh"
#include "workload/compose.hh"
#include "workload/spec.hh"

namespace dapsim::expd
{

SystemConfig
archConfig(const std::string &arch, std::uint64_t capacity_mb)
{
    SystemConfig cfg;
    if (arch == "sectored") {
        cfg = presets::sectoredSystem8();
        if (capacity_mb)
            cfg.sectored.capacityBytes = capacity_mb * kMiB;
    } else if (arch == "alloy") {
        cfg = presets::alloySystem8();
        if (capacity_mb)
            cfg.alloy.capacityBytes = capacity_mb * kMiB;
    } else if (arch == "edram") {
        cfg = presets::edramSystem8(capacity_mb ? capacity_mb : 4);
    } else {
        fatal("unknown arch: " + arch);
    }
    return cfg;
}

void
applyGridPoint(const GridOptions &opt, SystemConfig &cfg)
{
    cfg.numCores = opt.cores;
    if (opt.warmup)
        cfg.warmupAccessesPerCore = opt.warmup;
    if (opt.remote) {
        cfg.remote.enabled = true;
        cfg.remote.bwScaleFactor = opt.remoteScale;
        cfg.remote.addLatencyNs = opt.remoteLatencyNs;
        cfg.remote.maxOutstanding = opt.remoteOutstanding;
    }
    if (!fidelityModeFromName(opt.fidelity, cfg.fidelity.mode))
        fatal("unknown fidelity: " + opt.fidelity);
    if (opt.fidelityDetail)
        cfg.fidelity.detailInstr = opt.fidelityDetail;
    if (opt.fidelityPeriod)
        cfg.fidelity.periodInstr = opt.fidelityPeriod;
}

namespace
{

/** A grid workload: a resolved profile, a composed workload-engine
 *  spec, or an unknown name kept so its grid points surface as error
 *  records instead of killing the whole sweep. */
struct GridWorkload
{
    WorkloadProfile profile;
    bool known = true;
    bool isSpec = false;
    workload::ComposedMix composed; ///< when isSpec
};

std::vector<GridWorkload>
resolveWorkloads(const std::vector<std::string> &names,
                 std::uint32_t cores)
{
    std::vector<GridWorkload> out;
    auto push = [&out](const WorkloadProfile &w) {
        out.push_back({w, true, false, {}});
    };
    for (const auto &name : names) {
        if (name == "all") {
            for (const auto &w : allWorkloads())
                push(w);
        } else if (name == "sensitive") {
            for (const auto &w : bandwidthSensitiveWorkloads())
                push(w);
        } else if (name == "insensitive") {
            for (const auto &w : bandwidthInsensitiveWorkloads())
                push(w);
        } else {
            bool found = false;
            for (const auto &w : allWorkloads()) {
                if (w.name == name) {
                    push(w);
                    found = true;
                    break;
                }
            }
            if (found)
                continue;
            if (workload::looksLikeSpec(name)) {
                // Malformed specs fatal() here, before any job runs.
                GridWorkload gw;
                gw.known = true;
                gw.isSpec = true;
                gw.composed = workload::composeWorkload(name, cores);
                out.push_back(std::move(gw));
            } else {
                WorkloadProfile unknown;
                unknown.name = name;
                out.push_back({unknown, false, false, {}});
            }
        }
    }
    return out;
}

} // namespace

std::vector<ExpandedJob>
expandGrid(const GridOptions &opt)
{
    const std::vector<GridWorkload> workloads =
        resolveWorkloads(opt.workloads, opt.cores);

    std::vector<ExpandedJob> out;
    for (const auto &arch : opt.archs) {
        for (std::uint64_t cap : opt.capacitiesMb) {
            SystemConfig cfg = archConfig(arch, cap);
            applyGridPoint(opt, cfg);
            for (const auto &gw : workloads) {
                for (const auto &policy : opt.policies) {
                    exp::JobSpec spec;
                    spec.cfg = cfg;
                    spec.policy = exp::policyKindFromName(policy);
                    spec.instr = opt.instr;
                    spec.seedSalt = opt.seed;
                    spec.knobs["arch"] = arch;
                    if (!cfg.fidelity.exact())
                        spec.knobs["fidelity"] = opt.fidelity;
                    if (cap)
                        spec.knobs["capacity_mb"] =
                            std::to_string(cap);
                    if (gw.isSpec) {
                        spec.mix = gw.composed.mix;
                        spec.cfg.obs.coreTenants =
                            gw.composed.coreTenants;
                    } else if (gw.known) {
                        spec.mix = rateMix(gw.profile, opt.cores);
                    } else {
                        spec.mix.name = gw.profile.name;
                        spec.label = gw.profile.name + "/" + policy;
                        const std::string name = gw.profile.name;
                        spec.custom = [name]() -> RunResult {
                            throw std::invalid_argument(
                                "unknown workload: " + name);
                        };
                    }
                    ExpandedJob job;
                    job.id = exp::jobId(spec);
                    job.group = exp::groupKey(spec);
                    job.spec = std::move(spec);
                    out.push_back(std::move(job));
                }
            }
        }
    }
    return out;
}

} // namespace dapsim::expd
