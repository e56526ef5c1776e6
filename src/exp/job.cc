#include "exp/job.hh"

#include <cinttypes>
#include <cstdio>
#include <exception>
#include <stdexcept>

#include "common/log.hh"

namespace dapsim::exp
{

const char *
policyKindName(PolicyKind policy)
{
    switch (policy) {
      case PolicyKind::Baseline:
        return "baseline";
      case PolicyKind::Dap:
        return "dap";
      case PolicyKind::Sbd:
        return "sbd";
      case PolicyKind::SbdWt:
        return "sbd-wt";
      case PolicyKind::Batman:
        return "batman";
      case PolicyKind::Bear:
        return "bear";
    }
    return "unknown";
}

const char *
archName(MsArch arch)
{
    switch (arch) {
      case MsArch::Sectored:
        return "sectored";
      case MsArch::Alloy:
        return "alloy";
      case MsArch::Edram:
        return "edram";
      case MsArch::None:
        return "none";
    }
    return "unknown";
}

PolicyKind
policyKindFromName(const std::string &name)
{
    if (name == "baseline")
        return PolicyKind::Baseline;
    if (name == "dap")
        return PolicyKind::Dap;
    if (name == "sbd")
        return PolicyKind::Sbd;
    if (name == "sbd-wt")
        return PolicyKind::SbdWt;
    if (name == "batman")
        return PolicyKind::Batman;
    if (name == "bear")
        return PolicyKind::Bear;
    fatal("unknown policy: " + name);
}

std::string
JobSpec::displayLabel() const
{
    if (!label.empty())
        return label;
    return mix.name + "/" + policyKindName(policy);
}

std::string
hashHex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

bool
warmupForkable(const JobSpec &spec)
{
    return !spec.custom && spec.instr != 0 && spec.cfg.numCores != 0 &&
           spec.mix.apps.size() == spec.cfg.numCores;
}

std::uint64_t
warmupStateHash(const JobSpec &spec)
{
    return ckpt::stateHash(spec.cfg, ckpt::describeMix(spec.mix),
                           spec.seedSalt,
                           ckpt::resolveWarmCount(spec.cfg));
}

std::string
groupKey(const JobSpec &spec)
{
    return warmupForkable(spec) ? hashHex(warmupStateHash(spec))
                                : std::string();
}

std::uint64_t
jobContentHash(const JobSpec &spec)
{
    ckpt::Serializer s;
    s.str("dapsim.job.v1");
    if (spec.custom || spec.cfg.numCores == 0) {
        // Custom closures have no canonical form; their id is only as
        // stable as their label. The experiment service refuses them.
        s.boolean(true);
        s.str(spec.displayLabel());
    } else {
        s.boolean(false);
        SystemConfig cfg = spec.cfg;
        cfg.policy = spec.policy;
        const std::uint64_t state =
            ckpt::stateHash(cfg, ckpt::describeMix(spec.mix),
                            spec.seedSalt,
                            ckpt::resolveWarmCount(cfg));
        s.u64(state);
        s.u64(ckpt::fullHash(state, cfg));
        s.u64(spec.instr);
        // Fidelity alters the result without altering the warm state,
        // so the config hashes above cannot see it. Appended only for
        // reduced-fidelity jobs: exact jobs keep their historical ids,
        // while stores never dedup or resume across fidelity levels
        // (tests/test_fidelity.cc proves both).
        const FidelityConfig &fid = spec.cfg.fidelity;
        if (fid.mode != FidelityMode::Exact) {
            s.str("fidelity");
            s.u32(static_cast<std::uint32_t>(fid.mode));
            s.u64(fid.detailInstr);
            s.u64(fid.periodInstr);
            s.u64(fid.detailWarmupInstr);
            s.u64(fid.analyticInstr);
            s.f64(fid.analyticLatencyCycles);
            s.f64(fid.analyticBwDerate);
            s.f64(fid.ewmaAlpha);
        }
    }
    s.u64(spec.knobs.size());
    for (const auto &[k, v] : spec.knobs) { // std::map: sorted order
        s.str(k);
        s.str(v);
    }
    return ckpt::fnv1a(s.buffer());
}

std::string
jobId(const JobSpec &spec)
{
    return hashHex(jobContentHash(spec));
}

JobResult
runJob(const JobSpec &spec, std::size_t index, ckpt::CheckpointView fork)
{
    JobResult out;
    out.index = index;
    out.jobId = jobId(spec);
    out.label = spec.displayLabel();
    out.archName = archName(spec.cfg.arch);
    out.policyName = policyKindName(spec.policy);
    out.mixName = spec.mix.name;
    out.numCores = spec.cfg.numCores;
    out.instr = spec.instr;
    out.seedSalt = spec.seedSalt;
    out.knobs = spec.knobs;

    try {
        if (spec.custom) {
            out.result = spec.custom();
        } else {
            // Pre-validate what runMix() would fatal() on — fatal()
            // exits the process, which would defeat the sweep's
            // per-job failure isolation.
            if (spec.mix.apps.size() != spec.cfg.numCores)
                throw std::invalid_argument(
                    "mix '" + spec.mix.name + "' is " +
                    std::to_string(spec.mix.apps.size()) +
                    "-wide but the system has " +
                    std::to_string(spec.cfg.numCores) + " cores");
            if (spec.instr == 0)
                throw std::invalid_argument(
                    "job has a zero instruction budget");
            SystemConfig cfg = spec.cfg;
            cfg.policy = spec.policy;
            if (fork) {
                out.result = ckpt::runMixFromCheckpoint(
                    cfg, spec.mix, spec.instr, spec.seedSalt,
                    std::move(fork), /*fork=*/true);
            } else {
                out.result = runMix(cfg, spec.mix, spec.instr,
                                    spec.seedSalt);
            }
        }
        out.ok = true;
    } catch (const std::exception &e) {
        out.error = e.what();
    } catch (...) {
        out.error = "unknown exception";
    }
    return out;
}

} // namespace dapsim::exp
