#include "dap/dap_controller.hh"

#include <cmath>

#include "common/log.hh"

namespace dapsim
{

std::int64_t
DapConfig::msAccessesPerWindow() const
{
    return static_cast<std::int64_t>(
        std::floor(efficiency * msPeakAccPerCycle *
                   static_cast<double>(windowCycles)));
}

std::int64_t
DapConfig::msWriteAccessesPerWindow() const
{
    return static_cast<std::int64_t>(
        std::floor(efficiency * msWritePeakAccPerCycle *
                   static_cast<double>(windowCycles)));
}

std::int64_t
DapConfig::mmAccessesPerWindow() const
{
    return static_cast<std::int64_t>(
        std::floor(efficiency * mmPeakAccPerCycle *
                   static_cast<double>(windowCycles)));
}

std::int64_t
DapConfig::remoteAccessesPerWindow() const
{
    return static_cast<std::int64_t>(
        std::floor(efficiency * remotePeakAccPerCycle *
                   static_cast<double>(windowCycles)));
}

FixedRatio
DapConfig::ratioK() const
{
    if (msPeakAccPerCycle <= 0.0 || mmPeakAccPerCycle <= 0.0)
        fatal("DapConfig: bandwidths must be set before use");
    if (remotePeakAccPerCycle < 0.0)
        fatal("DapConfig: remote bandwidth must be non-negative");
    // DAP-n: the MS$ is partitioned against the combined lower level;
    // how that lower level splits between DDR and remote is solved
    // separately (dap::solveRemoteSplit). With no remote tier this is
    // exactly the paper's K = B_MS$ / B_MM.
    const double lower = mmPeakAccPerCycle + remotePeakAccPerCycle;
    return FixedRatio::quantize(msPeakAccPerCycle / lower, kShift);
}

DapPolicy::DapPolicy(const DapConfig &cfg) : cfg_(cfg), k_(cfg.ratioK())
{
    if (cfg_.windowCycles == 0)
        fatal("DapPolicy: window must be non-zero");
    // The per-window budgets floor efficiency x peak x window into an
    // int64 (undefined for NaN); analytic mode enforces the same range.
    if (!(cfg_.efficiency > 0.0 && cfg_.efficiency <= 1.0))
        fatal("DapPolicy: efficiency must be in (0, 1]");
}

void
DapPolicy::beginWindow(const WindowCounters &prev)
{
    windowsTotal.inc();
    // The solvers see the combined lower level (DDR + remote, when
    // present) as "main memory"; b_lower_w degenerates to B_MM·W·E
    // without a remote tier.
    const std::int64_t b_lower_w =
        cfg_.mmAccessesPerWindow() + cfg_.remoteAccessesPerWindow();
    switch (cfg_.arch) {
      case DapConfig::Arch::Sectored: {
        dap::SectoredInput in;
        in.aMs = static_cast<std::int64_t>(prev.aMs);
        in.aMm = static_cast<std::int64_t>(prev.aMm);
        in.readMisses = static_cast<std::int64_t>(prev.readMisses);
        in.writes = static_cast<std::int64_t>(prev.writes);
        in.cleanHits = static_cast<std::int64_t>(prev.cleanHits);
        in.bMsW = cfg_.msAccessesPerWindow();
        in.bMmW = b_lower_w;
        targets_ = dap::solveSectored(in, k_, cfg_.sfrmFactor,
                                      cfg_.targetCap);
        break;
      }
      case DapConfig::Arch::Alloy: {
        dap::AlloyInput in;
        in.aMs = static_cast<std::int64_t>(prev.aMs);
        in.aMm = static_cast<std::int64_t>(prev.aMm);
        in.cleanHits = static_cast<std::int64_t>(prev.cleanHits);
        in.bMsW = cfg_.msAccessesPerWindow();
        in.bMmW = b_lower_w;
        targets_ = dap::solveAlloy(in, k_, cfg_.sfrmFactor,
                                   cfg_.targetCap);
        break;
      }
      case DapConfig::Arch::Edram: {
        dap::EdramInput in;
        in.aMsRead = static_cast<std::int64_t>(prev.aMsRead);
        in.aMsWrite = static_cast<std::int64_t>(prev.aMsWrite);
        in.aMm = static_cast<std::int64_t>(prev.aMm);
        in.readMisses = static_cast<std::int64_t>(prev.readMisses);
        in.writes = static_cast<std::int64_t>(prev.writes);
        in.cleanHits = static_cast<std::int64_t>(prev.cleanHits);
        in.bMsReadW = cfg_.msAccessesPerWindow();
        in.bMsWriteW = cfg_.msWriteAccessesPerWindow();
        in.bMmW = b_lower_w;
        targets_ = dap::solveEdram(in, k_, cfg_.targetCap);
        break;
      }
    }

    if (targets_.active)
        windowsPartitioned.inc();

    load(fwbCredits_, cfg_.enableFwb ? targets_.nFwb : 0);
    load(wbCredits_, cfg_.enableWb ? targets_.nWb : 0);
    load(ifrmCredits_, cfg_.enableIfrm ? targets_.nIfrm : 0);
    load(sfrmCredits_, cfg_.enableSfrm ? targets_.nSfrm : 0);
    load(wtCredits_, targets_.nWriteThrough);

    if (cfg_.remoteEnabled()) {
        // DAP-n: route the remote pool its Eq 4 share of last window's
        // lower-tier demand via a credit window of its own.
        targets_.nRemote = dap::solveRemoteSplit(
            static_cast<std::int64_t>(prev.aMm),
            cfg_.mmAccessesPerWindow(), cfg_.remoteAccessesPerWindow());
        load(remoteCredits_, targets_.nRemote);
    }

    if (trace_) {
        DapWindowRecord rec;
        rec.window = windowsTotal.value();
        rec.in = prev;
        rec.targets = targets_;
        rec.fwbCredits = fwbCredits_;
        rec.wbCredits = wbCredits_;
        rec.ifrmCredits = ifrmCredits_;
        rec.sfrmCredits = sfrmCredits_;
        rec.wtCredits = wtCredits_;
        rec.fwbApplied = fwbApplied.value();
        rec.wbApplied = wbApplied.value();
        rec.ifrmApplied = ifrmApplied.value();
        rec.sfrmApplied = sfrmApplied.value();
        rec.wtApplied = writeThroughApplied.value();
        if (cfg_.remoteEnabled()) {
            rec.remoteEnabled = true;
            rec.remoteCredits = remoteCredits_;
            rec.remoteApplied = remoteApplied.value();
        }
        trace_->onWindow(rec);
    }
}

bool
DapPolicy::shouldBypassFill(Addr)
{
    if (!cfg_.enableFwb || !consume(fwbCredits_))
        return false;
    fwbApplied.inc();
    return true;
}

bool
DapPolicy::shouldBypassWrite(Addr)
{
    if (!cfg_.enableWb || !consume(wbCredits_))
        return false;
    wbApplied.inc();
    return true;
}

bool
DapPolicy::shouldForceReadMiss(Addr addr)
{
    if (!cfg_.enableIfrm)
        return false;
    // Thread-aware IFRM: spare the latency-sensitive cores' hits.
    const std::uint64_t core = addr >> 40;
    if (core < 64 && (cfg_.ifrmCoreMask & (1ULL << core)) == 0)
        return false;
    if (!consume(ifrmCredits_))
        return false;
    ifrmApplied.inc();
    return true;
}

bool
DapPolicy::shouldSpeculateToMemory(Addr)
{
    if (!cfg_.enableSfrm || !consume(sfrmCredits_))
        return false;
    sfrmApplied.inc();
    return true;
}

bool
DapPolicy::shouldWriteThrough(Addr)
{
    if (!consume(wtCredits_))
        return false;
    writeThroughApplied.inc();
    return true;
}

bool
DapPolicy::shouldRouteToRemote(Addr)
{
    if (!cfg_.remoteEnabled() || !consume(remoteCredits_))
        return false;
    remoteApplied.inc();
    return true;
}

void
DapPolicy::save(ckpt::Serializer &s) const
{
    s.i64(targets_.nFwb);
    s.i64(targets_.nWb);
    s.i64(targets_.nIfrm);
    s.i64(targets_.nSfrm);
    s.i64(targets_.nWriteThrough);
    s.boolean(targets_.active);
    s.i64(fwbCredits_);
    s.i64(wbCredits_);
    s.i64(ifrmCredits_);
    s.i64(sfrmCredits_);
    s.i64(wtCredits_);
    s.u64(fwbApplied.value());
    s.u64(wbApplied.value());
    s.u64(ifrmApplied.value());
    s.u64(sfrmApplied.value());
    s.u64(writeThroughApplied.value());
    s.u64(windowsPartitioned.value());
    s.u64(windowsTotal.value());
    // Appended only in DAP-n mode so 2-tier checkpoints keep their
    // exact historical byte layout.
    if (cfg_.remoteEnabled()) {
        s.i64(targets_.nRemote);
        s.i64(remoteCredits_);
        s.u64(remoteApplied.value());
    }
}

void
DapPolicy::restore(ckpt::Deserializer &d)
{
    targets_.nFwb = d.i64();
    targets_.nWb = d.i64();
    targets_.nIfrm = d.i64();
    targets_.nSfrm = d.i64();
    targets_.nWriteThrough = d.i64();
    targets_.active = d.boolean();
    fwbCredits_ = d.i64();
    wbCredits_ = d.i64();
    ifrmCredits_ = d.i64();
    sfrmCredits_ = d.i64();
    wtCredits_ = d.i64();
    fwbApplied.set(d.u64());
    wbApplied.set(d.u64());
    ifrmApplied.set(d.u64());
    sfrmApplied.set(d.u64());
    writeThroughApplied.set(d.u64());
    windowsPartitioned.set(d.u64());
    windowsTotal.set(d.u64());
    if (cfg_.remoteEnabled()) {
        targets_.nRemote = d.i64();
        remoteCredits_ = d.i64();
        remoteApplied.set(d.u64());
    }
}

} // namespace dapsim
