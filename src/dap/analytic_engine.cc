#include "dap/analytic_engine.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/log.hh"
#include "dap/bandwidth_model.hh"

namespace dapsim::fastfwd
{

namespace
{

/** Split a fractional quantity into whole units + carried remainder. */
std::uint64_t
drain(double amount, double &remainder)
{
    const double total = amount + remainder;
    const double whole = std::floor(total);
    remainder = total - whole;
    return static_cast<std::uint64_t>(whole);
}

} // namespace

AnalyticEngine::AnalyticEngine(double b_ms, double b_mm, double b_remote,
                               double efficiency, double alpha)
    : bMs_(b_ms), bMm_(b_mm), bRem_(b_remote), eff_(efficiency),
      alpha_(alpha)
{
    if (b_mm <= 0.0)
        fatal("fastfwd: main-memory bandwidth must be positive");
    if (efficiency <= 0.0 || efficiency > 1.0)
        fatal("fastfwd: efficiency must be in (0, 1]");
    if (alpha <= 0.0 || alpha > 1.0)
        fatal("fastfwd: EWMA alpha must be in (0, 1]");
}

double
AnalyticEngine::ewma(double prev, double next) const
{
    return ready_ ? (1.0 - alpha_) * prev + alpha_ * next : next;
}

void
AnalyticEngine::observe(const WindowSample &w)
{
    if (w.instr == 0 || w.cycles == 0)
        return;
    const double instr = static_cast<double>(w.instr);
    const double cycles = static_cast<double>(w.cycles);
    ipcDet_ = ewma(ipcDet_, instr / cycles);
    msR_ = ewma(msR_, static_cast<double>(w.msReads) / instr);
    msW_ = ewma(msW_, static_cast<double>(w.msWrites) / instr);
    mmR_ = ewma(mmR_, static_cast<double>(w.mmReads) / instr);
    mmW_ = ewma(mmW_, static_cast<double>(w.mmWrites) / instr);
    remR_ = ewma(remR_, static_cast<double>(w.remReads) / instr);
    remW_ = ewma(remW_, static_cast<double>(w.remWrites) / instr);
    ready_ = true;
}

double
AnalyticEngine::deliveredAccPerCycle(double ms_load, double mm_load,
                                     double remote_load) const
{
    // Efficiency-derated peaks of the sources this system actually
    // has. An MS$-less system (B_MS$ = 0) and a 2-tier system simply
    // drop their absent sources from the vectors.
    std::vector<double> bands;
    std::vector<double> loads;
    if (bMs_ > 0.0) {
        bands.push_back(eff_ * bMs_);
        loads.push_back(ms_load);
    }
    bands.push_back(eff_ * bMm_);
    loads.push_back(mm_load);
    if (bRem_ > 0.0) {
        bands.push_back(eff_ * bRem_);
        loads.push_back(remote_load);
    }

    const double cap = bwmodel::maxDeliveredBandwidth(bands);
    double total = 0.0;
    for (double l : loads)
        total += l;
    if (total <= 0.0)
        return cap;

    std::vector<double> fractions;
    fractions.reserve(loads.size());
    for (double l : loads)
        fractions.push_back(l / total);
    // Eq 2: delivered = min_i(B_i / f_i) = 1 / max_i(f_i / B_i);
    // since max_i(f_i/B_i) >= (sum f_i)/(sum B_i) this never exceeds
    // the sum cap.
    return std::min(cap,
                    bwmodel::deliveredBandwidth(bands, fractions));
}

double
AnalyticEngine::predictIpc() const
{
    if (!ready_)
        return 0.0;
    const double ms = msR_ + msW_;
    const double mm = mmR_ + mmW_;
    const double rem = remR_ + remW_;
    const double per_instr = ms + mm + rem;
    if (per_instr <= 0.0)
        return ipcDet_; // no memory traffic: nothing bandwidth-bound
    const double ipc_bw =
        deliveredAccPerCycle(ms, mm, rem) / per_instr;
    return std::min(ipcDet_, ipc_bw);
}

FastForwardChunk
AnalyticEngine::fastForward(std::uint64_t instr)
{
    FastForwardChunk out;
    if (instr == 0)
        return out;
    const double n = static_cast<double>(instr);
    // Price skipped cycles at the measured (smoothed) detailed IPC:
    // the access mix cannot shift mid-fast-forward, so the bandwidth
    // cap in predictIpc() could only bind when the model's derated
    // peaks underestimate what the detailed windows actually achieved
    // — a calibration artifact, not a prediction. predictIpc() stays
    // the modeling answer for mix-shift questions (DAP credit warm-up,
    // monotonicity properties). Floor at a pessimistic-but-finite
    // rate: a zero IPC would stall simulated time forever.
    const double ipc = std::max(ready_ ? ipcDet_ : predictIpc(), 1e-6);
    out.cycles = drain(n / ipc, remCycles_);
    out.msReads = drain(msR_ * n, remMsR_);
    out.msWrites = drain(msW_ * n, remMsW_);
    out.mmReads = drain(mmR_ * n, remMmR_);
    out.mmWrites = drain(mmW_ * n, remMmW_);
    out.remReads = drain(remR_ * n, remRemR_);
    out.remWrites = drain(remW_ * n, remRemW_);
    return out;
}

} // namespace dapsim::fastfwd
