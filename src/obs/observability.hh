/**
 * @file
 * Per-run observability bundle.
 *
 * Owns the output streams, the Sampler, the DapTrace and the
 * ChromeTraceWriter selected by an ObsConfig. Their probes read the
 * components of the System they observe, so the bundle must not
 * outlive it — System owns it. The System constructor performs the
 * wiring; see System::setupObservability().
 */

#ifndef DAPSIM_OBS_OBSERVABILITY_HH
#define DAPSIM_OBS_OBSERVABILITY_HH

#include <fstream>
#include <memory>
#include <string>

#include "common/event_queue.hh"
#include "obs/chrome_trace.hh"
#include "obs/dap_trace.hh"
#include "obs/obs_config.hh"
#include "obs/sampler.hh"

namespace dapsim::obs
{

/** Everything one simulated run needs to emit its observability. */
class Observability
{
  public:
    /** Opens every selected output file; fatal() if one cannot be
     *  created. @p eq supplies timestamps for the tracers. */
    Observability(const ObsConfig &cfg, const EventQueue &eq);

    /** Flushes and closes everything (finish() is called if the
     *  caller forgot). */
    ~Observability();

    Observability(const Observability &) = delete;
    Observability &operator=(const Observability &) = delete;

    const ObsConfig &config() const { return cfg_; }

    /** The sampler; register columns before startSampling(). */
    Sampler &sampler() { return sampler_; }

    /** Begin periodic sampling on @p eq (no-op when sampling is off).
     *  Called from System::run() so checkpoint-time event queues stay
     *  untouched. */
    void startSampling(EventQueue &eq);

    /** The DAP window tracer, or null when --dap-trace is off. */
    DapTrace *dapTrace() { return dapTrace_.get(); }

    /** The Chrome trace writer, or null when --chrome-trace is off. */
    ChromeTraceWriter *chromeTrace() { return chromeTrace_.get(); }

    /** Stop sampling, close the trace document, flush all files.
     *  Idempotent. */
    void finish();

  private:
    std::ofstream openOut(const std::string &path);

    ObsConfig cfg_;
    std::ofstream sampleOut_;
    std::ofstream dapOut_;
    std::ofstream chromeOut_;
    Sampler sampler_;
    std::unique_ptr<DapTrace> dapTrace_;
    std::unique_ptr<ChromeTraceWriter> chromeTrace_;
    bool finished_ = false;
};

} // namespace dapsim::obs

#endif // DAPSIM_OBS_OBSERVABILITY_HH
