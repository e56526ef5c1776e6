/**
 * @file
 * Time-series stat sampler.
 *
 * Snapshots registered probe columns every N simulated CPU cycles
 * into a columnar time series, turning end-of-run aggregates — hit
 * rates, CAS fractions, DAP credit counters — into curves. Output is
 * JSONL (a header record describing the columns, then one record per
 * sample) or CSV.
 *
 * Determinism: every value is derived from simulator state, numbers
 * are printed with round-trip precision, and the sampling events only
 * read state, so two runs of the same spec produce byte-identical
 * files on any thread of any sweep.
 */

#ifndef DAPSIM_OBS_SAMPLER_HH
#define DAPSIM_OBS_SAMPLER_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "obs/obs_config.hh"

namespace dapsim::obs
{

/** Periodic snapshotter of registered stats. */
class Sampler
{
  public:
    /** Schema identifier written into the JSONL header record. */
    static constexpr const char *kSchema = "dapsim.timeseries.v1";

    /** Register one column (a counter, a ratio, a credit count, ...)
     *  before start(). The probe must only read simulator state. */
    void addColumn(std::string name, std::function<double()> probe);

    /**
     * Write the header to @p os and schedule the first sample @p every
     * CPU cycles from now on @p eq; the sampler then reschedules
     * itself until stop(). Columns must not change after start().
     */
    void start(EventQueue &eq, Cycle every, std::ostream &os,
               SampleFormat format);

    /** Halt sampling (the pending event becomes a no-op). */
    void stop() { running_ = false; }

    /** Samples written so far. */
    std::uint64_t samples() const { return samples_; }

    /** Column labels in output order (for tests). */
    std::vector<std::string> columnNames() const;

  private:
    void tick();
    void writeRow();

    std::vector<std::pair<std::string, std::function<double()>>>
        columns_;

    EventQueue *eq_ = nullptr;
    std::ostream *os_ = nullptr;
    SampleFormat format_ = SampleFormat::Jsonl;
    Cycle every_ = 0;
    bool running_ = false;
    std::uint64_t samples_ = 0;
};

} // namespace dapsim::obs

#endif // DAPSIM_OBS_SAMPLER_HH
