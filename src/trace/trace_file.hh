/**
 * @file
 * Trace-file access generator.
 *
 * Lets users drive the simulator from recorded traces instead of the
 * synthetic generators. The format is deliberately simple and
 * tool-friendly — one record per line:
 *
 *     <instr_gap> <r|w> <hex_address>
 *
 * Lines starting with '#' are comments. The stream loops at EOF so
 * rate-mode runs never starve (the paper's "threads that finish early
 * continue to run" methodology needs endless streams).
 */

#ifndef DAPSIM_TRACE_TRACE_FILE_HH
#define DAPSIM_TRACE_TRACE_FILE_HH

#include <string>
#include <vector>

#include "trace/access_gen.hh"

namespace dapsim
{

/** Replays a parsed trace, looping at the end. */
class TraceFileGenerator final : public AccessGenerator
{
  public:
    /**
     * Parse @p path; fatal() on malformed records or an empty trace.
     * @param base address offset added to every record (per-core
     *             address-space slicing)
     */
    explicit TraceFileGenerator(const std::string &path, Addr base = 0);

    /** Build from in-memory records (tests, programmatic traces). */
    TraceFileGenerator(std::vector<TraceRequest> records, Addr base = 0);

    bool next(TraceRequest &out) override;

    void
    save(ckpt::Serializer &s) const override
    {
        s.u64(pos_);
        s.u64(loops_);
    }

    void
    restore(ckpt::Deserializer &d) override
    {
        pos_ = d.cursor(records_.size(), "trace cursor");
        loops_ = d.u64();
    }

    std::size_t records() const { return records_.size(); }
    std::uint64_t loops() const { return loops_; }

    /**
     * Parse one record line; returns false for comments/blank lines,
     * fatal() on malformed input (naming 1-based @p line_no when
     * nonzero). Addresses must parse fully as hex and fit a 64-bit
     * Addr; overflowing or negative values are rejected rather than
     * wrapped. Exposed for tests and tools.
     */
    static bool parseLine(const std::string &line, TraceRequest &out,
                          std::size_t line_no = 0);

  private:
    std::vector<TraceRequest> records_;
    Addr base_;
    std::size_t pos_ = 0;
    std::uint64_t loops_ = 0;
};

/** Write up to @p max_records records drawn from @p gen to @p path in
 *  the trace-file format, each as it is drawn; returns how many were
 *  written. fatal() when the file cannot be written. */
std::uint64_t writeTraceFile(const std::string &path, AccessGenerator &gen,
                             std::uint64_t max_records);

} // namespace dapsim

#endif // DAPSIM_TRACE_TRACE_FILE_HH
