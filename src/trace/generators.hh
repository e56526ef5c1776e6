/**
 * @file
 * Concrete synthetic access-stream generators.
 *
 * SyntheticGenerator composes the behaviours the paper's workloads
 * exhibit at the L2-miss level:
 *  - sequential streaming through the footprint (libquantum/lbm-like),
 *  - random accesses into a hot region plus a cold tail
 *    (mcf/omnetpp-like pointer chasing),
 *  - configurable spatial run lengths (sector utilization),
 *  - a write (L2 dirty writeback) fraction,
 *  - geometric instruction gaps calibrated to an L2-miss MPKI.
 */

#ifndef DAPSIM_TRACE_GENERATORS_HH
#define DAPSIM_TRACE_GENERATORS_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/types.hh"
#include "trace/access_gen.hh"

namespace dapsim
{

/** Parameter block describing one synthetic workload's behaviour. */
struct SyntheticParams
{
    /** Total data footprint in bytes (per copy). */
    std::uint64_t footprintBytes = 32 * kMiB;

    /** Fraction of the footprint that forms the hot region. */
    double hotFraction = 0.1;

    /** Probability that a random access targets the hot region. */
    double hotProbability = 0.7;

    /** Fraction of accesses that are sequential streaming. */
    double streamFraction = 0.5;

    /** Mean blocks touched contiguously once a random point is
     *  chosen (spatial locality / sector utilization). */
    double runLength = 4.0;

    /** Fraction of accesses that are L2 dirty writebacks. */
    double writeFraction = 0.2;

    /** L2-miss MPKI: mean instruction gap = 1000 / mpki. */
    double mpki = 25.0;

    /** Base address (per-core offset keeps address spaces private). */
    Addr base = 0;

    std::uint64_t seed = 1;

    /** fatal() unless every dial is in range (see common/validate.hh). */
    void validate() const;
};

/** The workhorse generator. */
class SyntheticGenerator final
    : public DrawnGenerator<SyntheticGenerator>
{
  public:
    explicit SyntheticGenerator(const SyntheticParams &p);

    void save(ckpt::Serializer &s) const override;
    void restore(ckpt::Deserializer &d) override;

    const SyntheticParams &params() const { return p_; }

  private:
    friend class DrawnGenerator<SyntheticGenerator>;

    Addr pickRandomBlock();

    template <bool kGap>
    WarmAccess draw(std::uint64_t &gap);

    SyntheticParams p_;
    Rng rng_;

    Addr streamPtr_;   ///< current sequential pointer
    Addr runPtr_ = 0;  ///< current random-run pointer
    std::uint32_t runLeft_ = 0;
    std::uint64_t blocks_;
    std::uint64_t hotBlocks_;
    /** Per-access constants hoisted out of next(): the exact doubles
     *  the inline expressions produced, computed once. */
    double meanGap_;   ///< max(1, 1000 / mpki)
    double meanRun_;   ///< max(1, runLength)
};

} // namespace dapsim

#endif // DAPSIM_TRACE_GENERATORS_HH
