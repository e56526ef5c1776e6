/**
 * @file
 * Workload-engine access generators.
 *
 * Five composable kernels behind the AccessGenerator interface. The
 * six spec kinds of spec_names.hh map onto them: `flood` builds a
 * stride-1 SparseStrideGenerator.
 *
 *  - ZipfGenerator: Zipf-ranked key popularity, ranks scrambled over
 *    the footprint by a Feistel permutation, optional phase drift.
 *  - HotspotGenerator: hot region + cold tail whose hot set drifts.
 *  - ChaseGenerator: dependent pointer chase over a full-cycle
 *    pseudorandom tour — zero spatial locality, prefetch-hostile.
 *  - WriteBurstGenerator: alternating write bursts and read phases.
 *  - SparseStrideGenerator: fixed-stride sweep. The default stride
 *    touches one block per sector (sector-hostile); stride 1 is the
 *    sequential read flood (bandwidth hog).
 *
 * Determinism contract: every generator is a pure function of its
 * parameter block (seed included); two instances built from equal
 * params produce byte-identical streams. Checkpoint contract: save()
 * captures the Rng engine state plus the few position counters, so a
 * restored instance continues the exact uninterrupted stream — drift
 * schedules are keyed off the saved access counter, never wall-clock
 * or sim time.
 */

#ifndef DAPSIM_WORKLOAD_GENERATORS_HH
#define DAPSIM_WORKLOAD_GENERATORS_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/types.hh"
#include "trace/access_gen.hh"
#include "workload/zipf.hh"

namespace dapsim::workload
{

/** How the hot set moves over the footprint as the stream advances. */
struct DriftConfig
{
    enum class Mode
    {
        None,    ///< stationary distribution
        Rotate,  ///< continuous offset sweep, one revolution per period
        Jump,    ///< abrupt pseudorandom re-placement each period
        Migrate, ///< gradual probabilistic migration between phases
    };

    Mode mode = Mode::None;

    /** Accesses per drift cycle (revolution / phase). */
    std::uint64_t period = 200'000;
};

/**
 * Block offset the drift schedule applies at access number @p n.
 * Deterministic in (config, seed, n) except Migrate, which blends two
 * phase placements with a draw from @p rng (checkpointed anyway).
 */
std::uint64_t driftOffset(const DriftConfig &d, std::uint64_t blocks,
                          std::uint64_t seed, std::uint64_t n, Rng &rng);

/** Dials shared by every engine kernel. */
struct KernelParams
{
    std::uint64_t footprintBytes = 32 * kMiB;
    double writeFraction = 0.2;
    double mpki = 25.0;
    Addr base = 0;
    std::uint64_t seed = 1;
};

/** Zipf-popularity generator with optional phase drift. */
class ZipfGenerator final : public DrawnGenerator<ZipfGenerator>
{
  public:
    struct Params : KernelParams
    {
        double skew = 0.99;
        double runLength = 4.0;
        DriftConfig drift;
    };

    explicit ZipfGenerator(const Params &p);

    void save(ckpt::Serializer &s) const override;
    void restore(ckpt::Deserializer &d) override;

  private:
    friend class DrawnGenerator<ZipfGenerator>;
    template <bool kGap>
    WarmAccess draw(std::uint64_t &gap);

    std::uint64_t pickBlock();

    Params p_;
    std::uint64_t blocks_;
    ZipfSampler zipf_;
    BlockPermutation perm_;
    std::uint64_t span_;
    std::uint64_t rem_;
    Rng rng_;
    std::uint64_t accesses_ = 0;
    std::uint64_t runPtr_ = 0;
    std::uint32_t runLeft_ = 0;
};

/** Hot-region generator whose hot set drifts on a schedule. */
class HotspotGenerator final : public DrawnGenerator<HotspotGenerator>
{
  public:
    struct Params : KernelParams
    {
        double hotFraction = 0.05;
        double hotProbability = 0.9;
        double runLength = 4.0;
        DriftConfig drift;
    };

    explicit HotspotGenerator(const Params &p);

    void save(ckpt::Serializer &s) const override;
    void restore(ckpt::Deserializer &d) override;

  private:
    friend class DrawnGenerator<HotspotGenerator>;
    template <bool kGap>
    WarmAccess draw(std::uint64_t &gap);

    Params p_;
    std::uint64_t blocks_;
    std::uint64_t hotBlocks_;
    Rng rng_;
    std::uint64_t accesses_ = 0;
    std::uint64_t runPtr_ = 0;
    std::uint32_t runLeft_ = 0;
};

/** Dependent pointer chase over a full-cycle pseudorandom tour. */
class ChaseGenerator final : public DrawnGenerator<ChaseGenerator>
{
  public:
    explicit ChaseGenerator(const KernelParams &p);

    void save(ckpt::Serializer &s) const override;
    void restore(ckpt::Deserializer &d) override;

  private:
    friend class DrawnGenerator<ChaseGenerator>;
    template <bool kGap>
    WarmAccess draw(std::uint64_t &gap);

    KernelParams p_;
    std::uint64_t blocks_;
    BlockPermutation perm_;
    Rng rng_;
    std::uint64_t counter_ = 0;
};

/** Alternating sequential write bursts and random read phases. */
class WriteBurstGenerator final
    : public DrawnGenerator<WriteBurstGenerator>
{
  public:
    struct Params : KernelParams
    {
        std::uint64_t burst = 64; ///< writes per burst
        double duty = 0.5;        ///< overall write fraction (0, 1]
    };

    explicit WriteBurstGenerator(const Params &p);

    void save(ckpt::Serializer &s) const override;
    void restore(ckpt::Deserializer &d) override;

  private:
    friend class DrawnGenerator<WriteBurstGenerator>;
    template <bool kGap>
    WarmAccess draw(std::uint64_t &gap);

    Params p_;
    std::uint64_t blocks_;
    std::uint64_t cycleLen_;
    Rng rng_;
    std::uint64_t pos_ = 0;     ///< position within the burst cycle
    std::uint64_t writePtr_ = 0;
};

/** Fixed-stride sweep: sector-hostile at one block per sector, a
 *  sequential flood at stride 1. */
class SparseStrideGenerator final
    : public DrawnGenerator<SparseStrideGenerator>
{
  public:
    struct Params : KernelParams
    {
        std::uint64_t strideBlocks = 8; ///< 8 blocks = one 512 B sector
    };

    explicit SparseStrideGenerator(const Params &p);

    void save(ckpt::Serializer &s) const override;
    void restore(ckpt::Deserializer &d) override;

  private:
    friend class DrawnGenerator<SparseStrideGenerator>;
    template <bool kGap>
    WarmAccess draw(std::uint64_t &gap);

    Params p_;
    std::uint64_t blocks_;
    Rng rng_;
    std::uint64_t ptr_ = 0;
};

} // namespace dapsim::workload

#endif // DAPSIM_WORKLOAD_GENERATORS_HH
