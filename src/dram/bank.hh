/**
 * @file
 * Row-buffer state machine for one DRAM bank.
 *
 * Banks track the open row and the ticks at which the next column
 * command and the next precharge may legally issue (tRCD/tCAS/tRP/tRAS).
 *
 * Timing products (cycles x period) are resolved once per channel into
 * a BankTiming POD, so reserving a bank or deriving its Floors reads
 * one cache line instead of re-deriving five multiplications from the
 * config.
 */

#ifndef DAPSIM_DRAM_BANK_HH
#define DAPSIM_DRAM_BANK_HH

#include <cstdint>

#include "ckpt/serializer.hh"
#include "common/types.hh"

namespace dapsim
{

struct DramConfig;

/**
 * Per-access timing products in ticks, resolved once from a
 * DramConfig (see BankTiming::from). One cache line: the scheduler
 * reads it on every CAS, so it must never share a line with mutable
 * channel state.
 */
struct alignas(64) BankTiming
{
    Tick tCas = 0;  ///< column-access latency
    Tick tRcd = 0;  ///< activate-to-column delay
    Tick tRp = 0;   ///< precharge latency
    Tick tRas = 0;  ///< activate-to-precharge minimum
    Tick tRfc = 0;  ///< refresh cycle time
    Tick burst = 0; ///< data-bus occupancy of one burst

    static BankTiming from(const DramConfig &cfg);
};

/** One DRAM bank: open-row state plus occupancy timeline. */
class Bank
{
  public:
    static constexpr std::uint64_t kNoRow = ~std::uint64_t(0);

    /** Result of reserving the bank for one column access. */
    struct Access
    {
        /** Earliest tick data may start moving on the bus. */
        Tick dataReadyAt;
        /** Whether the access hit the open row. */
        bool rowHit;
        /** Whether the bank had no open row (page-empty access). */
        bool rowEmpty;
    };

    /**
     * Reserve the bank for a column access to @p row, requested at tick
     * @p at. Updates the bank timeline and open-row state.
     */
    Access reserve(const BankTiming &t, Tick at, std::uint64_t row);

    /**
     * A rank record that changes only with the bank: a request to row
     * r at tick `at` has its data ready at max(at + tCAS, hitFloor)
     * when r == openRow, else at max(at + otherLat, otherFloor) (a
     * page-empty activate, or a tRAS-bound conflict). reserve() takes
     * its answer from the same record the scheduler ranks with.
     */
    struct Floors
    {
        std::uint64_t openRow; ///< kNoRow when page-empty
        Tick hitFloor;         ///< readyAt + tCAS
        Tick otherFloor;       ///< earliest data tick of a non-hit
        Tick otherLat;         ///< non-hit latency from the request tick
    };

    Floors floors(const BankTiming &t) const;

    /** Convenience overloads resolving timing per call (tests; the
     *  simulation hot path uses BankTiming). */
    Access reserve(const DramConfig &cfg, Tick at, std::uint64_t row);
    void refresh(const DramConfig &cfg, Tick now);

    /** Open row, or kNoRow. */
    std::uint64_t openRow() const { return openRow_; }

    /** Earliest tick the bank could begin a new column command. */
    Tick readyAt() const { return readyAt_; }

    /** Force-close the row (used by tests and refresh-like events). */
    void
    precharge()
    {
        openRow_ = kNoRow;
    }

    /** All-bank refresh: closes the row and occupies the bank for
     *  tRFC from @p now (or from its current busy point). */
    void refresh(const BankTiming &t, Tick now);

    /** Checkpoint the row-buffer state (see src/ckpt/). */
    void
    save(ckpt::Serializer &s) const
    {
        s.u64(openRow_);
        s.u64(readyAt_);
        s.u64(activatedAt_);
    }

    void
    restore(ckpt::Deserializer &d)
    {
        openRow_ = d.u64();
        readyAt_ = d.u64();
        activatedAt_ = d.u64();
    }

  private:
    std::uint64_t openRow_ = kNoRow;
    Tick readyAt_ = 0;
    /** Tick of the most recent activate (for tRAS). */
    Tick activatedAt_ = 0;
};

} // namespace dapsim

#endif // DAPSIM_DRAM_BANK_HH
