/**
 * @file
 * One DRAM channel: request queues, FR-FCFS-style scheduler, data bus.
 *
 * The scheduler ranks requests in a bounded scan window by the tick at
 * which their data could start moving (row hits on free banks first),
 * lets bank preparations proceed in parallel on independent banks, and
 * places data transfers into gaps of a bus-reservation timeline.
 * Writes are batched between drain watermarks to limit turnarounds;
 * low-priority reads (prefetch fetches) queue behind demand reads.
 */

#ifndef DAPSIM_DRAM_CHANNEL_HH
#define DAPSIM_DRAM_CHANNEL_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/serializer.hh"
#include "common/event_queue.hh"
#include "common/ring_deque.hh"
#include "common/slot_pool.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/dram_config.hh"

namespace dapsim
{

/** A single 64B column access presented to a channel. */
struct ChannelRequest
{
    std::uint64_t row = 0;
    std::uint32_t bank = 0;
    bool isWrite = false;
    /** Extra data-bus command clocks (Alloy TAD uses burst-6 = +1). */
    std::uint32_t extraDataClocks = 0;
    /** Low-priority reads (footprint prefetch fetches) queue behind
     *  demand reads so fill bursts cannot crowd the critical path. */
    bool lowPriority = false;
    /** Invoked when the access's data transfer (plus I/O) completes.
     *  Move-only (inline storage, see common/inline_callback.hh), so
     *  ChannelRequest itself is move-only. */
    EventQueue::Callback onComplete;
};

/**
 * Observability hook receiving one span per data-bus occupancy (see
 * src/obs/ ChromeTraceWriter). Null hooks cost one branch per CAS.
 */
struct BusTraceHook
{
    virtual ~BusTraceHook() = default;

    /**
     * @param source  stable name of the DRAM subsystem ("mainMemory",
     *                "msArray", ...)
     * @param channel channel index within the subsystem
     * @param start   tick the data bus becomes busy
     * @param end     tick the occupancy (burst + turnaround) ends
     * @param isWrite write vs read CAS
     * @param rowHit  row-buffer hit vs miss
     */
    virtual void onBusSpan(const std::string &source,
                           std::uint32_t channel, Tick start, Tick end,
                           bool isWrite, bool rowHit) = 0;
};

/**
 * Channel-level constants resolved from DramConfig at construction:
 * everything issue()/kick() used to re-derive per access (period
 * multiplications, the look-ahead window) lives on one read-only
 * cache line next to the BankTiming line.
 */
struct alignas(64) ChannelTiming
{
    Tick period = 0;     ///< command-clock period (ps)
    Tick turnaround = 0; ///< direction-flip bus occupancy
    Tick ioDelay = 0;    ///< post-burst board/floorplan I/O delay
    Tick maxAhead = 0;   ///< scheduler look-ahead window (see maxAhead())
    Tick refi = 0;       ///< refresh interval (0 = disabled)

    static ChannelTiming from(const DramConfig &cfg);
};

/** One channel with its banks, queues and scheduler. */
class Channel
{
  public:
    Channel(EventQueue &eq, const DramConfig &cfg, std::uint32_t index);

    /** Enqueue an access; queues are unbounded (MLP is core-bounded).
     *  O(1): demand and low-priority reads live in separate FIFOs, so
     *  a demand read never scans past queued prefetch fetches. */
    void enqueue(ChannelRequest req);

    /** Attach the bus observability hook; @p source names this DRAM
     *  subsystem in emitted spans. Null detaches. */
    void
    setBusTrace(BusTraceHook *hook, std::string source)
    {
        busTrace_ = hook;
        traceSource_ = std::move(source);
    }

    std::size_t
    readQueueLen() const
    {
        return readDemandQ_.size() + readLowQ_.size();
    }
    std::size_t writeQueueLen() const { return writeQ_.size(); }

    /** Ticks the data bus has been occupied (for utilization stats). */
    Tick busBusyTicks() const { return busBusy_; }

    /**
     * Checkpoint bank/bus/scheduler state (see src/ckpt/). Requests in
     * flight hold completion closures that cannot be serialized, so
     * save() requires empty queues and no pending scheduler kick — the
     * quiescent state every channel is in before the timed run starts.
     */
    void save(ckpt::Serializer &s) const;
    void restore(ckpt::Deserializer &d);

    // Aggregate statistics.
    Counter kicks;
    Counter kicksEmpty;
    Counter kicksWait;
    Counter kicksIssue;
    Counter casReads;
    Counter casWrites;
    Counter rowHits;
    Counter rowMisses;
    Counter turnarounds;
    Counter refreshes;
    Average readQueueDelay;   ///< ticks from enqueue to data start (reads)
    Average readLatency;      ///< ticks from enqueue to completion (reads)

  private:
    /**
     * Queued request with the completion callback parked elsewhere:
     * the FR-FCFS scan and positional erases stream over 32-byte
     * PODs instead of striding across (and move-constructing)
     * callback-carrying ~112-byte ChannelRequests. @c cb indexes
     * callbacks_.
     */
    struct HotReq
    {
        std::uint64_t row;
        Tick enqueuedAt;
        std::uint32_t bank;
        std::uint32_t extraDataClocks;
        std::uint32_t cb;
    };

    /** Try to issue requests; reschedules itself as needed. */
    void kick();

    /** Arrange for kick() to run at tick @p when (coalesced). */
    void scheduleKick(Tick when);

    /** Pre-bound kick event body: drops stale (superseded) wakeups. */
    void kickTick();

    /** Winning candidate of one FR-FCFS scan: queue position plus its
     *  data-ready tick, so kick() need not rank the winner again. */
    struct Pick
    {
        std::size_t idx = 0;
        Tick dataReadyAt = 0;
    };

    /** Pick the best candidate (earliest data, oldest on ties) among
     *  the first @p depth entries of the concatenated @p spans
     *  (contiguous HotReq runs in scan order), ranked from floors_.
     *  Total span length must be > 0. */
    Pick pickSpans(const std::pair<const HotReq *, std::size_t> *spans,
                   std::size_t nspans, std::size_t depth) const;

    /** A place on the bus timeline: a start tick, and the index in
     *  busResv_ of the first reservation a walk from it has yet to
     *  clear. */
    struct BusSlot
    {
        Tick start = 0;
        std::size_t pos = 0;
    };

    /** Drop the expired reservations, then find the earliest bus slot
     *  of @p occ ticks starting at or after @p ready. */
    BusSlot placeBus(Tick ready, Tick occ);

    /**
     * Resume a walk of this tick from the slot @p from it found for a
     * shorter (or equal) occupancy, and return the earliest slot of
     * @p occ ticks. Exact: a gap the walk passed over did not fit the
     * shorter occupancy, so it cannot fit @p occ either.
     */
    BusSlot placeBus(BusSlot from, Tick occ) const;

    /** Issue one request from @p q at position @p idx; @p tentative is
     *  kick()'s burst-length placement of it, made this tick. */
    void issue(RingDeque<HotReq> &q, std::size_t idx, bool isWrite,
               BusSlot tentative);

    /** Re-derive bank @p b's rank record after its state changed. */
    void
    refloor(std::size_t b)
    {
        floors_[b] = banks_[b].floors(bankTiming_);
    }

    /** Longest tolerated gap between now and a candidate's data start
     *  before the scheduler goes back to sleep: a full row-conflict
     *  preparation plus a few bursts, precomputed in timing_. */
    Tick maxAhead() const { return timing_.maxAhead; }

    /** Periodic all-bank refresh (active when cfg.tREFI > 0). */
    void refreshTick();

    EventQueue &eq_;
    const DramConfig &cfg_;
    /** Hot read-only timing constants (two dedicated cache lines). */
    BankTiming bankTiming_;
    ChannelTiming timing_;
    [[maybe_unused]] std::uint32_t index_;

    RingDeque<HotReq> readDemandQ_;
    RingDeque<HotReq> readLowQ_;
    RingDeque<HotReq> writeQ_;
    /** Parked completion callbacks (see HotReq::cb). */
    SlotPool<EventQueue::Callback> callbacks_;
    std::vector<Bank> banks_;
    /** Each bank's rank record (Bank::Floors), kept current by
     *  refloor() wherever that bank's state changes. */
    std::vector<Bank::Floors> floors_;

    /** Future bus reservations [start, end), sorted and disjoint. */
    std::vector<std::pair<Tick, Tick>> busResv_;

    bool lastWasWrite_ = false;
    bool draining_ = false;
    bool kickPending_ = false;
    Tick nextKickAt_ = 0;
    Tick busBusy_ = 0;

    BusTraceHook *busTrace_ = nullptr;
    std::string traceSource_;
};

} // namespace dapsim

#endif // DAPSIM_DRAM_CHANNEL_HH
