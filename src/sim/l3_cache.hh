/**
 * @file
 * Shared inclusive L3 cache (paper Section V: 8 MB, 16-way, 20-cycle
 * round trip; scaled to 1 MB by default).
 *
 * Functional set-associative directory with a fixed lookup latency.
 * Read misses go down to the memory-side cache; dirty evictions become
 * MS$ writes (the paper's "L4 cache writes"). Lines are installed at
 * miss detection (MSHR coalescing idealized), which is the standard
 * trace-driven approximation.
 */

#ifndef DAPSIM_SIM_L3_CACHE_HH
#define DAPSIM_SIM_L3_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/assoc_cache.hh"
#include "common/event_queue.hh"
#include "common/slot_pool.hh"
#include "common/stats.hh"
#include "memside/ms_cache.hh"

namespace dapsim
{

struct L3Config
{
    /** Scaled default: 1 MB stands in for the paper's 8 MB. */
    std::uint64_t capacityBytes = 1 * kMiB;
    std::uint32_t ways = 16;
    /** Round-trip hit latency in CPU cycles. */
    Cycle latencyCycles = 20;

    std::uint64_t
    numSets() const
    {
        return capacityBytes / kBlockBytes / ways;
    }
};

/** The shared L3. */
class L3Cache
{
  public:
    using Done = EventQueue::Callback;

    L3Cache(EventQueue &eq, const L3Config &cfg, MemSideCache &ms);

    /**
     * One access from a core: a read (L2 load miss) or a write (L2
     * dirty writeback). @p done fires when a read's data is available;
     * writes are posted.
     */
    void access(Addr addr, bool is_write, Done done);

    /** What one warmTouch() did (fast-forward measurement inputs). */
    struct WarmOutcome
    {
        bool l3Hit = false;      ///< block was present in the L3
        bool msRead = false;     ///< a read reached the MS$ warm path
        bool msHit = false;      ///< ...and found its block there
        bool msWriteback = false; ///< a dirty victim reached the MS$
    };

    /** Functional warm-up: update the directory and forward misses to
     *  the MS$'s warm path; no timing, no statistics. */
    WarmOutcome warmTouch(Addr addr, bool is_write);

    /** What one warm access sends on to the MS$'s warm path, in
     *  order: a dirty victim's writeback, then the read miss. */
    struct WarmFlow
    {
        bool l3Hit = false;
        bool writeback = false; ///< a dirty victim leaves the L3
        Addr victimAddr = 0;    ///< ...at this block address
        bool readMiss = false;  ///< the read continues to the MS$
    };

    /**
     * The L3 half of warmTouch(): update the directory only and report
     * the MS$ traffic. warmTouch() (and with it the serial
     * System::fastForward) applies the flow at once; the warm
     * pipeline's L3 stage queues it for the MS$ stage instead. Inline
     * so that stage's record loop compiles into one body.
     */
    WarmFlow
    warmFlow(Addr addr, bool is_write)
    {
        WarmFlow out;
        const std::uint64_t set = setOf(addr);
        const std::uint64_t tag = tagOf(addr);
        std::uint32_t way = dir_.lookup(set, tag);
        if (way != dir_.kNoWay) {
            out.l3Hit = true;
            dir_.touchWay(set, way);
            if (is_write)
                dir_.valueAt(set, way).dirty = true;
            return out;
        }
        auto victim = dir_.insertAbsent(set, tag, Line{is_write}, way);
        if (victim.valid && victim.value.dirty) {
            out.writeback = true;
            out.victimAddr = victim.tag << kBlockShift;
        }
        out.readMiss = !is_write;
        return out;
    }

    double
    missRatio() const
    {
        const auto t = hits.value() + misses.value();
        return t ? static_cast<double>(misses.value()) / t : 0.0;
    }

    /** Mean read-miss service latency in ticks. */
    double
    meanReadMissLatency() const
    {
        return readMissLatency.mean();
    }

    const L3Config &config() const { return cfg_; }

    /** Checkpoint directory contents and counters (see src/ckpt/). */
    void save(ckpt::Serializer &s) const;
    void restore(ckpt::Deserializer &d);

    Counter hits;
    Counter misses;
    Counter readMisses;
    Counter writebacksToMs; ///< dirty evictions sent to the MS$
    Average readMissLatency;

  private:
    struct Line
    {
        bool dirty = false;
    };

    std::uint64_t setOf(Addr a) const
    {
        return dir_.mapSet(indexHash(blockNumber(a)));
    }
    std::uint64_t tagOf(Addr a) const { return blockNumber(a); }

    void install(Addr addr, bool dirty);

    /**
     * In-flight read-miss continuation, parked by index: the lookup
     * and completion closures capture {this, slot} (16 bytes, inline)
     * instead of the 80-byte Done.
     */
    struct MissCont
    {
        Addr addr;
        Tick issued;
        Done done;
    };

    /** Body of the post-lookup event for miss continuation @p slot. */
    void lookupDone(std::uint32_t slot);

    EventQueue &eq_;
    L3Config cfg_;
    MemSideCache &ms_;
    AssocCache<Line> dir_;
    /** Parked read-miss continuations (see MissCont). */
    SlotPool<MissCont> misses_;
};

} // namespace dapsim

#endif // DAPSIM_SIM_L3_CACHE_HH
