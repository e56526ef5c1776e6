/**
 * @file
 * Base class for memory-side cache (MS$) controllers.
 *
 * Owns the pieces every architecture shares: the main-memory handle,
 * the partitioning policy, the per-window demand counters that feed
 * DAP's learning loop, and the common hit/miss statistics the paper
 * reports (read+write hit ratio, CAS fractions, fill/bypass counts).
 */

#ifndef DAPSIM_MEMSIDE_MS_CACHE_HH
#define DAPSIM_MEMSIDE_MS_CACHE_HH

#include <cstdint>

#include "common/event_queue.hh"
#include "common/slot_pool.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/dram_system.hh"
#include "memside/remote_memory.hh"
#include "policies/partition_policy.hh"

namespace dapsim
{

/** Abstract memory-side cache controller. */
class MemSideCache
{
  public:
    /** Completion callback for reads (writes are posted). Move-only,
     *  allocation-free for small captures (common/inline_callback.hh). */
    using Done = EventQueue::Callback;

    MemSideCache(EventQueue &eq, DramSystem &main_memory,
                 PartitionPolicy &policy);
    virtual ~MemSideCache();

    MemSideCache(const MemSideCache &) = delete;
    MemSideCache &operator=(const MemSideCache &) = delete;

    /** A read (L3 read miss) arriving from the SRAM hierarchy. */
    virtual void handleRead(Addr addr, Done done) = 0;

    /** A write (L3 dirty eviction) arriving from the SRAM hierarchy. */
    virtual void handleWrite(Addr addr) = 0;

    /** Number of 64B CAS operations the cache array has performed. */
    virtual std::uint64_t arrayCasOps() const = 0;

    /** Write back dirty blocks of a region and mark them clean (SBD
     *  forced cleaning). Default: no-op. */
    virtual void cleanRegion(Addr) {}

    /** Flush and invalidate a set (BATMAN disabling). Default: no-op. */
    virtual void flushSetImpl(std::uint64_t) {}

    /**
     * Functional warm-up touch: update directories (and tag cache /
     * footprint history) with zero timing and zero statistics, so a
     * short timed measurement starts from a steady-state cache.
     * Returns whether the touch hit (block present before the touch);
     * architectures without a directory report misses.
     */
    virtual bool warmTouch(Addr, bool /*is_write*/) { return false; }

    /**
     * Apply a warm stream: warmTouch() of @p ops[0..n) in order. The
     * warm pipeline's MS$ stage hands over one chunk per call. The
     * Alloy cache overrides it to prefetch its (megabytes-large)
     * directory sets a few accesses ahead.
     */
    virtual void
    warmApply(const WarmAccess *ops, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            warmTouch(ops[i].addr, ops[i].isWrite);
    }

    /**
     * Fast-forward bypass accounting: fold modeled array CAS counts
     * from an analytically priced interval into arrayCasOps() so
     * delivered-bandwidth statistics cover fast-forwarded traffic.
     * Timing and directory state are untouched. Default: no-op
     * (MS$-less systems have no array). Never called in exact
     * fidelity.
     */
    virtual void creditFastForward(std::uint64_t /*reads*/,
                                   std::uint64_t /*writes*/)
    {
    }

    /**
     * Functional policy warm-up at a sampled window entry: feed one
     * modeled steady-state window to the policy so credit state
     * re-converges before the next detailed segment, and clear the
     * partially accumulated demand counters. Never called in exact
     * fidelity.
     */
    void
    warmPolicyWindow(const WindowCounters &modeled)
    {
        policy_.beginWindow(modeled);
        window_ = WindowCounters{};
    }

    /**
     * Start the recurring W-cycle window that feeds demand counters to
     * the policy. Idempotent; stopWindows() halts it (so the event
     * queue can drain at the end of a run).
     */
    void startWindows(Cycle window_cycles);
    void stopWindows();

    /**
     * Checkpoint controller state (see src/ckpt/). Derived classes
     * extend this with their directories/arrays; the base serializes
     * the shared window counters and statistics. save() requires the
     * window machinery to be stopped (the pre-run quiescent state).
     */
    virtual void save(ckpt::Serializer &s) const { saveBase(s); }
    virtual void restore(ckpt::Deserializer &d) { restoreBase(d); }

    DramSystem &mainMemory() { return mm_; }
    PartitionPolicy &policy() { return policy_; }

    /** Attach the optional remote tier; lower-tier accesses are then
     *  split between DDR and the remote pool by the policy. */
    void setRemote(RemoteMemory *remote) { remote_ = remote; }
    RemoteMemory *remote() { return remote_; }

    /** Read+write hit ratio (the paper's combined hit rate). */
    double
    hitRatio() const
    {
        const std::uint64_t h = readHits.value() + writeHits.value();
        const std::uint64_t t = h + readMisses.value() +
                                writeMisses.value();
        return t ? static_cast<double>(h) / static_cast<double>(t) : 0.0;
    }

    double
    readMissRatio() const
    {
        const std::uint64_t t = readHits.value() + readMisses.value();
        return t ? static_cast<double>(readMisses.value()) /
                       static_cast<double>(t)
                 : 0.0;
    }

    /** Fraction of all CAS ops (MM + array) served by main memory. */
    double
    mainMemoryCasFraction() const
    {
        const std::uint64_t mm = mm_.casOps();
        const std::uint64_t total = mm + arrayCasOps();
        return total ? static_cast<double>(mm) /
                           static_cast<double>(total)
                     : 0.0;
    }

    // Common statistics (architecture code updates these).
    Counter readHits;
    Counter readMisses;
    Counter writeHits;
    Counter writeMisses;
    Counter cleanReadHits;
    Counter fills;
    Counter fillsBypassed;
    Counter writesBypassed;
    Counter forcedReadMisses;   ///< IFRM applications
    Counter speculativeReads;   ///< SFRM issues
    Counter speculativeWasted;  ///< SFRM responses dropped (dirty hits)
    Counter sectorEvictions;
    Counter dirtyWritebacks;    ///< dirty blocks written to main memory

  protected:
    /** Shared part of save()/restore() for derived classes. */
    void saveBase(ckpt::Serializer &s) const;
    void restoreBase(ckpt::Deserializer &d);

    /**
     * Issue one lower-tier (main-memory-bound) access. With a remote
     * tier attached the policy picks DDR vs remote per access; without
     * one this is exactly mm_.access(). All architecture code funnels
     * its main-memory traffic through here.
     */
    void memAccess(Addr addr, bool is_write, Done done = nullptr,
                   bool low_priority = false);

    /**
     * Parked reads. A read that waits on DRAM parks its Done here and
     * its closures capture {this, slot}. The table owns the race SFRM
     * (sectored) and the predicted-miss early read (Alloy) run between
     * a speculative main-memory fetch and the lookup:
     *  - a read's Done fires exactly once;
     *  - it is moved out, and its slot released, before it is
     *    invoked, because it may park new reads;
     *  - a slot with a speculative fetch is recycled only after both
     *    the Done has fired and the fetch has returned.
     */
    std::uint32_t parkRead(Done done);

    /** Launch read @p slot's speculative main-memory fetch. */
    void speculate(std::uint32_t slot, Addr addr);

    /** Whether read @p slot launched a speculative fetch. */
    bool speculating(std::uint32_t slot) const
    {
        return reads_[slot].fetching;
    }

    /** The lookup chose the fetch's data: fire read @p slot's Done
     *  now if the fetch is back, else when it returns. */
    void serveFromFetch(std::uint32_t slot);

    /** Fire read @p slot's Done now (its data came from elsewhere). */
    void finishRead(std::uint32_t slot);

    /** Release read @p slot, which launched no fetch, and return its
     *  Done for the access that completes it. */
    Done takeRead(std::uint32_t slot);

    /** Demand counters being accumulated for the current window. */
    WindowCounters window_;

    EventQueue &eq_;
    DramSystem &mm_;
    PartitionPolicy &policy_;
    RemoteMemory *remote_ = nullptr;

  private:
    struct ParkedRead
    {
        Done done;
        bool fetching = false; ///< a speculative fetch was launched
        bool fetched = false;  ///< ...and has returned
        bool waiting = false;  ///< the Done waits for the fetch
        bool fired = false;    ///< the Done fired before the fetch
    };

    /** Completion of read @p slot's speculative fetch. */
    void fetchReturned(std::uint32_t slot);

    void windowTick();

    SlotPool<ParkedRead> reads_;

    bool windowsRunning_ = false;
    Cycle windowCycles_ = 0;
};

} // namespace dapsim

#endif // DAPSIM_MEMSIDE_MS_CACHE_HH
