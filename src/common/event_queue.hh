/**
 * @file
 * Global event queue driving all timed simulation in dapsim.
 *
 * A single EventQueue instance owns simulated time. Components schedule
 * closures at absolute ticks; ties are broken by insertion order so that
 * simulations are fully deterministic.
 *
 * Internally the queue is a hierarchical timing wheel over one node
 * slab (see DESIGN.md §9). Each pending event is a node — its (tick,
 * insertion seq) key, a bucket link and its inline callback — recycled
 * through a LIFO free list, so storage is peakPending() nodes plus
 * fixed per-slot arrays however long the run. Wheel buckets are
 * intrusive FIFO node lists, a far-future min-heap of (tick, seq,
 * node) keys refills the wheel as its window advances, and the
 * earliest occupied bucket drains as the "current run" through a
 * node-index array sorted by (tick, seq): O(1) per schedule, amortized
 * O(log bucket-occupancy) per dispatch, no per-event allocation.
 * Dispatch order is exactly (tick, insertion seq), bit-identical to a
 * binary-heap scheduler (tests/test_event_wheel_fuzz.cc).
 */

#ifndef DAPSIM_COMMON_EVENT_QUEUE_HH
#define DAPSIM_COMMON_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/inline_callback.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace dapsim
{

/** Deterministic O(1) timing-wheel event scheduler. */
class EventQueue
{
  public:
    /** Inline small-buffer callback; captures up to
     *  kInlineCallbackBytes of trivially copyable state, never a heap
     *  allocation. */
    using Callback = InlineCallback;

    /** Sentinel returned by nextEventTick() when no event is pending.
     *  Scheduling at this tick is rejected. */
    static constexpr Tick kNoEvent = ~Tick(0);

    /**
     * Observability hook invoked after every dispatched event (see
     * src/obs/). The hook must only observe — it runs between events,
     * so mutating simulator state from it would break determinism
     * guarantees documented elsewhere. Null (the default) costs one
     * predictable branch per event.
     */
    struct DispatchHook
    {
        virtual ~DispatchHook() = default;

        /** @param now tick of the event just executed
         *  @param pending events still queued after it ran */
        virtual void onDispatch(Tick now, std::size_t pending) = 0;
    };

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of events still pending. */
    std::size_t pending() const { return pending_; }

    /** Total events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /** High-water mark of pending events (sizing observability); also
     *  the node slab's size. */
    std::size_t peakPending() const { return peakPending_; }

    /**
     * Schedule @p cb (a Callback, or a capture to build one from) at
     * absolute tick @p when. Scheduling in the past is a simulator bug.
     */
    template <class F>
    void
    schedule(Tick when, F &&cb)
    {
        if (when < now_) [[unlikely]]
            panic("EventQueue: scheduling in the past");
        if (when == kNoEvent) [[unlikely]]
            panic("EventQueue: event time overflow");
        if (++pending_ > peakPending_)
            peakPending_ = pending_;

        const std::uint32_t n = allocNode(when, std::forward<F>(cb));
        const std::uint64_t q = when >> kQuantumBits;
        if (q > base_) [[likely]] {
            if (q < base_ + kSlots) [[likely]] {
                pushSlot(q, n);
            } else {
                overflow_.push_back(FarKey{keys_[n], n});
                std::push_heap(overflow_.begin(), overflow_.end(),
                               heapLater);
            }
        } else {
            // At or before the run's quantum (same-tick events
            // included): joins the run at its (when, seq) position.
            insertRun(n);
        }
    }

    /** Schedule @p cb @p delta ticks from now. */
    template <class F>
    void scheduleAfter(Tick delta, F &&cb) {
        schedule(now_ + delta, std::forward<F>(cb));
    }

    /**
     * Tick of the earliest pending event, or kNoEvent if none. May
     * promote the next bucket into the current run (cheap, order-
     * preserving); simulated time and dispatch order are unaffected.
     */
    Tick
    nextEventTick()
    {
        if (runHead_ < runOrder_.size())
            return keys_[runOrder_[runHead_]].when;
        return nextEventTickSlow();
    }

    /** Execute the single earliest event. @return false if queue empty. */
    bool step();

    /** Run until the queue drains or @p limit ticks is reached. */
    void
    run(Tick limit = kNoEvent)
    {
        runUntil([] { return false; }, limit);
    }

    /**
     * Run until @p done returns true, the queue drains, or @p limit.
     * The predicate is a template parameter so hot callers (System's
     * main loop) pay a direct call, not std::function indirection.
     */
    template <class Pred>
    void
    runUntil(Pred &&done, Tick limit = kNoEvent)
    {
        while (!done()) {
            const Tick t = nextEventTick();
            if (t == kNoEvent || t > limit)
                break;
            dispatchOne();
        }
    }

    /** Attach (or clear, with nullptr) the dispatch observability hook. */
    void setDispatchHook(DispatchHook *hook) { hook_ = hook; }

    /**
     * Pre-size the node slab for an expected steady-state pending
     * population (e.g. channels x queue depth) so the run loop never
     * reallocates. Purely an optimisation; growth past the hint works.
     */
    void reserve(std::size_t expected_pending);

  private:
    /** log2 of the bucket quantum: 256 ps, one CPU cycle (250 ps) of
     *  headroom, so same-edge events share a bucket. */
    static constexpr unsigned kQuantumBits = 8;
    /** log2 of the wheel slot count: 4096 slots x 256 ps ≈ 1.05 µs of
     *  near-future horizon (~4.2k CPU cycles). DRAM CAS completions,
     *  scheduler kicks, ROB wakeups and DAP windows land here; only
     *  refresh/sampler-period events overflow to the heap. */
    static constexpr unsigned kSlotBits = 12;
    static constexpr std::size_t kSlots = std::size_t(1) << kSlotBits;
    static constexpr std::size_t kSlotMask = kSlots - 1;
    static constexpr std::size_t kBitmapWords = kSlots / 64;
    static constexpr std::uint64_t kNoSlot = ~std::uint64_t(0);
    /** Null node index: end of a bucket list or of the free list. */
    static constexpr std::uint32_t kNil = ~std::uint32_t(0);

    /** (when, seq) dispatch key, kept apart from the callback so
     *  sorting and binary searches stream over dense 16-byte keys
     *  instead of striding across 80-byte callbacks. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
    };

    /** Far-future overflow entry: a node's key plus its index, so heap
     *  sifts move 24 bytes and never touch the callback. */
    struct FarKey
    {
        Key key;
        std::uint32_t node;
    };

    /** A wheel slot's FIFO node list (kNil head: empty). */
    struct Slot
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    static bool
    before(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    static bool
    heapLater(const FarKey &a, const FarKey &b)
    {
        return before(b.key, a.key);
    }

    /** Take a node off the free list (or grow the slab by one) and
     *  fill it with the next insertion seq and @p cb. The callback is
     *  built in its node rather than on the stack and moved in: that
     *  move would reload the zeroed buffer right behind the stores
     *  that wrote it, a stall that halves the speed of a same-tick
     *  burst (bench/kernel_events). */
    template <class F>
    std::uint32_t
    allocNode(Tick when, F &&cb)
    {
        std::uint32_t n = freeHead_;
        if (n != kNil) [[likely]] {
            freeHead_ = next_[n];
            keys_[n] = Key{when, seq_++};
            std::construct_at(&cbs_[n], std::forward<F>(cb));
        } else {
            n = static_cast<std::uint32_t>(keys_.size());
            keys_.push_back(Key{when, seq_++});
            next_.push_back(kNil);
            cbs_.emplace_back(std::forward<F>(cb));
        }
        return n;
    }

    /** Append node @p n to @p quantum's bucket. Refills carry any
     *  (when, seq), so the append-order check compares whole keys. */
    void
    pushSlot(std::uint64_t quantum, std::uint32_t n)
    {
        const auto slot = static_cast<std::size_t>(quantum) & kSlotMask;
        Slot &s = slots_[slot];
        next_[n] = kNil;
        if (s.head == kNil) {
            s.head = n;
            slotSorted_[slot] = 1;
            occupied_[slot >> 6] |= std::uint64_t(1) << (slot & 63);
        } else {
            if (before(keys_[n], keys_[s.tail]))
                slotSorted_[slot] = 0;
            next_[s.tail] = n;
        }
        s.tail = n;
    }

    /** Execute the next event; caller has verified one is pending. */
    void
    dispatchOne()
    {
        if (runHead_ == runOrder_.size())
            ensureRun();
        const std::uint32_t n = runOrder_[runHead_++];
        now_ = keys_[n].when;
        // Move out and free the node before invoking: the callback may
        // reuse this node, or grow the slab under its own captures.
        Callback cb = std::move(cbs_[n]);
        next_[n] = freeHead_;
        freeHead_ = n;
        --pending_;
        ++executed_;
#if defined(__GNUC__) || defined(__clang__)
        // Overlap the next callback's cache-line fetch with this
        // callback's execution; dispatch order is already known.
        if (runHead_ < runOrder_.size())
            __builtin_prefetch(&cbs_[runOrder_[runHead_]]);
#endif
        cb();
        if (hook_ != nullptr) [[unlikely]]
            hook_->onDispatch(now_, pending_);
    }

    /** Out-of-line tail of nextEventTick(): the current run is
     *  drained, so refill it (ensureRun()) before peeking. */
    Tick nextEventTickSlow();

    /** Make the current run non-empty, promoting the next occupied
     *  bucket or jumping to the overflow minimum. @return false if no
     *  event is pending anywhere. */
    bool ensureRun();

    /** Move bucket @p quantum's nodes into the current run and sort
     *  its dispatch order; advances the window (base_) to @p quantum. */
    void promote(std::uint64_t quantum);

    /** Sorted insertion of node @p n into the current run (binary
     *  search over the undispatched suffix of runOrder_). */
    void
    insertRun(std::uint32_t n)
    {
        if (runHead_ == runOrder_.size()) {
            // Drained (a same-quantum chain): drop the consumed prefix.
            runOrder_.clear();
            runHead_ = 0;
        }
        const auto pos = std::upper_bound(
            runOrder_.begin() + static_cast<std::ptrdiff_t>(runHead_),
            runOrder_.end(), keys_[n],
            [this](const Key &v, std::uint32_t i) {
                return before(v, keys_[i]);
            });
        runOrder_.insert(pos, n);
    }

    /** First occupied slot in window order after base_, as an absolute
     *  quantum index; kNoSlot if the wheel is empty. */
    std::uint64_t findFirstOccupied() const;

    /** Move overflow-heap nodes that now fall inside the wheel window
     *  [base_, base_ + kSlots) into their buckets (nodes at or before
     *  base_ go straight into the current run). */
    void refillFromOverflow();

    /** Node slab, parallel arrays indexed by node. A pending node's
     *  next_ links its bucket list; a free node's links the LIFO free
     *  list and its callback is empty. The slab grows only when every
     *  node is pending, so it holds exactly peakPending() nodes. */
    std::vector<Key> keys_;
    std::vector<std::uint32_t> next_;
    std::vector<Callback> cbs_;
    std::uint32_t freeHead_ = kNil;

    /** Near-future wheel: a FIFO node list per quantum, bitmap for O(1)
     *  skip of empty slots. Invariant: listed nodes have quantum in
     *  (base_, base_ + kSlots) — the slot of base_ itself is always
     *  empty (its events live in the run). */
    std::array<Slot, kSlots> slots_;
    /** Slot i's append order is already (when, seq) order — true
     *  whenever events arrive time-sorted (clock-edge clustering), and
     *  lets promote() skip the sort. Maintained by pushSlot(). */
    std::array<unsigned char, kSlots> slotSorted_{};
    std::array<std::uint64_t, kBitmapWords> occupied_{};
    /** Absolute quantum index of the current run (monotonic). */
    std::uint64_t base_ = 0;

    /** Far-future overflow: std::push_heap/pop_heap min-heap. All
     *  entries have quantum >= base_ + kSlots. */
    std::vector<FarKey> overflow_;

    /** Current run: every pending node with quantum <= base_. Dispatch
     *  order is runOrder_[runHead_..], node indices sorted by (when,
     *  seq); positions before runHead_ are consumed. */
    std::vector<std::uint32_t> runOrder_;
    std::size_t runHead_ = 0;

    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t pending_ = 0;
    std::size_t peakPending_ = 0;
    DispatchHook *hook_ = nullptr;
};

} // namespace dapsim

#endif // DAPSIM_COMMON_EVENT_QUEUE_HH
