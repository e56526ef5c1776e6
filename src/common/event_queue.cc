#include "common/event_queue.hh"

#include <algorithm>
#include <bit>

namespace dapsim
{

std::uint64_t
EventQueue::findFirstOccupied() const
{
    const std::size_t start = static_cast<std::size_t>(base_) & kSlotMask;
    std::size_t word = start >> 6;
    std::uint64_t bits =
        occupied_[word] & (~std::uint64_t(0) << (start & 63));
    // One pass over every word, plus a revisit of the first word for
    // the bits below `start` (they are one full wrap away in time).
    for (std::size_t i = 0; i <= kBitmapWords; ++i) {
        if (bits != 0) {
            const std::size_t slot =
                (word << 6) +
                static_cast<std::size_t>(std::countr_zero(bits));
            const std::size_t dist = (slot - start) & kSlotMask;
            return base_ + dist;
        }
        word = (word + 1) & (kBitmapWords - 1);
        bits = occupied_[word];
    }
    return kNoSlot;
}

void
EventQueue::refillFromOverflow()
{
    const std::uint64_t end = base_ + kSlots;
    while (!overflow_.empty() &&
           (overflow_.front().key.when >> kQuantumBits) < end) {
        std::pop_heap(overflow_.begin(), overflow_.end(), heapLater);
        const FarKey f = overflow_.back();
        overflow_.pop_back();
        const std::uint64_t q = f.key.when >> kQuantumBits;
        if (q <= base_)
            insertRun(f.node);
        else
            pushSlot(q, f.node);
    }
}

void
EventQueue::promote(std::uint64_t quantum)
{
    const std::size_t slot = static_cast<std::size_t>(quantum) & kSlotMask;
    runOrder_.clear(); // only consumed indices remain; drop them
    runHead_ = 0;
    for (std::uint32_t n = slots_[slot].head; n != kNil; n = next_[n])
        runOrder_.push_back(n);
    slots_[slot] = Slot{};
    occupied_[slot >> 6] &= ~(std::uint64_t(1) << (slot & 63));
    base_ = quantum;

    // Bucket order mixes direct schedules with overflow refills, so
    // restore (when, seq) order unless the pushes arrived sorted (the
    // common clock-edge case). The sort reads only the dense keys.
    if (!slotSorted_[slot])
        std::sort(runOrder_.begin(), runOrder_.end(),
                  [this](std::uint32_t x, std::uint32_t y) {
                      return before(keys_[x], keys_[y]);
                  });

    // The window end moved with base_; pull newly-near events in.
    refillFromOverflow();
}

bool
EventQueue::ensureRun()
{
    if (runHead_ < runOrder_.size())
        return true;
    const std::uint64_t q = findFirstOccupied();
    if (q != kNoSlot) {
        promote(q);
        return true;
    }
    if (overflow_.empty())
        return false;
    // Wheel empty: jump the window to the overflow minimum. The refill
    // lands that quantum's events directly in the (empty) run.
    runOrder_.clear();
    runHead_ = 0;
    base_ = overflow_.front().key.when >> kQuantumBits;
    refillFromOverflow();
    return true;
}

Tick
EventQueue::nextEventTickSlow()
{
    if (!ensureRun())
        return kNoEvent;
    return keys_[runOrder_[runHead_]].when;
}

bool
EventQueue::step()
{
    if (nextEventTick() == kNoEvent)
        return false;
    dispatchOne();
    return true;
}

void
EventQueue::reserve(std::size_t expected_pending)
{
    keys_.reserve(expected_pending);
    next_.reserve(expected_pending);
    cbs_.reserve(expected_pending);
    overflow_.reserve(expected_pending);
    runOrder_.reserve(std::min<std::size_t>(expected_pending, 4096));
}

} // namespace dapsim
