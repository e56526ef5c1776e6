/**
 * @file
 * Indexed parking for in-flight simulator state.
 *
 * A value that outlives the call that made it (a queued request's
 * completion callback, a read waiting on two DRAM responses) is put
 * into a `SlotPool` and found again by its index, so every closure on
 * the timed path captures `{this, slot, scalars}` and fits
 * `InlineCallback`'s inline buffer (common/inline_callback.hh).
 *
 * Storage is a vector of `T` plus a LIFO stack of free indices: a
 * pool sized once (`reserve`) never allocates again, and the most
 * recently released slot, still warm in cache, is reused first. An
 * index stays valid until its slot is released; a reference does not
 * survive a `put`, which may grow the vector. A released slot keeps
 * its value until the next `put` overwrites it; after a `take` that is
 * a moved-from, empty callback. The simulator's parked values
 * (callbacks, miss continuations, parked reads) own nothing, since
 * every callback capture is trivially copyable; a value that does own
 * something is destroyed with the pool, parked or not.
 */

#ifndef DAPSIM_COMMON_SLOT_POOL_HH
#define DAPSIM_COMMON_SLOT_POOL_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dapsim
{

/** Vector-backed slot table with LIFO slot reuse. */
template <class T>
class SlotPool
{
  public:
    /** Park @p v in the most recently released slot, or a new one;
     *  returns the slot's index. */
    std::uint32_t
    put(T &&v)
    {
        if (!free_.empty()) {
            const std::uint32_t i = free_.back();
            free_.pop_back();
            slots_[i] = std::move(v);
            return i;
        }
        slots_.push_back(std::move(v));
        return static_cast<std::uint32_t>(slots_.size() - 1);
    }

    T &operator[](std::uint32_t i) { return slots_[i]; }
    const T &operator[](std::uint32_t i) const { return slots_[i]; }

    /** Move the value out of slot @p i and release the slot. */
    T
    take(std::uint32_t i)
    {
        T v = std::move(slots_[i]);
        release(i);
        return v;
    }

    /** Return slot @p i to the free stack (exactly once per put). */
    void release(std::uint32_t i) { free_.push_back(i); }

    /** Room for @p n parked values before either vector grows. */
    void
    reserve(std::size_t n)
    {
        slots_.reserve(n);
        free_.reserve(n);
    }

  private:
    std::vector<T> slots_;
    std::vector<std::uint32_t> free_;
};

} // namespace dapsim

#endif // DAPSIM_COMMON_SLOT_POOL_HH
