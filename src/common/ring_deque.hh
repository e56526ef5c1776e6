/**
 * @file
 * Power-of-two ring buffer with deque semantics for hot request queues.
 *
 * `std::deque` cannot reserve capacity and allocates its map/chunks on
 * first use; DRAM channel queues churn requests millions of times per
 * run, so they use this ring instead: contiguous storage, O(1)
 * push_back/pop_front, indexed access, and a positional erase that
 * shifts whichever side is shorter. Capacity grows by doubling and is
 * never returned until destruction, so a queue sized once (see
 * Channel's constructor) never allocates again.
 *
 * Elements are plain records (trivially copyable; the channels queue
 * 32-byte `Channel::HotReq`s whose completions wait in a `SlotPool`),
 * so the ring is a `std::vector<T>` whose slots are overwritten in
 * place and never destroyed one by one.
 */

#ifndef DAPSIM_COMMON_RING_DEQUE_HH
#define DAPSIM_COMMON_RING_DEQUE_HH

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace dapsim
{

/** Reservable ring buffer of plain records with deque-style access. */
template <class T>
class RingDeque
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "RingDeque holds plain records only");

  public:
    RingDeque() = default;
    RingDeque(const RingDeque &) = delete;
    RingDeque &operator=(const RingDeque &) = delete;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return data_.size(); }

    T &operator[](std::size_t i) { return data_[wrap(i)]; }
    const T &operator[](std::size_t i) const { return data_[wrap(i)]; }
    T &front() { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }

    /** The two contiguous element runs (second may be empty): scan
     *  loops walk raw pointers instead of masked indexed access. */
    std::pair<const T *, std::size_t>
    seg0() const
    {
        const std::size_t n = data_.size() - head_;
        return {data_.data() + head_, size_ < n ? size_ : n};
    }

    std::pair<const T *, std::size_t>
    seg1() const
    {
        const std::size_t n = data_.size() - head_;
        return {data_.data(), size_ < n ? 0 : size_ - n};
    }

    /** Ensure capacity for at least @p n elements (rounded up to a
     *  power of two); never shrinks. */
    void
    reserve(std::size_t n)
    {
        if (n > data_.size())
            grow(n);
    }

    void
    push_back(const T &v)
    {
        if (size_ == data_.size())
            grow(size_ ? size_ * 2 : 8);
        data_[wrap(size_)] = v;
        ++size_;
    }

    void
    pop_front()
    {
        head_ = wrap(1);
        --size_;
    }

    /** Remove the element at @p i, shifting the shorter side. */
    void
    erase(std::size_t i)
    {
        if (i < size_ - i) {
            for (std::size_t j = i; j > 0; --j)
                (*this)[j] = (*this)[j - 1];
            pop_front();
        } else {
            for (std::size_t j = i; j + 1 < size_; ++j)
                (*this)[j] = (*this)[j + 1];
            --size_;
        }
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        return (head_ + i) & (data_.size() - 1);
    }

    void
    grow(std::size_t want)
    {
        std::size_t cap = 8;
        while (cap < want)
            cap *= 2;
        std::vector<T> fresh(cap);
        for (std::size_t i = 0; i < size_; ++i)
            fresh[i] = (*this)[i];
        data_.swap(fresh);
        head_ = 0;
    }

    std::vector<T> data_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace dapsim

#endif // DAPSIM_COMMON_RING_DEQUE_HH
