/**
 * @file
 * Allocation-free callable for the simulation hot path.
 *
 * `InlineCallback` stores a move-only `void()` callable in a small
 * inline buffer (kInlineCallbackBytes) next to one invoke pointer.
 * Unlike `std::function` it never heap-allocates, and it owns nothing:
 * every capture must be trivially copyable, so a move is a copy of the
 * buffer and a callback dies without running a destructor.
 *
 * A capture that is too large or not trivially copyable is a compile
 * error. State that has to outlive the call that made it (a queued
 * request's completion, a read racing two DRAM responses) is parked in
 * a `SlotPool` (common/slot_pool.hh) by its owner, and the closure
 * captures `{this, slot, scalars}` instead (DESIGN.md §14).
 */

#ifndef DAPSIM_COMMON_INLINE_CALLBACK_HH
#define DAPSIM_COMMON_INLINE_CALLBACK_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dapsim
{

/** Inline buffer size; every simulator capture fits it (DESIGN.md
 *  §9, §14). */
constexpr std::size_t kInlineCallbackBytes = 64;

/** Move-only `void()` callable over a trivially copyable capture. */
class InlineCallback
{
  public:
    InlineCallback() = default;
    InlineCallback(std::nullptr_t) {}

    template <class F, class D = std::decay_t<F>,
              class = std::enable_if_t<
                  !std::is_same_v<D, InlineCallback> &&
                  std::is_invocable_r_v<void, D &>>>
    InlineCallback(F &&f)
    {
        static_assert(sizeof(D) <= kInlineCallbackBytes,
                      "InlineCallback capture exceeds the inline buffer: "
                      "park the state in a SlotPool "
                      "(common/slot_pool.hh) and capture its index");
        static_assert(std::is_trivially_copyable_v<D>,
                      "InlineCallback capture is not trivially copyable: "
                      "park the state in a SlotPool "
                      "(common/slot_pool.hh) and capture its index");
        static_assert(alignof(D) <= alignof(std::max_align_t),
                      "over-aligned callback captures are unsupported");
        ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
        invoke_ = &invokeInline<D>;
    }

    /** Moves leave @p other empty: the type stays move-only so that a
     *  parked `Done` fires exactly once. */
    InlineCallback(InlineCallback &&other) noexcept { moveFrom(other); }

    InlineCallback &
    operator=(InlineCallback &&other) noexcept
    {
        moveFrom(other);
        return *this;
    }

    InlineCallback &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    /** Invoke the stored callable (must be non-empty). Const-callable
     *  like std::function: the target is logically owned state, and
     *  captured-by-value callbacks live in non-mutable lambdas all
     *  over the hierarchy. */
    void
    operator()() const
    {
        invoke_(const_cast<unsigned char *>(buf_));
    }

    explicit operator bool() const { return invoke_ != nullptr; }

    void reset() noexcept { invoke_ = nullptr; }

    /**
     * Pre-bound member-function callback: `Callback::of<&T::tick>(obj)`
     * stores only the object pointer — the recurring-event form, as
     * cheap to re-schedule as copying one pointer.
     */
    template <auto Method, class T>
    static InlineCallback
    of(T *obj)
    {
        return InlineCallback([obj] { (obj->*Method)(); });
    }

  private:
    template <class F>
    static void
    invokeInline(void *buf)
    {
        (*std::launder(static_cast<F *>(buf)))();
    }

    /** Copy the whole buffer and the invoke pointer, then empty
     *  @p other: no branch, no table. Every load comes before every
     *  store, so a self-move keeps its callable. */
    void
    moveFrom(InlineCallback &other) noexcept
    {
        unsigned char bytes[kInlineCallbackBytes];
        std::memcpy(bytes, other.buf_, kInlineCallbackBytes);
        invoke_ = std::exchange(other.invoke_, nullptr);
        std::memcpy(buf_, bytes, kInlineCallbackBytes);
    }

    /** Zero-initialized, so a move never reads an uninitialized byte
     *  past a small capture. */
    alignas(std::max_align_t) unsigned char buf_[kInlineCallbackBytes]{};
    void (*invoke_)(void *buf) = nullptr;
};

} // namespace dapsim

#endif // DAPSIM_COMMON_INLINE_CALLBACK_HH
