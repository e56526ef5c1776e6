/**
 * @file
 * Allocation-free callable for the simulation hot path.
 *
 * `InlineCallback` stores a move-only `void()` callable in a small
 * inline buffer (kInlineCallbackBytes). Unlike `std::function` it
 * never heap-allocates, and it accepts move-only captures (e.g.
 * another, smaller callback or a std::unique_ptr).
 *
 * Captures must fit the buffer: a larger one is a compile error.
 * State that has to outlive the call that made it (a queued request's
 * completion, a read racing two DRAM responses) is parked in a
 * `SlotPool` (common/slot_pool.hh) by its owner, and the closure
 * captures `{this, slot, scalars}` instead (DESIGN.md §14).
 */

#ifndef DAPSIM_COMMON_INLINE_CALLBACK_HH
#define DAPSIM_COMMON_INLINE_CALLBACK_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dapsim
{

/** Inline buffer size; every simulator capture fits it (DESIGN.md
 *  §9, §14). */
constexpr std::size_t kInlineCallbackBytes = 64;

/** Move-only `void()` callable with small-buffer optimisation. */
template <std::size_t N>
class BasicInlineCallback
{
  public:
    BasicInlineCallback() = default;
    BasicInlineCallback(std::nullptr_t) {}

    template <class F, class D = std::decay_t<F>,
              class = std::enable_if_t<
                  !std::is_same_v<D, BasicInlineCallback> &&
                  std::is_invocable_r_v<void, D &>>>
    BasicInlineCallback(F &&f)
    {
        construct<D>(std::forward<F>(f));
    }

    BasicInlineCallback(BasicInlineCallback &&other) noexcept
    {
        moveFrom(other);
    }

    BasicInlineCallback &
    operator=(BasicInlineCallback &&other) noexcept
    {
        if (this != &other) {
            destroy();
            ops_ = nullptr;
            moveFrom(other);
        }
        return *this;
    }

    BasicInlineCallback &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    BasicInlineCallback(const BasicInlineCallback &) = delete;
    BasicInlineCallback &operator=(const BasicInlineCallback &) = delete;

    ~BasicInlineCallback() { destroy(); }

    /** Invoke the stored callable (must be non-empty). Const-callable
     *  like std::function: the target is logically owned state, and
     *  captured-by-value callbacks live in non-mutable lambdas all
     *  over the hierarchy. */
    void
    operator()() const
    {
        ops_->invoke(const_cast<unsigned char *>(buf_));
    }

    explicit operator bool() const { return ops_ != nullptr; }

    void
    reset() noexcept
    {
        destroy();
        ops_ = nullptr;
    }

    /**
     * Pre-bound member-function callback: `Callback::of<&T::tick>(obj)`
     * stores only the object pointer — the recurring-event form, as
     * cheap to re-schedule as copying one pointer.
     */
    template <auto Method, class T>
    static BasicInlineCallback
    of(T *obj)
    {
        return BasicInlineCallback([obj] { (obj->*Method)(); });
    }

  private:
    struct Ops
    {
        void (*invoke)(void *buf);
        void (*relocate)(void *src, void *dst) noexcept;
        void (*destroy)(void *buf) noexcept;
        /** Relocation is a plain buffer copy (trivially-copyable
         *  capture). Lets moveFrom() skip the indirect call — event
         *  entries move through wheel buckets on the hot path. */
        bool trivialRelocate;
        /** The destructor is a no-op; destroy() may be skipped. */
        bool trivialDestroy;
        /** Bytes the capture actually occupies: most hot callbacks
         *  are one or two pointers, so relocation copies 16 bytes
         *  instead of the whole N-byte buffer. */
        std::uint32_t size;
    };

    template <class F>
    static F *
    inlinePtr(void *buf)
    {
        return std::launder(reinterpret_cast<F *>(buf));
    }

    template <class F>
    static void
    invokeInline(void *buf)
    {
        (*inlinePtr<F>(buf))();
    }

    template <class F>
    static void
    relocateInline(void *src, void *dst) noexcept
    {
        if constexpr (std::is_trivially_copyable_v<F>) {
            std::memcpy(dst, src, sizeof(F));
        } else {
            F *from = inlinePtr<F>(src);
            ::new (dst) F(std::move(*from));
            from->~F();
        }
    }

    template <class F>
    static void
    destroyInline(void *buf) noexcept
    {
        inlinePtr<F>(buf)->~F();
    }

    template <class F>
    static constexpr Ops kInlineOps{&invokeInline<F>,
                                    &relocateInline<F>,
                                    &destroyInline<F>,
                                    std::is_trivially_copyable_v<F>,
                                    std::is_trivially_destructible_v<F>,
                                    sizeof(F)};

    template <class D, class F>
    void
    construct(F &&f)
    {
        static_assert(sizeof(D) <= N,
                      "InlineCallback capture exceeds the inline buffer: "
                      "park the state in a SlotPool "
                      "(common/slot_pool.hh) and capture its index");
        static_assert(alignof(D) <= alignof(std::max_align_t),
                      "over-aligned callback captures are unsupported");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "callback captures must be nothrow-movable");
        ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
        ops_ = &kInlineOps<D>;
    }

    void
    moveFrom(BasicInlineCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            if (ops_->trivialRelocate) {
                // Fixed-size copies (tail garbage is fine): two words
                // cover the common one/two-pointer captures, the full
                // buffer everything else.
                constexpr std::size_t kTwoWords =
                    2 * sizeof(std::uint64_t);
                if constexpr (N >= kTwoWords) {
                    if (ops_->size <= kTwoWords)
                        std::memcpy(buf_, other.buf_, kTwoWords);
                    else
                        std::memcpy(buf_, other.buf_, N);
                } else {
                    std::memcpy(buf_, other.buf_, N);
                }
            } else {
                ops_->relocate(other.buf_, buf_);
            }
            other.ops_ = nullptr;
        }
    }

    void
    destroy() noexcept
    {
        if (ops_ != nullptr && !ops_->trivialDestroy)
            ops_->destroy(buf_);
    }

    alignas(std::max_align_t) unsigned char buf_[N];
    const Ops *ops_ = nullptr;
};

/** The simulator-wide callback type (see EventQueue::Callback). */
using InlineCallback = BasicInlineCallback<kInlineCallbackBytes>;

} // namespace dapsim

#endif // DAPSIM_COMMON_INLINE_CALLBACK_HH
