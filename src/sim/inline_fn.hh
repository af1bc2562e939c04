/**
 * @file
 * Small-buffer-optimized callable for the event-loop hot path.
 *
 * Every simulated event used to pay a heap allocation through
 * std::function's type-erasure; profiling the 25-model sweeps showed
 * malloc/free of event closures high on the flat profile. InlineFn
 * stores closures up to kInlineBytes directly inside the owning record
 * (an event-queue slot, a request's completion) and only falls back to
 * the heap for oversized captures — which the simulator's call sites
 * avoid by capturing `this` plus a few scalars or slab handles.
 *
 * InlineFn is move-only: events are scheduled exactly once and consumed
 * exactly once, and a request completes exactly once, so copyability
 * (which forced std::function to allocate copyable wrappers) is
 * deliberately not offered.
 */

#ifndef DDP_SIM_INLINE_FN_HH
#define DDP_SIM_INLINE_FN_HH

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ddp::sim {

template <typename Sig>
class InlineFn;

/** Move-only `R(Args...)` callable with small-buffer optimization. */
template <typename R, typename... Args>
class InlineFn<R(Args...)>
{
  public:
    /** Closure bytes stored inline (larger captures go to the heap). */
    static constexpr std::size_t kInlineBytes = 48;

    InlineFn() = default;
    InlineFn(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFn>>>
    InlineFn(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(storage)) Fn(std::forward<F>(f));
            vt = &inlineVtable<Fn>;
        } else {
            ::new (static_cast<void *>(storage))
                Fn *(new Fn(std::forward<F>(f)));
            vt = &heapVtable<Fn>;
        }
    }

    InlineFn(InlineFn &&other) noexcept { moveFrom(other); }

    InlineFn &
    operator=(InlineFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn() { reset(); }

    explicit operator bool() const { return vt != nullptr; }

    R
    operator()(Args... args)
    {
        assert(vt && "calling an empty InlineFn");
        return vt->invoke(storage, std::forward<Args>(args)...);
    }

  private:
    struct VTable
    {
        R (*invoke)(void *, Args &&...);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static constexpr VTable inlineVtable = {
        [](void *p, Args &&...args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(p)))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) noexcept {
            Fn *s = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void *p) noexcept {
            std::launder(reinterpret_cast<Fn *>(p))->~Fn();
        },
    };

    template <typename Fn>
    static constexpr VTable heapVtable = {
        [](void *p, Args &&...args) -> R {
            return (**std::launder(reinterpret_cast<Fn **>(p)))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) noexcept {
            Fn **s = std::launder(reinterpret_cast<Fn **>(src));
            ::new (dst) Fn *(*s);
        },
        [](void *p) noexcept {
            delete *std::launder(reinterpret_cast<Fn **>(p));
        },
    };

    void
    moveFrom(InlineFn &other) noexcept
    {
        vt = other.vt;
        if (vt) {
            vt->relocate(storage, other.storage);
            other.vt = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (vt) {
            vt->destroy(storage);
            vt = nullptr;
        }
    }

    const VTable *vt = nullptr;
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
};

} // namespace ddp::sim

#endif // DDP_SIM_INLINE_FN_HH
