#pragma once
// EventFn: the move-only `void()` callable every runtime posts.
//
// std::function keeps only 16 bytes inline, so the closures the delivery
// path posts — a datagram hop captures `this` plus a net::Packet, 40 bytes
// — each cost one heap allocation. EventFn stores callables of up to
// kInlineSize bytes in place and falls back to the heap beyond that. It is
// move-only, so closures may own move-only state, and it never copies the
// target. The call operator is const like std::function's and invokes the
// target as a non-const lvalue, so `mutable` lambdas work and wrappers that
// capture an EventFn in a non-mutable lambda still compile.

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"

namespace urcgc::rt {

class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(void*);

  /// Whether a callable of type F is stored without a heap allocation.
  template <class F>
  static constexpr bool kStoredInline =
      sizeof(F) <= kInlineSize &&
      alignof(F) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<F>;

  EventFn() noexcept = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                     std::is_invocable_r_v<void, D&>>>
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    if constexpr (kStoredInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        other.ops_->relocate(storage_, other.storage_);
        ops_ = std::exchange(other.ops_, nullptr);
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() const {
    URCGC_ASSERT_MSG(ops_ != nullptr, "call of an empty EventFn");
    ops_->invoke(storage_);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  // One table per stored type. `relocate` move-constructs the target into
  // `dst` and destroys the source, so the moved-from EventFn is empty.
  struct Ops {
    void (*invoke)(void* storage);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* s) { (*static_cast<D*>(s))(); },
      [](void* dst, void* src) noexcept {
        D* from = static_cast<D*>(src);
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* s) noexcept { static_cast<D*>(s)->~D(); },
  };

  template <class D>
  static constexpr Ops kHeapOps{
      [](void* s) { (**static_cast<D**>(s))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*static_cast<D**>(src));
      },
      [](void* s) noexcept { delete *static_cast<D**>(s); },
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  // Mutable: a const call still runs the target as a non-const lvalue.
  alignas(kInlineAlign) mutable unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace urcgc::rt
