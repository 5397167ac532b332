// Move-only, small-buffer `void()` callable for the simulator's hot paths.
//
// Every engine event, network delivery and service-time timer is one of
// these.  `std::function` heap-allocates any capture larger than its tiny
// small buffer (16 bytes in libstdc++), and the hot captures here carry a
// whole dsps::Event, so each scheduled event used to cost a malloc/free
// pair.  Callback stores captures of up to kInlineBytes in place — sized to
// the largest hot capture, an executor's `[this, ev, epoch]` — and falls
// back to the heap only for larger ones.  It is move-only, so a capture may
// own move-only resources, and it never copies a capture after
// construction.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace rill::sim {

class Callback {
 public:
  /// Inline capture capacity: a pointer, a 72-byte dsps::Event and a
  /// 64-bit epoch.  Larger captures are heap-allocated.
  static constexpr std::size_t kInlineBytes = 88;
  /// Inline captures may need at most pointer alignment, which keeps the
  /// whole Callback at 96 bytes (a 16-byte alignment would pad it).
  static constexpr std::size_t kAlign = alignof(void*);

  Callback() noexcept = default;

  template <typename F,
            typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, Callback> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  /// Destroys the held callable (if any); the callback becomes empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// True when the callable lives on the heap (capture > kInlineBytes).
  [[nodiscard]] bool on_heap() const noexcept {
    return ops_ != nullptr && ops_->heap;
  }

  /// Invokes the callable.  Precondition: not empty.
  void operator()() { ops_->invoke(storage_); }

  /// Whether a callable of type F is stored in place.
  template <typename F>
  [[nodiscard]] static constexpr bool fits_inline() noexcept {
    return sizeof(F) <= kInlineBytes && alignof(F) <= kAlign &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs into `dst` from `src` and destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
    bool heap;
  };

  template <typename F>
  static constexpr Ops kInlineOps{
      [](void* self) { (*static_cast<F*>(self))(); },
      [](void* dst, void* src) noexcept {
        F* from = static_cast<F*>(src);
        ::new (dst) F(std::move(*from));
        from->~F();
      },
      [](void* self) noexcept { static_cast<F*>(self)->~F(); },
      false};

  template <typename F>
  static constexpr Ops kHeapOps{
      [](void* self) { (**static_cast<F**>(self))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) F*(*static_cast<F**>(src));
      },
      [](void* self) noexcept { delete *static_cast<F**>(self); },
      true};

  void take(Callback& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(storage_, other.storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(kAlign) unsigned char storage_[kInlineBytes];
  const Ops* ops_{nullptr};
};

}  // namespace rill::sim
