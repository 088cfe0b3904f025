// Move-only callable with an inline capture buffer.
//
// The simulator's hot callbacks are small lambdas: a flow hop's
// `[this, slot, id]` is 24 bytes, a ring step's completion 24. libstdc++'s
// std::function keeps only 16 bytes in place (it must stay copyable, so it
// clones its target), which made nearly every simulator event and every
// flow completion a malloc/free pair. InlineFunction constructs any
// callable that fits `Capacity` bytes, the buffer's alignment and a
// nothrow move in place, and moves larger ones to the heap. Targets that
// are trivially copyable — lambdas capturing pointers and integers, the
// common case — are relocated with memcpy and need no destructor call.
//
// Semantics follow std::function where the two overlap: default and
// nullptr construct an empty function, `f = nullptr` empties it, and
// `explicit operator bool` tests it. Calling an empty InlineFunction is a
// program bug (undefined), not a std::bad_function_call.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace hero {

template <typename Signature, std::size_t Capacity = 40>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  /// True when a callable of type F is stored in the inline buffer (the
  /// rest go to the heap).
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT: like std::function

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                !std::is_same_v<D, std::nullptr_t> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT: implicit, like std::function
    if constexpr (stores_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* target = new D(std::forward<F>(f));
      std::memcpy(buf_, &target, sizeof target);
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { take(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) const {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* buf, Args&&... args);
    /// Move-construct the target from `src` into `dst` and end the
    /// source's lifetime; null means a memcpy of the buffer does both.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Destroy the target; null means there is nothing to do.
    void (*destroy)(void* buf) noexcept;
  };

  template <typename D>
  static D* inline_target(void* buf) {
    return std::launder(static_cast<D*>(buf));
  }
  template <typename D>
  static D* heap_target(void* buf) {
    D* target = nullptr;
    std::memcpy(&target, buf, sizeof target);
    return target;
  }

  template <typename D>
  static R invoke_inline(void* buf, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      std::invoke(*inline_target<D>(buf), std::forward<Args>(args)...);
    } else {
      return std::invoke(*inline_target<D>(buf), std::forward<Args>(args)...);
    }
  }
  template <typename D>
  static R invoke_heap(void* buf, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      std::invoke(*heap_target<D>(buf), std::forward<Args>(args)...);
    } else {
      return std::invoke(*heap_target<D>(buf), std::forward<Args>(args)...);
    }
  }
  template <typename D>
  static void relocate_inline(void* dst, void* src) noexcept {
    D* from = inline_target<D>(src);
    ::new (dst) D(std::move(*from));
    from->~D();
  }
  template <typename D>
  static void destroy_inline(void* buf) noexcept {
    inline_target<D>(buf)->~D();
  }
  template <typename D>
  static void destroy_heap(void* buf) noexcept {
    delete heap_target<D>(buf);
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      &invoke_inline<D>,
      std::is_trivially_copyable_v<D> ? nullptr : &relocate_inline<D>,
      std::is_trivially_destructible_v<D> ? nullptr : &destroy_inline<D>};
  template <typename D>
  static constexpr Ops kHeapOps{&invoke_heap<D>, nullptr, &destroy_heap<D>};

  void take(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, Capacity);
    }
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  // `mutable`: like std::function, a const InlineFunction invokes its
  // target as non-const (the target is owned state, not the caller's).
  alignas(std::max_align_t) mutable unsigned char buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace hero
