// Unit conventions used throughout HeroServe.
//
// All internal quantities use SI base units:
//   time        seconds
//   data        bytes
//   tokens      LLM tokens (fluid token-flow in rate math)
//   work        GPU work units (FLOPs in the roofline model)
//   bandwidth   bytes per second       (data / time)
//   token rate  tokens per second      (tokens / time)
//   work rate   FLOPs per second       (work / time)
//
// Two representations sit behind one set of aliases:
//
//   default build        `Time`, `Bytes`, ... are plain `double`. Zero
//                        abstraction, bit-for-bit the historical ABI and
//                        arithmetic.
//   -DHERO_STRONG_UNITS  the aliases become `Quantity<T,D,K,W>`, a
//                        zero-overhead wrapper holding one double whose
//                        template parameters are the exponents of the four
//                        base dimensions (time, data, tokens, work).
//                        `Bytes / Time -> Bandwidth` and friends are encoded
//                        in the operators; `Bytes + Time` does not compile.
//
// Both modes perform the identical double operations in the identical
// order, so simulator output is byte-for-byte the same — the strong build
// exists purely to let the compiler audit dimensional correctness
// (CI builds it; tools/determinism_check.sh asserts output identity).
//
// Conventions for call sites:
//   * state units explicitly: `100.0 * units::Gbps`, `4.0 * units::MiB`;
//     a bare numeric literal seeding a unit-typed variable trips
//     hero-lint's `raw-unit-literal` rule.
//   * `hero::raw(x)` unwraps a quantity (or passes a double through) at
//     genuine type boundaries: printf-style varargs, <cmath> calls,
//     observability gauges, percentile sketches.
#pragma once

#include <limits>
#include <ostream>

namespace hero {

/// `a == b` with no tolerance, for the comparisons that mean it: a heap
/// key tie, a rate that must reproduce bit for bit, an integrality test.
/// It is the one exact floating-point compare in the project; every other
/// `==`/`!=` on a double is a build error (-Werror=float-equal).
template <typename T>
[[nodiscard]] constexpr bool exactly_equal(T a, T b) {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfloat-equal"
  return a == b;
#pragma GCC diagnostic pop
}

#if defined(HERO_STRONG_UNITS)

/// One double tagged with base-dimension exponents. `TimeD` counts seconds,
/// `DataD` bytes, `TokD` tokens, `WorkD` GPU work units; `Quantity<-1,1,0,0>`
/// is therefore bytes/second. Implicitly constructible from `double` (so
/// `Time t = 0.0;` and `bw > 0.0` stay valid — hero-lint polices literal
/// hygiene), but conversion *out* is explicit: crossing back to raw double
/// takes `hero::raw()` / `value()`, and mixed-dimension `+`/`-`/compare do
/// not compile.
template <int TimeD, int DataD, int TokD, int WorkD>
class Quantity {
 public:
  constexpr Quantity() = default;
  constexpr Quantity(double v) : v_(v) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] constexpr double value() const { return v_; }
  explicit constexpr operator double() const { return v_; }

  constexpr Quantity& operator+=(Quantity o) { v_ += o.v_; return *this; }
  constexpr Quantity& operator-=(Quantity o) { v_ -= o.v_; return *this; }
  constexpr Quantity& operator*=(double s) { v_ *= s; return *this; }
  constexpr Quantity& operator/=(double s) { v_ /= s; return *this; }

  // Hidden friends: found by ADL only when one operand already has this
  // exact dimension, so `Time + 1.0` converts the literal while
  // `Bytes + Time` has no viable overload.
  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity(a.v_ + b.v_);
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity(a.v_ - b.v_);
  }
  friend constexpr Quantity operator-(Quantity a) { return Quantity(-a.v_); }
  friend constexpr Quantity operator+(Quantity a) { return a; }

  friend constexpr Quantity operator*(Quantity a, double s) {
    return Quantity(a.v_ * s);
  }
  friend constexpr Quantity operator*(double s, Quantity a) {
    return Quantity(s * a.v_);
  }
  friend constexpr Quantity operator/(Quantity a, double s) {
    return Quantity(a.v_ / s);
  }

  friend constexpr bool operator<(Quantity a, Quantity b) { return a.v_ < b.v_; }
  friend constexpr bool operator>(Quantity a, Quantity b) { return a.v_ > b.v_; }
  friend constexpr bool operator<=(Quantity a, Quantity b) {
    return a.v_ <= b.v_;
  }
  friend constexpr bool operator>=(Quantity a, Quantity b) {
    return a.v_ >= b.v_;
  }
  friend constexpr bool operator==(Quantity a, Quantity b) {
    return exactly_equal(a.v_, b.v_);
  }
  friend constexpr bool operator!=(Quantity a, Quantity b) {
    return !exactly_equal(a.v_, b.v_);
  }

  friend std::ostream& operator<<(std::ostream& os, Quantity a) {
    return os << a.v_;  // renders exactly like the underlying double
  }

 private:
  double v_ = 0.0;
};

namespace units_detail {

/// Maps a dimension vector to its quantity type; the dimensionless case
/// decays to plain double so `bytes / bytes` is an ordinary ratio.
template <int T, int D, int K, int W>
struct Typed {
  using type = Quantity<T, D, K, W>;
  static constexpr type from(double v) { return type(v); }
};
template <>
struct Typed<0, 0, 0, 0> {
  using type = double;
  static constexpr double from(double v) { return v; }
};

}  // namespace units_detail

/// Dimension algebra: multiplying adds exponents, dividing subtracts them.
template <int T1, int D1, int K1, int W1, int T2, int D2, int K2, int W2>
[[nodiscard]] constexpr auto operator*(Quantity<T1, D1, K1, W1> a,
                                       Quantity<T2, D2, K2, W2> b) {
  return units_detail::Typed<T1 + T2, D1 + D2, K1 + K2, W1 + W2>::from(
      a.value() * b.value());
}
template <int T1, int D1, int K1, int W1, int T2, int D2, int K2, int W2>
[[nodiscard]] constexpr auto operator/(Quantity<T1, D1, K1, W1> a,
                                       Quantity<T2, D2, K2, W2> b) {
  return units_detail::Typed<T1 - T2, D1 - D2, K1 - K2, W1 - W2>::from(
      a.value() / b.value());
}
template <int T, int D, int K, int W>
[[nodiscard]] constexpr auto operator/(double s, Quantity<T, D, K, W> a) {
  return units_detail::Typed<-T, -D, -K, -W>::from(s / a.value());
}

using Time = Quantity<1, 0, 0, 0>;        ///< seconds
using Bytes = Quantity<0, 1, 0, 0>;       ///< bytes (fluid-flow model splits bytes)
using Bandwidth = Quantity<-1, 1, 0, 0>;  ///< bytes per second
using Tokens = Quantity<0, 0, 1, 0>;      ///< LLM tokens (fluid in rate math)
using WorkUnits = Quantity<0, 0, 0, 1>;   ///< GPU work (FLOPs)
using Rate = Quantity<-1, 0, 0, 0>;       ///< events per second (arrivals, ...)
using TokenRate = Quantity<-1, 0, 1, 0>;  ///< tokens per second
using WorkRate = Quantity<-1, 0, 0, 1>;   ///< FLOPs per second

/// Unwrap a quantity to its raw double at a genuine type boundary
/// (varargs, <cmath>, gauges). Prefer staying in quantity space otherwise.
template <int T, int D, int K, int W>
[[nodiscard]] constexpr double raw(Quantity<T, D, K, W> q) {
  return q.value();
}
[[nodiscard]] constexpr double raw(double v) { return v; }

#else  // !HERO_STRONG_UNITS

using Time = double;       ///< seconds
using Bytes = double;      ///< bytes (double: fluid-flow model splits bytes)
using Bandwidth = double;  ///< bytes per second
using Tokens = double;     ///< LLM tokens (fluid in rate math)
using WorkUnits = double;  ///< GPU work (FLOPs)
using Rate = double;       ///< events per second (arrivals, ...)
using TokenRate = double;  ///< tokens per second
using WorkRate = double;   ///< FLOPs per second

/// No-op twin of the strong-units unwrap so call sites compile unchanged.
[[nodiscard]] constexpr double raw(double v) { return v; }

#endif  // HERO_STRONG_UNITS

// This namespace is the one legitimate home of bare conversion-factor
// literals: the constants below *define* the units:: factors every other
// file is told to spell.
// hero-lint: allow-file(raw-unit-literal)
namespace units {

// --- time ---
inline constexpr Time ns = 1e-9;
inline constexpr Time us = 1e-6;
inline constexpr Time ms = 1e-3;
inline constexpr Time sec = 1.0;

// --- data ---
inline constexpr Bytes B = 1.0;
inline constexpr Bytes KiB = 1024.0;
inline constexpr Bytes MiB = 1024.0 * 1024.0;
inline constexpr Bytes GiB = 1024.0 * 1024.0 * 1024.0;
inline constexpr Bytes KB = 1e3;
inline constexpr Bytes MB = 1e6;
inline constexpr Bytes GB = 1e9;

// --- bandwidth ---
// Network links are quoted in bits/s, NVLink in bytes/s; both normalize to
// bytes per second internally.
inline constexpr Bandwidth bps = 1.0 / 8.0;
inline constexpr Bandwidth Kbps = 1e3 / 8.0;
inline constexpr Bandwidth Mbps = 1e6 / 8.0;
inline constexpr Bandwidth Gbps = 1e9 / 8.0;
inline constexpr Bandwidth GBps = 1e9;

// --- tokens / work ---
inline constexpr Tokens token = 1.0;
inline constexpr WorkUnits flop = 1.0;
inline constexpr WorkRate GFLOPs = 1e9;
inline constexpr WorkRate TFLOPs = 1e12;

// --- dimensionless conversion factors ---
inline constexpr double bits_per_byte = 8.0;

}  // namespace units

/// Serialization delay of `data` bytes over a `bw` bytes/s link. A link
/// with no capacity never completes a transfer: the delay is +infinity
/// (callers price such paths out rather than treating them as free).
[[nodiscard]] constexpr Time transfer_time(Bytes data, Bandwidth bw) {
  return bw > 0.0 ? data / bw
                  : Time{std::numeric_limits<double>::infinity()};
}

}  // namespace hero

#if defined(HERO_STRONG_UNITS)
// `std::numeric_limits<Time>::infinity()` and friends must keep working in
// the strong build; the unspecialized primary template would silently
// return value-initialized (zero) quantities.
template <int T, int D, int K, int W>
struct std::numeric_limits<hero::Quantity<T, D, K, W>> {
 private:
  using Base = std::numeric_limits<double>;
  using Q = hero::Quantity<T, D, K, W>;

 public:
  static constexpr bool is_specialized = true;
  static constexpr bool is_signed = Base::is_signed;
  static constexpr bool is_integer = Base::is_integer;
  static constexpr bool is_exact = Base::is_exact;
  static constexpr bool has_infinity = Base::has_infinity;
  static constexpr bool has_quiet_NaN = Base::has_quiet_NaN;
  static constexpr int digits = Base::digits;
  static constexpr int digits10 = Base::digits10;

  static constexpr Q min() { return Q{Base::min()}; }
  static constexpr Q max() { return Q{Base::max()}; }
  static constexpr Q lowest() { return Q{Base::lowest()}; }
  static constexpr Q epsilon() { return Q{Base::epsilon()}; }
  static constexpr Q infinity() { return Q{Base::infinity()}; }
  static constexpr Q quiet_NaN() { return Q{Base::quiet_NaN()}; }
};
#endif  // HERO_STRONG_UNITS
