// Statistics helpers shared by the simulator, the online scheduler, and the
// benchmark harnesses: percentiles, time-weighted averages for utilization
// accounting, and windowed moving averages.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"

namespace hero {

/// Exact percentile over a stored sample set (linear interpolation between
/// order statistics). Used for TTFT/TPOT distributions, which are small
/// enough (one value per request) to keep in memory.
class Percentiles {
 public:
  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }
  /// Pool another sample set (fleet-level aggregation of per-instance
  /// distributions).
  void merge(const Percentiles& other) {
    values_.insert(values_.end(), other.values_.begin(),
                   other.values_.end());
    sorted_ = false;
  }
  void reserve(std::size_t n) { values_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return values_.size(); }
  /// q in [0, 1]; returns 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double p90() const { return quantile(0.90); }
  [[nodiscard]] double p99() const { return quantile(0.99); }
  [[nodiscard]] double mean() const;
  /// Fraction of samples <= threshold (SLA attainment).
  [[nodiscard]] double fraction_below(double threshold) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Time-weighted average of a piecewise-constant signal, e.g. link
/// utilization or KV-cache occupancy over simulated time.
class TimeWeighted {
 public:
  /// Record that the signal had `value` from the previous observation time
  /// up to `now`, and takes a (possibly) new value afterwards.
  void observe(Time now, double value);

  [[nodiscard]] double average() const;
  [[nodiscard]] double peak() const { return peak_; }
  [[nodiscard]] double current() const { return current_; }

 private:
  bool started_ = false;
  Time first_time_ = 0.0;
  Time last_time_ = 0.0;
  double current_ = 0.0;
  Time weighted_sum_ = 0.0;  ///< signal (dimensionless) x seconds
  double peak_ = 0.0;
};

/// Simple windowed moving average used by the workload estimator
/// (paper SIII-B: "apply a moving average method to dynamically update
/// K_in and K_out").
class MovingAverage {
 public:
  explicit MovingAverage(std::size_t window);

  void add(double x);
  [[nodiscard]] double value() const;
  [[nodiscard]] std::size_t size() const { return values_.size(); }

 private:
  std::size_t window_;
  std::size_t next_ = 0;
  std::vector<double> values_;
  double sum_ = 0.0;
};

}  // namespace hero
