#include "common/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace hero {

// --- Percentiles ---

void Percentiles::ensure_sorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Percentiles::quantile(double q) const {
  if (values_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

double Percentiles::mean() const {
  if (values_.empty()) return 0.0;
  double s = 0.0;
  for (double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

double Percentiles::fraction_below(double threshold) const {
  if (values_.empty()) return 0.0;
  ensure_sorted();
  const auto it =
      std::upper_bound(values_.begin(), values_.end(), threshold);
  return static_cast<double>(it - values_.begin()) /
         static_cast<double>(values_.size());
}

// --- TimeWeighted ---

void TimeWeighted::observe(Time now, double value) {
  if (!started_) {
    started_ = true;
    first_time_ = now;
    last_time_ = now;
    current_ = value;
    peak_ = value;
    return;
  }
  if (now > last_time_) {
    weighted_sum_ += current_ * (now - last_time_);
    last_time_ = now;
  }
  current_ = value;
  peak_ = std::max(peak_, value);
}

double TimeWeighted::average() const {
  const Time dur = last_time_ - first_time_;
  return dur > 0.0 ? weighted_sum_ / dur : current_;
}

// --- MovingAverage ---

MovingAverage::MovingAverage(std::size_t window) : window_(window) {
  if (window == 0) throw std::invalid_argument("MovingAverage: window == 0");
}

void MovingAverage::add(double x) {
  if (values_.size() < window_) {
    values_.push_back(x);
    sum_ += x;
  } else {
    sum_ += x - values_[next_];
    values_[next_] = x;
  }
  next_ = (next_ + 1) % window_;
}

double MovingAverage::value() const {
  return values_.empty() ? 0.0
                         : sum_ / static_cast<double>(values_.size());
}

}  // namespace hero
