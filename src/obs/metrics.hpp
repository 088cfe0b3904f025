// Metrics registry for the simulated serving stack.
//
// Named counters (monotonic totals: collectives, fallbacks, transfers),
// and gauges (piecewise-constant signals with time-weighted averaging and a
// change-point timeline: link utilization, queue depths, KV occupancy).
// Backends snapshot the registry at any sim time; two identical seeded runs
// produce byte-identical snapshots.
//
// Like the tracer, the registry is reached through
// sim::Simulator::metrics() and is null unless attached, so the disabled
// path costs one pointer test.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"

namespace hero::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// One change-point of a gauge's timeline.
struct GaugePoint {
  Time time = 0.0;
  double value = 0.0;
};

/// Piecewise-constant signal: current value, time-weighted average/peak,
/// and the full change-point timeline (repeated equal values collapse).
class Gauge {
 public:
  void set(Time now, double value);

  [[nodiscard]] double current() const { return tw_.current(); }
  [[nodiscard]] double average() const { return tw_.average(); }
  [[nodiscard]] double peak() const { return tw_.peak(); }
  [[nodiscard]] const std::vector<GaugePoint>& timeline() const {
    return timeline_;
  }

 private:
  TimeWeighted tw_;
  std::vector<GaugePoint> timeline_;
};

/// One registry snapshot: every metric, sorted by name (deterministic).
struct MetricsSnapshot {
  Time time = 0.0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  struct GaugeRow {
    std::string name;
    double current = 0.0;
    double average = 0.0;
    double peak = 0.0;
  };
  std::vector<GaugeRow> gauges;

  /// Stable textual rendering (tests compare runs through this).
  [[nodiscard]] std::string to_string() const;
};

class MetricsRegistry {
 public:
  /// Find-or-create. Names are stable identifiers like "coll.ops" or
  /// "serve.kv_util"; creation order does not affect snapshots.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);

  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;

  [[nodiscard]] MetricsSnapshot snapshot(Time now) const;
  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size();
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
};

}  // namespace hero::obs
