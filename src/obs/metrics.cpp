#include "obs/metrics.hpp"

#include <cstdio>

namespace hero::obs {

void Gauge::set(Time now, double value) {
  tw_.observe(now, value);
  if (timeline_.empty() || !exactly_equal(timeline_.back().value, value)) {
    timeline_.push_back(GaugePoint{now, value});
  }
}

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge{}).first;
  }
  return it->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

MetricsSnapshot MetricsRegistry::snapshot(Time now) const {
  MetricsSnapshot snap;
  snap.time = now;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c.value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back(MetricsSnapshot::GaugeRow{
        name, g.current(), g.average(), g.peak()});
  }
  return snap;
}

std::string MetricsSnapshot::to_string() const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "snapshot t=%.9g\n", raw(time));
  out += buf;
  for (const auto& [name, value] : counters) {
    std::snprintf(buf, sizeof(buf), "counter %s = %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    out += buf;
  }
  for (const GaugeRow& g : gauges) {
    std::snprintf(buf, sizeof(buf),
                  "gauge %s cur=%.9g avg=%.9g peak=%.9g\n", g.name.c_str(),
                  g.current, g.average, g.peak);
    out += buf;
  }
  return out;
}

}  // namespace hero::obs
