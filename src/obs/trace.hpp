// Event tracing for the simulated serving stack.
//
// The EventTracer records typed events against simulated time — nested
// spans on named tracks (request lifecycle, prefill stages, decode
// iterations), async spans correlated by id (network flows, collectives,
// KV transfers), instants (scheduler decisions, controller ticks, INA
// fallbacks), and counter samples — and exports them as Chrome
// `trace_event` JSON loadable in chrome://tracing or Perfetto.
//
// Tracing is opt-in and zero-cost when off: subsystems reach the tracer
// through sim::Simulator::tracer(), which is null unless a tracer was
// attached, so the disabled path is a single pointer test.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"

namespace hero::obs {

/// One key=value annotation on an event. Values are pre-rendered: numbers
/// stay numbers in the JSON, everything else becomes a quoted string.
struct TraceArg {
  std::string key;
  std::string value;
  bool numeric = false;
};

using TraceArgs = std::vector<TraceArg>;

[[nodiscard]] TraceArg arg(std::string key, std::string value);
[[nodiscard]] TraceArg arg(std::string key, const char* value);
[[nodiscard]] TraceArg arg(std::string key, double value);
[[nodiscard]] TraceArg arg(std::string key, std::uint64_t value);
[[nodiscard]] TraceArg arg(std::string key, bool value);
#if defined(HERO_STRONG_UNITS)
/// Unit-typed annotations render exactly like their raw double twin.
template <int T, int D, int K, int W>
[[nodiscard]] TraceArg arg(std::string key, Quantity<T, D, K, W> value) {
  return arg(std::move(key), value.value());
}
#endif

/// Chrome trace-event phases (the subset this tracer emits).
enum class Phase : char {
  kSpanBegin = 'B',   ///< nested span start on a track
  kSpanEnd = 'E',     ///< nested span end on a track
  kAsyncBegin = 'b',  ///< async span start, correlated by (category, id)
  kAsyncEnd = 'e',    ///< async span end
  kInstant = 'i',     ///< point event
  kCounter = 'C',     ///< sampled counter value
};

using TrackId = std::uint32_t;

struct TraceEvent {
  Phase phase = Phase::kInstant;
  Time time = 0.0;          ///< simulated seconds
  TrackId track = 0;        ///< Chrome tid
  std::uint64_t id = 0;     ///< async correlation id (async phases only)
  std::string category;
  std::string name;
  TraceArgs args;
};

class EventTracer {
 public:
  /// Find-or-create a named track (a `tid` row in the viewer). Track 0 is
  /// the unnamed default.
  TrackId track(std::string_view name);

  // --- recording ---
  void begin_span(Time now, TrackId track, std::string category,
                  std::string name, TraceArgs args = {});
  void end_span(Time now, TrackId track, TraceArgs args = {});
  void async_begin(Time now, std::uint64_t id, std::string category,
                   std::string name, TraceArgs args = {});
  void async_end(Time now, std::uint64_t id, std::string category,
                 std::string name, TraceArgs args = {});
  void instant(Time now, TrackId track, std::string category,
               std::string name, TraceArgs args = {});
  void counter(Time now, std::string name, double value);

  /// Fresh correlation id for async spans (monotonic, never 0).
  [[nodiscard]] std::uint64_t next_async_id() { return next_async_id_++; }

  // --- inspection ---
  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t event_count() const { return events_.size(); }
  /// Number of recorded events with the given category and phase — the
  /// cross-check hook (e.g. completed collectives = count("collective",
  /// Phase::kAsyncEnd)).
  [[nodiscard]] std::uint64_t count(std::string_view category,
                                    Phase phase) const;
  /// Spans currently open on a track (begin without matching end).
  [[nodiscard]] std::size_t open_spans(TrackId track) const;

  // --- export ---
  /// Serialize everything as Chrome trace-event JSON ({"traceEvents": [...]},
  /// timestamps in microseconds, track names as thread_name metadata).
  [[nodiscard]] std::string chrome_trace_json() const;
  /// Write to a file; returns false (and logs) on I/O failure.
  bool write_chrome_trace_file(const std::string& path) const;

  void clear();

 private:
  std::vector<TraceEvent> events_;
  std::vector<std::string> track_names_;  ///< track id i+1 -> name
  std::vector<std::size_t> open_depth_;   ///< per track, begin/end balance
  std::uint64_t next_async_id_ = 1;

  void push(TraceEvent ev);
};

}  // namespace hero::obs
