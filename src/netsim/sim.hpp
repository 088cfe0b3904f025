// Discrete-event simulation core.
//
// A single-threaded event calendar: callbacks scheduled at absolute times,
// executed in (time, insertion) order. Everything in HeroServe that "takes
// time" — flow completions, compute kernels, controller sync periods,
// request arrivals — is an event on one Simulator instance, which makes runs
// fully deterministic for a given seed.
//
// The calendar is an indexed pooled heap (see event_queue.hpp): cancel()
// is a true O(log n) removal instead of a tombstone, slots are recycled and
// callbacks keep their captures inline, so the cancel/reschedule storms
// the flow network generates on every rate change cost neither allocation
// nor dead-event churn.
//
// Keyed scheduling keeps the calendar small. A source of many future
// events (a trace's arrivals, a link's flap cycles) reserves their
// sequence numbers up front with reserve_keys() — exactly where it would
// have scheduled them all — and then puts each on the calendar only when
// its predecessor fires, with schedule_keyed(). Pop order is a pure
// function of (time, seq), so such a chained calendar executes the same
// events in the same order as the eager one; it just never holds more
// than one pending event per chain.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "netsim/event_queue.hpp"
#include "obs/sink.hpp"

namespace hero::sim {

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `cb` at absolute time `at` (>= now). Returns a handle usable
  /// with cancel().
  EventId schedule(Time at, Callback cb);
  /// Schedule `cb` after `delay` seconds.
  EventId schedule_in(Time delay, Callback cb);
  /// Cancel a pending event; no-op if it already ran or was cancelled.
  void cancel(EventId id);

  /// Reserve `n` consecutive sequence numbers and return the first. Each
  /// counts as scheduled (scheduled_events() includes it) and is later
  /// used once with schedule_keyed(); the events ordinary schedule() calls
  /// make afterwards order behind them among equal times.
  std::uint64_t reserve_keys(std::uint64_t n);
  /// Schedule `cb` at absolute time `at` (>= now) under a key returned by
  /// reserve_keys(). Throws std::invalid_argument for a time in the past
  /// or a key that was never handed out.
  EventId schedule_keyed(Time at, std::uint64_t seq, Callback cb);

  /// Execute the next event. Returns false when the calendar is empty.
  bool step();
  /// Run until the calendar drains.
  void run();
  /// Run events with time <= t, then set now() = t.
  void run_until(Time t);

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  /// Most events ever pending at once: the calendar's high-water mark.
  [[nodiscard]] std::size_t peak_pending_events() const {
    return peak_pending_;
  }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }
  /// Lifetime schedule() calls plus reserved keys (fired + cancelled +
  /// still pending + reserved but not yet scheduled).
  [[nodiscard]] std::uint64_t scheduled_events() const { return next_seq_ - 1; }
  /// Lifetime successful cancel() calls.
  [[nodiscard]] std::uint64_t cancelled_events() const { return cancelled_; }

  // --- observability ---
  //
  // Everything simulated hangs off one Simulator, so the simulator is where
  // the observability sink attaches. The default Sink is the null object
  // ("tracing off"); instrumented subsystems test tracer()/metrics() before
  // recording, which keeps the disabled path free of work.
  void attach(obs::Sink sink) { sink_ = sink; }
  [[nodiscard]] const obs::Sink& sink() const { return sink_; }
  [[nodiscard]] obs::EventTracer* tracer() const { return sink_.tracer(); }
  [[nodiscard]] obs::MetricsRegistry* metrics() const {
    return sink_.metrics();
  }

 private:
  Time now_ = 0.0;
  obs::Sink sink_;
  std::uint64_t next_seq_ = 1;  ///< FIFO tie-break among same-time events
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t peak_pending_ = 0;
  EventQueue queue_;

  EventId push(Time at, std::uint64_t seq, Callback&& cb);
};

}  // namespace hero::sim
