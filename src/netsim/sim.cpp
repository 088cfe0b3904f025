#include "netsim/sim.hpp"

#include <stdexcept>
#include <utility>

#include "common/check.hpp"

namespace hero::sim {

EventId Simulator::push(Time at, std::uint64_t seq, Callback&& cb) {
  if (at < now_) throw std::invalid_argument("Simulator: event in the past");
  const EventId id = queue_.push(at, seq, std::move(cb));
  if (queue_.size() > peak_pending_) peak_pending_ = queue_.size();
  return id;
}

EventId Simulator::schedule(Time at, Callback cb) {
  const EventId id = push(at, next_seq_, std::move(cb));
  ++next_seq_;
  return id;
}

EventId Simulator::schedule_in(Time delay, Callback cb) {
  return schedule(now_ + delay, std::move(cb));
}

std::uint64_t Simulator::reserve_keys(std::uint64_t n) {
  const std::uint64_t first = next_seq_;
  next_seq_ += n;
  return first;
}

EventId Simulator::schedule_keyed(Time at, std::uint64_t seq, Callback cb) {
  if (seq == 0 || seq >= next_seq_) {
    throw std::invalid_argument("Simulator: event key was never reserved");
  }
  return push(at, seq, std::move(cb));
}

void Simulator::cancel(EventId id) {
  // Only events that are actually pending can be cancelled; stale or bogus
  // ids are ignored so pending_events() stays exact.
  if (queue_.cancel(id)) ++cancelled_;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto [at, cb] = queue_.pop();
  // The calendar executes in (time, insertion) order; time running
  // backwards means the heap or an in-callback mutation broke the
  // deterministic ordering contract.
  HERO_INVARIANT(at >= now_, "event at t={} before now={}", at, now_);
  now_ = at;
  ++executed_;
  cb();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(Time t) {
  while (!queue_.empty() && queue_.top_time() <= t) {
    step();
  }
  if (t > now_) now_ = t;
}

}  // namespace hero::sim
