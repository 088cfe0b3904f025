// Indexed, pooled event calendar for the discrete-event core.
//
// The original Simulator kept a std::priority_queue plus two unordered_sets
// for lazy deletion: every cancel left a tombstone in the heap, every
// schedule allocated a fresh std::function node, and a cancelled event was
// only reclaimed when it bubbled to the top. The flow network cancels and
// reschedules completion events constantly (every rate change), so the
// calendar is rebuilt here as an indexed binary min-heap over a slot pool:
//
//  - every live event owns a pool slot; the heap stores each event's
//    (time, seq) key beside its slot, so sifting compares keys without
//    chasing slots, and each slot remembers its heap position, so cancel()
//    is a true O(log n) removal — no tombstones, pending count == heap size
//    by construction;
//  - slots are recycled through a free list and callbacks are
//    InlineFunctions (common/inline_function.hpp) whose capture buffer
//    holds the hot lambdas in place, so steady-state scheduling performs
//    no allocation;
//  - handles encode (generation, slot); a stale or bogus handle simply
//    fails the generation check, keeping cancel() a safe no-op.
//
// Ordering is (time, sequence): `seq` is a monotone counter stamped at
// insertion (or a key reserved earlier, see Simulator::reserve_keys),
// which preserves the FIFO-among-equal-times contract the rest of the
// stack depends on for determinism. Keys are unique, so the pop order is
// a pure function of the keys, never of the heap's shape.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/inline_function.hpp"
#include "common/units.hpp"

namespace hero::sim {

/// Opaque handle to a scheduled event: (generation << 32) | (slot + 1).
/// Zero is never a valid handle.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  using Callback = InlineFunction<void()>;

  /// Insert an event. `seq` must be unique among pending events — it is
  /// the FIFO tie-break among equal times.
  EventId push(Time at, std::uint64_t seq, Callback&& cb) {
    std::uint32_t slot = 0;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
      callbacks_.emplace_back();
    }
    callbacks_[slot] = std::move(cb);
    heap_.push_back(Entry{at, seq, slot});
    sift_up(static_cast<std::uint32_t>(heap_.size() - 1), heap_.back());
    return encode(slots_[slot].gen, slot);
  }

  /// Remove a pending event. Returns false (and does nothing) for handles
  /// that already fired, were already cancelled, or never existed.
  bool cancel(EventId id) {
    const std::uint32_t slot = decode_slot(id);
    if (slot == kNoSlot || slot >= slots_.size()) return false;
    const Slot& s = slots_[slot];
    if (s.pos == kNotQueued || encode(s.gen, slot) != id) return false;
    remove_at(s.pos);
    callbacks_[slot] = nullptr;
    retire(slot);
    return true;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Earliest pending time; only valid when !empty().
  [[nodiscard]] Time top_time() const { return heap_.front().at; }

  /// Pop the earliest (time, seq) event and hand back its callback. The
  /// callback is moved out *before* the caller runs it, so an event is free
  /// to schedule or cancel others — the heap is already consistent.
  std::pair<Time, Callback> pop() {
    HERO_INVARIANT(!heap_.empty(), "EventQueue::pop on empty calendar");
    const Entry top = heap_.front();
    Callback cb = std::move(callbacks_[top.slot]);
    remove_at(0);
    retire(top.slot);
    return {top.at, std::move(cb)};
  }

 private:
  static constexpr std::uint32_t kNotQueued =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  /// Heap element: the ordering key travels with the slot index.
  struct Entry {
    Time at = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  struct Slot {
    std::uint32_t pos = kNotQueued;  ///< index into heap_, kNotQueued if free
    std::uint32_t gen = 0;           ///< bumped on retire; stale-handle guard
  };

  static EventId encode(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) |
           static_cast<EventId>(slot + 1);
  }
  static std::uint32_t decode_slot(EventId id) {
    const std::uint32_t low = static_cast<std::uint32_t>(id & 0xffffffffu);
    return low == 0 ? kNoSlot : low - 1;
  }

  static bool before(const Entry& a, const Entry& b) {
    if (!exactly_equal(a.at, b.at)) return a.at < b.at;
    return a.seq < b.seq;
  }

  void place(std::uint32_t pos, const Entry& e) {
    heap_[pos] = e;
    slots_[e.slot].pos = pos;
  }

  /// Move `e` up from the hole at `pos` to where it belongs.
  void sift_up(std::uint32_t pos, Entry e) {
    while (pos > 0) {
      const std::uint32_t parent = (pos - 1) / 2;
      if (!before(e, heap_[parent])) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, e);
  }

  /// Move `e` down from the hole at `pos` to where it belongs.
  void sift_down(std::uint32_t pos, Entry e) {
    const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      std::uint32_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], e)) break;
      place(pos, heap_[child]);
      pos = child;
    }
    place(pos, e);
  }

  /// Detach heap_[pos] from the heap (the slot itself is retired by the
  /// caller). Fills the hole with the last element and restores order.
  void remove_at(std::uint32_t pos) {
    const Entry filler = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) return;  // removed the last element
    // The filler may need to move either way relative to its new parent.
    if (pos > 0 && before(filler, heap_[(pos - 1) / 2])) {
      sift_up(pos, filler);
    } else {
      sift_down(pos, filler);
    }
  }

  void retire(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.pos = kNotQueued;
    ++s.gen;
    free_.push_back(slot);
  }

  std::vector<Entry> heap_;             ///< binary min-heap on (at, seq)
  std::vector<Slot> slots_;             ///< per-slot heap position + gen
  std::vector<Callback> callbacks_;     ///< per-slot pending callback
  std::vector<std::uint32_t> free_;     ///< recycled slots
};

}  // namespace hero::sim
