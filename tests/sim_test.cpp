// Tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "netsim/sim.hpp"

namespace hero::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_DOUBLE_EQ(raw(s.now()), raw(0.0));
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(2.0, [&] { order.push_back(2); });
  s.schedule(1.0, [&] { order.push_back(1); });
  s.schedule(3.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(raw(s.now()), raw(3.0));
}

TEST(Simulator, SameTimeIsFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleInUsesRelativeDelay) {
  Simulator s;
  Time fired = -1;
  s.schedule(5.0, [&] {
    s.schedule_in(2.5, [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(raw(fired), raw(7.5));
}

TEST(Simulator, PastEventThrows) {
  Simulator s;
  s.schedule(5.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule(1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool ran = false;
  const EventId id = s.schedule(1.0, [&] { ran = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.executed_events(), 0u);
}

TEST(Simulator, CancelInvalidIsNoop) {
  Simulator s;
  s.cancel(kInvalidEvent);
  s.cancel(12345);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator s;
  EXPECT_FALSE(s.step());
  s.schedule(1.0, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator s;
  int count = 0;
  s.schedule(1.0, [&] { ++count; });
  s.schedule(2.0, [&] { ++count; });
  s.schedule(5.0, [&] { ++count; });
  s.run_until(3.0);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(raw(s.now()), raw(3.0));
  s.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) s.schedule_in(1.0, recurse);
  };
  s.schedule(0.0, recurse);
  s.run();
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(raw(s.now()), raw(9.0));
}

TEST(Simulator, PendingEventsTracksCancellations) {
  Simulator s;
  const EventId a = s.schedule(1.0, [] {});
  s.schedule(2.0, [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Simulator, ExecutedEventsCounts) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule(i, [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), 7u);
}

TEST(Simulator, ScheduledAndCancelledCounters) {
  Simulator s;
  const EventId a = s.schedule(1.0, [] {});
  s.schedule(2.0, [] {});
  EXPECT_EQ(s.scheduled_events(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.cancelled_events(), 1u);
  // Double-cancel and stale cancels are no-ops, not double counts.
  s.cancel(a);
  EXPECT_EQ(s.cancelled_events(), 1u);
  s.run();
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST(Simulator, CancelAfterExecutionIsNoop) {
  Simulator s;
  const EventId id = s.schedule(1.0, [] {});
  s.run();
  s.cancel(id);  // slot may be reused; the generation stamp protects it
  EXPECT_EQ(s.cancelled_events(), 0u);
}

TEST(Simulator, StaleIdDoesNotCancelRecycledSlot) {
  Simulator s;
  const EventId first = s.schedule(1.0, [] {});
  s.run();
  // The pool slot of `first` is free; this event will likely reuse it.
  bool ran = false;
  s.schedule(2.0, [&] { ran = true; });
  s.cancel(first);  // stale generation: must NOT hit the new occupant
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.cancelled_events(), 0u);
}

TEST(Simulator, EqualTimeFifoSurvivesInterleavedCancels) {
  Simulator s;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(s.schedule(1.0, [&order, i] { order.push_back(i); }));
  }
  // Cancelling the odd events must not disturb the even events' FIFO order
  // (heap removals swap nodes around; the insertion seq keeps order).
  for (int i = 1; i < 10; i += 2) s.cancel(ids[i]);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(Simulator, PoolReuseKeepsFifoOrder) {
  Simulator s;
  // Burn and free a batch of slots, then schedule a same-time batch that
  // reuses them: execution must still follow insertion order.
  std::vector<EventId> burn;
  for (int i = 0; i < 8; ++i) burn.push_back(s.schedule(1.0, [] {}));
  for (const EventId id : burn) s.cancel(id);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    s.schedule(2.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

/// Randomized cancel/reschedule stress against a reference model: schedule
/// events with colliding times, cancel a scripted subset, and require the
/// indexed heap to fire exactly the reference's (time, insertion-seq) order.
TEST(Simulator, CancelStressMatchesReferenceModel) {
  Simulator s;
  struct Ref {
    double at = 0.0;
    int idx = 0;
  };
  std::vector<Ref> expected;
  std::vector<int> fired;
  std::vector<EventId> ids;
  std::uint64_t lcg = 42;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((lcg >> 33) % 50);  // many equal times
  };
  std::vector<bool> cancelled(300, false);
  for (int i = 0; i < 300; ++i) {
    const double at = next();
    ids.push_back(s.schedule(at, [&fired, i] { fired.push_back(i); }));
    expected.push_back({at, i});
  }
  for (int i = 0; i < 300; i += 3) {
    s.cancel(ids[i]);
    cancelled[i] = true;
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Ref& a, const Ref& b) { return a.at < b.at; });
  std::vector<int> want;
  for (const Ref& r : expected) {
    if (!cancelled[r.idx]) want.push_back(r.idx);
  }
  s.run();
  EXPECT_EQ(fired, want);
  EXPECT_EQ(s.executed_events(), want.size());
  EXPECT_EQ(s.cancelled_events(), 100u);
}

/// One calendar, built two ways: a source of events scheduled all up front
/// (`keyed` false), or the same events with keys reserved at that point and
/// each one scheduled only when its predecessor fires. Ordinary events are
/// scheduled before and after the source, at the source's timestamps, and
/// from inside its callbacks. Returns the order everything fired in.
std::vector<std::string> fire_order(bool keyed, Simulator& s) {
  const std::vector<double> times = {1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 5.0};
  std::vector<std::string> log;
  s.schedule(1.0, [&log] { log.push_back("before@1"); });
  s.schedule(2.0, [&log] { log.push_back("before@2"); });
  auto body = [&log, &s](std::size_t k) {
    log.push_back("src" + std::to_string(k));
    // Same-time follow-ups order behind every reserved key.
    s.schedule_in(0.0, [&log, k] { log.push_back("echo" + std::to_string(k)); });
  };
  std::function<void(std::size_t)> chain;
  std::uint64_t first = 0;
  if (keyed) {
    first = s.reserve_keys(times.size());
    chain = [&](std::size_t k) {
      s.schedule_keyed(times[k], first + k, [&, k] {
        if (k + 1 < times.size()) chain(k + 1);
        body(k);
      });
    };
    chain(0);
  } else {
    for (std::size_t k = 0; k < times.size(); ++k) {
      s.schedule(times[k], [&body, k] { body(k); });
    }
  }
  s.schedule(1.0, [&log] { log.push_back("after@1"); });
  s.schedule(2.0, [&log] { log.push_back("after@2"); });
  s.schedule(5.0, [&log] { log.push_back("after@5"); });
  s.run();
  return log;
}

TEST(Simulator, KeyedChainFiresLikeUpFrontScheduling) {
  Simulator eager;
  Simulator keyed;
  const std::vector<std::string> want = fire_order(false, eager);
  const std::vector<std::string> got = fire_order(true, keyed);
  EXPECT_EQ(got, want);
  ASSERT_EQ(want.size(), 19u);
  EXPECT_EQ(want[0], "before@1");
  EXPECT_EQ(want[1], "src0");
  EXPECT_EQ(want[2], "src1");
  EXPECT_EQ(want[3], "after@1");
  // Every counter but the calendar's size matches.
  EXPECT_EQ(keyed.scheduled_events(), eager.scheduled_events());
  EXPECT_EQ(keyed.executed_events(), eager.executed_events());
  EXPECT_EQ(keyed.cancelled_events(), eager.cancelled_events());
  EXPECT_LT(keyed.peak_pending_events(), eager.peak_pending_events());
}

TEST(Simulator, ScheduleKeyedRejectsUnreservedKeysAndPastTimes) {
  Simulator s;
  EXPECT_THROW(s.schedule_keyed(1.0, 0, [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule_keyed(1.0, 1, [] {}), std::invalid_argument);
  const std::uint64_t first = s.reserve_keys(2);
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(s.scheduled_events(), 2u);
  EXPECT_THROW(s.schedule_keyed(1.0, first + 2, [] {}),
               std::invalid_argument);
  s.schedule(4.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule_keyed(1.0, first, [] {}), std::invalid_argument);
  bool ran = false;
  s.schedule_keyed(4.0, first + 1, [&ran] { ran = true; });
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, PeakPendingEventsIsTheHighWaterMark) {
  Simulator s;
  EXPECT_EQ(s.peak_pending_events(), 0u);
  const EventId a = s.schedule(1.0, [] {});
  s.schedule(2.0, [] {});
  s.schedule(3.0, [] {});
  s.cancel(a);
  s.schedule(4.0, [] {});
  EXPECT_EQ(s.pending_events(), 3u);
  EXPECT_EQ(s.peak_pending_events(), 3u);
  s.schedule(5.0, [] {});
  s.run();
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.peak_pending_events(), 4u);
}

}  // namespace
}  // namespace hero::sim
