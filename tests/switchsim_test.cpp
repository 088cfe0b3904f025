// Tests for the programmable-switch data plane (aggregator pool) and the
// admission/timing agent.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "switchsim/switch_agent.hpp"
#include "topology/builders.hpp"

namespace hero::sw {
namespace {

TEST(AggregatorPool, InstallContributeComplete) {
  AggregatorPool pool(4, 8);
  const AggregatorKey key{1, 0};
  ASSERT_TRUE(pool.install(key, 2));
  EXPECT_EQ(pool.slots_in_use(), 1u);

  std::vector<std::int32_t> v{1, 2, 3};
  EXPECT_EQ(pool.contribute(key, 0, v), ContributeResult::kAccepted);
  EXPECT_EQ(pool.contribute(key, 1, v), ContributeResult::kCompleted);
  const auto result = pool.read(key);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)[0], 2);
  EXPECT_EQ((*result)[2], 6);
  EXPECT_EQ((*result)[3], 0);  // zero padded
}

TEST(AggregatorPool, DuplicateContributionDropped) {
  AggregatorPool pool(4, 4);
  const AggregatorKey key{1, 0};
  pool.install(key, 2);
  std::vector<std::int32_t> v{5};
  pool.contribute(key, 0, v);
  EXPECT_EQ(pool.contribute(key, 0, v), ContributeResult::kDuplicate);
  EXPECT_EQ(pool.duplicates_dropped, 1u);
  EXPECT_EQ((*pool.read(key))[0], 5);  // not double counted
}

TEST(AggregatorPool, ExactMatchMissWhenNotInstalled) {
  AggregatorPool pool(4, 4);
  std::vector<std::int32_t> v{1};
  EXPECT_EQ(pool.contribute(AggregatorKey{9, 9}, 0, v),
            ContributeResult::kNoSlot);
  EXPECT_EQ(pool.packets_missed, 1u);
}

TEST(AggregatorPool, PoolExhaustion) {
  AggregatorPool pool(2, 4);
  EXPECT_TRUE(pool.install(AggregatorKey{1, 0}, 2));
  EXPECT_TRUE(pool.install(AggregatorKey{1, 1}, 2));
  EXPECT_FALSE(pool.install(AggregatorKey{1, 2}, 2));
  pool.recycle(AggregatorKey{1, 0});
  EXPECT_TRUE(pool.install(AggregatorKey{1, 2}, 2));
}

TEST(AggregatorPool, InstallIsIdempotent) {
  AggregatorPool pool(1, 4);
  EXPECT_TRUE(pool.install(AggregatorKey{1, 0}, 2));
  EXPECT_TRUE(pool.install(AggregatorKey{1, 0}, 2));
  EXPECT_EQ(pool.slots_in_use(), 1u);
}

TEST(AggregatorPool, ValidatesArguments) {
  AggregatorPool pool(2, 4);
  EXPECT_THROW(pool.install(AggregatorKey{1, 0}, 0), std::invalid_argument);
  pool.install(AggregatorKey{1, 0}, 2);
  std::vector<std::int32_t> wide(5, 0);
  EXPECT_THROW(pool.contribute(AggregatorKey{1, 0}, 0, wide),
               std::invalid_argument);
  std::vector<std::int32_t> v{1};
  EXPECT_THROW(pool.contribute(AggregatorKey{1, 0}, 7, v),
               std::invalid_argument);
  EXPECT_THROW(AggregatorPool(0, 4), std::invalid_argument);
}

TEST(AggregatorPool, FixedPointAggregationMatchesFloats) {
  // End-to-end data-plane arithmetic: 3 workers' float vectors aggregated
  // in fixed point equal the float sum within quantization error.
  AggregatorPool pool(4, 16);
  const AggregatorKey key{7, 3};
  pool.install(key, 3);
  Rng rng(5);
  std::vector<std::vector<double>> contributions(3);
  std::vector<double> expected(16, 0.0);
  for (WorkerId w = 0; w < 3; ++w) {
    contributions[w].resize(16);
    for (std::size_t i = 0; i < 16; ++i) {
      contributions[w][i] = rng.uniform(-10.0, 10.0);
      expected[i] += contributions[w][i];
    }
    pool.contribute(key, w, encode_vector(contributions[w], pool.format()));
  }
  const auto decoded = pool.read_decoded(key);
  ASSERT_TRUE(decoded.has_value());
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR((*decoded)[i], expected[i], 3.0 / pool.format().scale());
  }
}

TEST(AggregatorPool, ReadMissingReturnsNullopt) {
  AggregatorPool pool(2, 4);
  EXPECT_FALSE(pool.read(AggregatorKey{1, 1}).has_value());
  EXPECT_FALSE(pool.read_decoded(AggregatorKey{1, 1}).has_value());
}

// --- SwitchAgent ---

struct AgentFixture {
  sim::Simulator sim;
  SwitchAgent agent{sim, 0, /*total_slots=*/64};
};

TEST(SwitchAgent, GrantWithinCapacity) {
  AgentFixture f;
  bool granted = false;
  EXPECT_EQ(f.agent.reserve(1, 32, true, [&] { granted = true; }),
            Admission::kGranted);
  EXPECT_FALSE(granted);  // grant callback is asynchronous
  f.sim.run();
  EXPECT_TRUE(granted);
  EXPECT_EQ(f.agent.slots_in_use(), 32u);
}

TEST(SwitchAgent, SynchronousQueuesWhenFull) {
  AgentFixture f;
  f.agent.reserve(1, 48, true, nullptr);
  bool granted = false;
  EXPECT_EQ(f.agent.reserve(2, 48, true, [&] { granted = true; }),
            Admission::kQueued);
  f.sim.run();
  EXPECT_FALSE(granted);
  EXPECT_EQ(f.agent.queue_depth(), 1u);
  f.agent.release(1);
  f.sim.run();
  EXPECT_TRUE(granted);
  EXPECT_EQ(f.agent.slots_in_use(), 48u);
}

TEST(SwitchAgent, AsynchronousRejectsWhenFull) {
  AgentFixture f;
  f.agent.reserve(1, 64, true, nullptr);
  EXPECT_EQ(f.agent.reserve(2, 1, false, nullptr), Admission::kRejected);
  EXPECT_EQ(f.agent.jobs_rejected, 1u);
}

TEST(SwitchAgent, FifoAdmissionFromQueue) {
  AgentFixture f;
  f.agent.reserve(1, 64, true, nullptr);
  std::vector<int> order;
  f.agent.reserve(2, 32, true, [&] { order.push_back(2); });
  f.agent.reserve(3, 32, true, [&] { order.push_back(3); });
  f.agent.release(1);
  f.sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(SwitchAgent, QueueBlocksLaterArrivalsEvenIfTheyFit) {
  // FIFO: a small job behind a large queued job must not jump the queue.
  AgentFixture f;
  f.agent.reserve(1, 60, true, nullptr);
  bool small_granted = false;
  f.agent.reserve(2, 64, true, nullptr);             // queued
  EXPECT_EQ(f.agent.reserve(3, 2, true, [&] { small_granted = true; }),
            Admission::kQueued);
  f.sim.run();
  EXPECT_FALSE(small_granted);
}

TEST(SwitchAgent, AbandonRemovesQueuedJob) {
  AgentFixture f;
  f.agent.reserve(1, 64, true, nullptr);
  bool granted = false;
  f.agent.reserve(2, 8, true, [&] { granted = true; });
  f.agent.abandon(2);
  f.agent.release(1);
  f.sim.run();
  EXPECT_FALSE(granted);
  EXPECT_EQ(f.agent.queue_depth(), 0u);
}

TEST(SwitchAgent, ReleaseUnknownIsNoop) {
  AgentFixture f;
  f.agent.release(42);
  EXPECT_EQ(f.agent.slots_in_use(), 0u);
}

TEST(SwitchAgent, OversizedRequestClampsToPool) {
  AgentFixture f;
  EXPECT_EQ(f.agent.reserve(1, 1000, true, nullptr), Admission::kGranted);
  EXPECT_EQ(f.agent.slots_in_use(), 64u);
}

TEST(SwitchAgent, DoubleReserveThrows) {
  AgentFixture f;
  f.agent.reserve(1, 8, true, nullptr);
  EXPECT_THROW(f.agent.reserve(1, 8, true, nullptr), std::logic_error);
}

TEST(SwitchAgent, CountersTrackAdmissions) {
  AgentFixture f;
  f.agent.reserve(1, 64, true, nullptr);
  f.agent.reserve(2, 8, true, nullptr);
  f.agent.reserve(3, 8, false, nullptr);
  EXPECT_EQ(f.agent.jobs_granted, 1u);
  EXPECT_EQ(f.agent.jobs_queued, 1u);
  EXPECT_EQ(f.agent.jobs_rejected, 1u);
}

TEST(SwitchRegistry, BuildsAgentsFromTopology) {
  sim::Simulator sim;
  const topo::Graph g = topo::make_testbed();
  SwitchRegistry registry(sim, g);
  SwitchAgent& a = registry.agent(g.find("sw0"));
  EXPECT_EQ(a.slots_total(), 128u);
  // Same node returns the same agent.
  EXPECT_EQ(&registry.agent(g.find("sw0")), &a);
}

TEST(SwitchRegistry, RejectsNonSwitchNodes) {
  sim::Simulator sim;
  const topo::Graph g = topo::make_testbed();
  SwitchRegistry registry(sim, g);
  EXPECT_THROW(static_cast<void>(registry.agent(g.gpus()[0])),
               std::invalid_argument);
}

}  // namespace
}  // namespace hero::sw
