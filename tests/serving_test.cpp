// Tests for the serving cluster simulator: request lifecycle, continuous
// batching, KV-memory-gated admission, and metric accounting. Runs serve
// the instance as a fleet of one, the way every serving run does.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/heroserve.hpp"
#include "obs/trace.hpp"
#include "serving/kv_move.hpp"

namespace hero::serve {
namespace {

/// A ready-to-serve HeroServe deployment on the testbed.
struct ServeFixture {
  topo::Graph graph = topo::make_testbed();
  llm::ModelConfig model = llm::opt_66b();
  planner::PlanResult plan;
  sim::Simulator simulator;
  std::unique_ptr<net::FlowNetwork> network;
  std::unique_ptr<sw::SwitchRegistry> switches;
  std::unique_ptr<coll::CollectiveEngine> engine;
  std::unique_ptr<coll::CommScheduler> scheduler;

  explicit ServeFixture(bool hero = true) {
    planner::PlannerInputs in;
    in.graph = &graph;
    in.model = model;
    in.latency = &fitted_model(model);
    in.batch_q = 8;
    in.k_in = 2000;
    in.k_in2 = 600000;
    in.k_out = 1200;
    in.arrival_rate = 1.0;
    in.t_sla_prefill = 2.5;
    in.t_sla_decode = 0.15;
    in.heterogeneous = hero;
    plan = planner::OfflinePlanner(in).plan();
    EXPECT_TRUE(plan.feasible) << plan.infeasible_reason;

    network = std::make_unique<net::FlowNetwork>(simulator, graph);
    switches = std::make_unique<sw::SwitchRegistry>(simulator, graph);
    engine = std::make_unique<coll::CollectiveEngine>(*network, *switches);
    if (hero) {
      scheduler = std::make_unique<online::HeroCommScheduler>(*network);
    } else {
      scheduler = std::make_unique<baselines::StaticCommScheduler>(
          *network, baselines::BaselineKind::kDistServe);
    }
  }

  /// A one-instance fleet over this fixture's simulator and scheduler.
  FleetSim fleet(const ServingOptions& options) {
    return FleetSim(*network, *engine, *scheduler, FleetConfig{}, options);
  }

  ServingOptions options() const {
    ServingOptions opts;
    opts.model = model;
    opts.sla_ttft = 2.5;
    opts.sla_tpot = 0.15;
    return opts;
  }

  wl::Trace trace(double rate, std::size_t count,
                  std::uint64_t seed = 3) const {
    wl::TraceOptions w;
    w.rate = rate;
    w.count = count;
    w.lengths = wl::sharegpt_lengths();
    w.seed = seed;
    return wl::generate_trace(w);
  }
};

TEST(ClusterSim, AllRequestsCompleteAtLowRate) {
  ServeFixture f;
  FleetSim fleet = f.fleet(f.options());
  fleet.add_instance(f.plan);
  f.scheduler->start();
  const ServingReport report = fleet.run(f.trace(0.5, 20)).aggregate;
  EXPECT_EQ(report.submitted, 20u);
  EXPECT_EQ(report.completed, 20u);
  EXPECT_GT(report.makespan, 0.0);
  EXPECT_GT(report.requests_per_second, 0.0);
}

TEST(ClusterSim, MetricsAreConsistent) {
  ServeFixture f;
  FleetSim fleet = f.fleet(f.options());
  fleet.add_instance(f.plan);
  f.scheduler->start();
  const FleetReport fleet_report = fleet.run(f.trace(0.5, 15));
  const ServingReport& report = fleet_report.aggregate;
  EXPECT_EQ(report.ttft.count(), report.completed);
  EXPECT_GT(report.ttft.quantile(0.0), 0.0);   // TTFT strictly positive
  EXPECT_GT(report.tpot.quantile(0.0), 0.0);
  EXPECT_GE(report.sla_attainment, 0.0);
  EXPECT_LE(report.sla_attainment, 1.0);
  EXPECT_GE(report.kv_utilization_peak, report.kv_utilization_avg);
  EXPECT_LE(report.kv_utilization_peak, 1.0 + 1e-9);
  EXPECT_GT(fleet_report.collectives, 0u);
  EXPECT_EQ(report.gpus_used, f.plan.prefill.all_gpus().size() +
                                  f.plan.decode.all_gpus().size());
  EXPECT_NEAR(raw(report.per_gpu_goodput),
              raw(report.requests_per_second / report.gpus_used),
              1e-12);
}

TEST(ClusterSim, LowRateMeetsSla) {
  ServeFixture f;
  FleetSim fleet = f.fleet(f.options());
  fleet.add_instance(f.plan);
  f.scheduler->start();
  const ServingReport report = fleet.run(f.trace(0.3, 15)).aggregate;
  EXPECT_GE(report.sla_attainment, 0.9);
  EXPECT_LE(report.ttft.p90(), 2.5);
  EXPECT_LE(report.tpot.p90(), 0.15);
}

TEST(ClusterSim, OverloadDegradesTtftNotTpot) {
  // TTFT queues under overload; TPOT stays near the iteration time.
  ServeFixture lo;
  FleetSim flo = lo.fleet(lo.options());
  flo.add_instance(lo.plan);
  lo.scheduler->start();
  const ServingReport rlo = flo.run(lo.trace(0.3, 20)).aggregate;

  ServeFixture hi;
  FleetSim fhi = hi.fleet(hi.options());
  fhi.add_instance(hi.plan);
  hi.scheduler->start();
  const ServingReport rhi = fhi.run(hi.trace(25.0, 40)).aggregate;

  EXPECT_GT(rhi.ttft.p90(), 2.0 * rlo.ttft.p90());
  EXPECT_LT(rhi.tpot.p90(), 3.0 * rlo.tpot.p90());
  EXPECT_LT(rhi.sla_attainment, rlo.sla_attainment);
}

TEST(ClusterSim, KvMemoryGatesAdmission) {
  // Shrink decode memory to nearly nothing: requests must queue for KV
  // space, serialize through decode, and utilization must peak near 1.
  ServeFixture f;
  for (topo::NodeId id : f.plan.decode.all_gpus()) {
    const Bytes weights =
        f.model.param_bytes() / f.plan.decode.parallel.gpus();
    // Room for ~2 concurrent requests across the whole cluster.
    f.graph.node(id).gpu.memory_free =
        weights + 2.5 * f.model.kv_bytes_per_token() * 600 /
                      f.plan.decode.parallel.gpus();
  }
  FleetSim fleet = f.fleet(f.options());
  fleet.add_instance(f.plan);
  f.scheduler->start();
  const ServingReport report = fleet.run(f.trace(2.0, 12)).aggregate;
  EXPECT_EQ(report.completed, 12u);
  EXPECT_GT(report.kv_utilization_peak, 0.5);
}

TEST(ClusterSim, InfeasiblePlanRejected) {
  ServeFixture f;
  planner::PlanResult bad;
  bad.feasible = false;
  EXPECT_THROW(ClusterSim(*f.network, *f.engine, *f.scheduler, bad,
                          f.options()),
               std::invalid_argument);
}

TEST(ClusterSim, DeterministicForSeed) {
  auto run_once = [] {
    ServeFixture f;
    FleetSim fleet = f.fleet(f.options());
    fleet.add_instance(f.plan);
    f.scheduler->start();
    return fleet.run(f.trace(0.8, 15)).aggregate;
  };
  const ServingReport a = run_once();
  const ServingReport b = run_once();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(raw(a.makespan), raw(b.makespan));
  EXPECT_DOUBLE_EQ(a.ttft.p90(), b.ttft.p90());
}

TEST(ClusterSim, SingleTokenRequestsFinishWithoutDecode) {
  ServeFixture f;
  FleetSim fleet = f.fleet(f.options());
  fleet.add_instance(f.plan);
  f.scheduler->start();
  wl::Trace trace;
  for (std::uint64_t i = 0; i < 5; ++i) {
    trace.push_back(wl::Request{i, 0.1 * static_cast<double>(i), 256, 1});
  }
  const ServingReport report = fleet.run(trace).aggregate;
  EXPECT_EQ(report.completed, 5u);
  EXPECT_EQ(report.tpot.count(), 0u);  // no decode phase
  EXPECT_EQ(report.sla_attainment, 1.0);
}

TEST(ClusterSim, BaselineSchedulerAlsoServes) {
  ServeFixture f(/*hero=*/false);
  FleetSim fleet = f.fleet(f.options());
  fleet.add_instance(f.plan);
  const ServingReport report = fleet.run(f.trace(0.5, 10)).aggregate;
  EXPECT_EQ(report.completed, 10u);
}

// --- prefix/KV tier ---

TEST(ClusterSim, KvSnapshotReplacesAccessorTrio) {
  ServeFixture f;
  ClusterSim sim(*f.network, *f.engine, *f.scheduler, f.plan, f.options());
  const KvSnapshot kv = sim.kv();
  EXPECT_GT(kv.budget, 0.0);
  EXPECT_DOUBLE_EQ(raw(kv.used), 0.0);
  EXPECT_DOUBLE_EQ(raw(kv.cached), 0.0);
  EXPECT_DOUBLE_EQ(raw(kv.bytes_per_token), raw(f.model.kv_bytes_per_token()));
  EXPECT_DOUBLE_EQ(raw(kv.free()), raw(kv.budget));
  EXPECT_DOUBLE_EQ(raw(kv.bytes_for_tokens(100)),
                   100.0 * raw(kv.bytes_per_token));
  EXPECT_DOUBLE_EQ(kv.utilization(), 0.0);
}

TEST(ClusterSim, TierDisabledByDefault) {
  ServeFixture f;
  FleetSim fleet = f.fleet(f.options());
  ClusterSim& sim = fleet.add_instance(f.plan);
  EXPECT_FALSE(sim.prefix_enabled());
  EXPECT_EQ(sim.cached_prefix_tokens(7), 0u);
  const ServingReport report = fleet.run(f.trace(0.5, 8)).aggregate;
  EXPECT_EQ(report.completed, 8u);
  EXPECT_EQ(sim.prefix_stats().lookups, 0u);
}

TEST(ClusterSim, TierIsNoOpOnSessionlessTraces) {
  // Enabling the tier must not change a prefix-free run in any observable
  // way: same completions, bitwise-identical timings.
  auto run_once = [](std::size_t block_tokens) {
    ServeFixture f;
    ServingOptions opts = f.options();
    opts.prefix_block_tokens = block_tokens;
    FleetSim fleet = f.fleet(opts);
    fleet.add_instance(f.plan);
    f.scheduler->start();
    return fleet.run(f.trace(0.8, 15)).aggregate;
  };
  const ServingReport off = run_once(0);
  const ServingReport on = run_once(128);
  EXPECT_EQ(on.completed, off.completed);
  EXPECT_DOUBLE_EQ(raw(on.makespan), raw(off.makespan));
  EXPECT_DOUBLE_EQ(on.ttft.p90(), off.ttft.p90());
  EXPECT_DOUBLE_EQ(on.tpot.p90(), off.tpot.p90());
  EXPECT_DOUBLE_EQ(on.kv_utilization_avg, off.kv_utilization_avg);
}

wl::Trace multiturn_trace(std::size_t count, std::uint64_t seed = 5) {
  wl::MultiturnOptions mt;
  mt.base.rate = 0.6;
  mt.base.count = count;
  mt.base.lengths = wl::sharegpt_lengths();
  mt.base.seed = seed;
  mt.mean_turns = 4.0;
  mt.think_mean = 60.0;
  return wl::generate_multiturn_trace(mt);
}

TEST(ClusterSim, PrefixReuseSkipsPrefillWork) {
  ServeFixture f;
  ServingOptions opts = f.options();
  opts.prefix_block_tokens = 128;
  FleetSim fleet = f.fleet(opts);
  ClusterSim& sim = fleet.add_instance(f.plan);
  f.scheduler->start();
  const wl::Trace trace = multiturn_trace(30);
  const ServingReport report = fleet.run(trace).aggregate;
  EXPECT_EQ(report.completed, trace.size());
  const PrefixStats& stats = sim.prefix_stats();
  // Follow-up turns arrive after their session's previous turn retired and
  // published its context, so some must hit the local cache.
  EXPECT_GT(stats.lookups, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.reused_tokens, 0u);
  EXPECT_GT(stats.published_tokens, 0u);
  EXPECT_LE(stats.hits + stats.recomputes, stats.lookups);
}

TEST(ClusterSim, PrefixReuseImprovesTtftOnMultiturn) {
  auto run_once = [](std::size_t block_tokens) {
    ServeFixture f;
    ServingOptions opts = f.options();
    opts.prefix_block_tokens = block_tokens;
    FleetSim fleet = f.fleet(opts);
    fleet.add_instance(f.plan);
    f.scheduler->start();
    return fleet.run(multiturn_trace(30)).aggregate;
  };
  const ServingReport blind = run_once(0);
  const ServingReport reuse = run_once(128);
  EXPECT_EQ(reuse.completed, blind.completed);
  // Reused blocks skip prefill compute: mean TTFT cannot get worse and a
  // ~4-turn chat workload must show a real win.
  EXPECT_LT(reuse.ttft.mean(), blind.ttft.mean());
}

TEST(ClusterSim, RetirePrefixCacheDropsCoverage) {
  ServeFixture f;
  ServingOptions opts = f.options();
  opts.prefix_block_tokens = 128;
  FleetSim fleet = f.fleet(opts);
  ClusterSim& sim = fleet.add_instance(f.plan);
  f.scheduler->start();
  const ServingReport report = fleet.run(multiturn_trace(15)).aggregate;
  EXPECT_GT(report.completed, 0u);
  EXPECT_GT(raw(sim.kv().cached), 0.0);
  sim.retire_prefix_cache();
  EXPECT_DOUBLE_EQ(raw(sim.kv().cached), 0.0);
  // Adoption after retirement is refused.
  sim.adopt_prefix(12345, 256);
  EXPECT_EQ(sim.cached_prefix_tokens(12345), 0u);
}

// --- KV move (kv_move.hpp) -------------------------------------------

TEST(KvMove, SlowestShardIsTheLatestArrival) {
  net::PathEstimate fast, slow, starved;
  fast.fair_share = 10.0;
  fast.latency = 1.0;
  slow.fair_share = 5.0;
  slow.latency = 0.5;
  starved.fair_share = 0.0;
  // 100/10 + 1 = 11 and 100/5 + 0.5 = 20.5.
  EXPECT_DOUBLE_EQ(raw(slowest_shard({fast, slow}, 100.0)), 20.5);
  EXPECT_TRUE(std::isinf(raw(slowest_shard({fast, starved}, 100.0))));
  EXPECT_DOUBLE_EQ(raw(slowest_shard({}, 100.0)), 0.0);
}

TEST(KvMove, ShardsFollowThePlannerPairing) {
  using Shards = std::vector<KvShard>;
  EXPECT_EQ(kv_shards({0, 1, 2, 3}, {10, 11}),
            (Shards{{0, 10}, {1, 10}, {2, 11}, {3, 11}}));
  EXPECT_EQ(kv_shards({0, 1}, {10, 11, 12, 13}), (Shards{{0, 10}, {1, 12}}));
  EXPECT_TRUE(kv_shards({0, 1}, {}).empty());
}

TEST(KvMove, SendKvCallsDoneOnceAfterTheLastFlow) {
  const topo::Graph graph = topo::make_testbed();
  obs::EventTracer tracer;
  sim::Simulator simulator;
  simulator.attach(obs::Sink(&tracer, nullptr));
  net::FlowNetwork network(simulator, graph);
  baselines::StaticCommScheduler scheduler(
      network, baselines::BaselineKind::kDistServe);
  const std::vector<topo::NodeId> gpus = graph.gpus();
  const std::vector<KvShard> shards =
      kv_shards({gpus.begin(), gpus.begin() + 4},       // server w0
                {gpus.begin() + 8, gpus.begin() + 10});  // server w2

  std::size_t calls = 0;
  std::uint64_t landed = 0;
  EXPECT_EQ(send_kv(network, scheduler, shards, 64.0 * units::MB, [&] {
              ++calls;
              landed = tracer.count("kv", obs::Phase::kAsyncEnd);
            }),
            4u);
  EXPECT_EQ(calls, 0u);
  simulator.run();
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(landed, 4u);  // every shard had landed before done ran

  // Nothing to move: done runs before send_kv returns, no flow starts.
  const std::size_t events = tracer.event_count();
  EXPECT_EQ(send_kv(network, scheduler, shards, 0.0, [&] { ++calls; }), 0u);
  EXPECT_EQ(send_kv(network, scheduler, kv_shards({gpus[0]}, {}), 1.0,
                    [&] { ++calls; }),
            0u);
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(network.active_transfers(), 0u);
  EXPECT_EQ(tracer.event_count(), events);
}

}  // namespace
}  // namespace hero::serve
