// Tests for collective cost models (Eq. 8-11) and the execution engine:
// ring, INA (sync/async with fallback), and hierarchical all-reduce.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "collectives/engine.hpp"
#include "common/format.hpp"
#include "netsim/flownet.hpp"
#include "obs/metrics.hpp"
#include "topology/builders.hpp"

namespace hero::coll {
namespace {

using topo::GpuModel;
using topo::LinkKind;
using topo::NodeId;
using topo::NodeKind;

struct Fixture {
  topo::Graph graph;
  sim::Simulator simulator;
  std::unique_ptr<net::FlowNetwork> network;
  std::unique_ptr<sw::SwitchRegistry> switches;
  std::unique_ptr<CollectiveEngine> engine;

  topo::Routes hetero_routes{graph};
  topo::Routes ethernet_routes{
      graph, topo::PathOptions{.constraints = {.allow_nvlink = false}}};

  explicit Fixture(topo::Graph g, EngineConfig cfg = {})
      : graph(std::move(g)) {
    network = std::make_unique<net::FlowNetwork>(simulator, graph);
    switches = std::make_unique<sw::SwitchRegistry>(simulator, graph);
    engine = std::make_unique<CollectiveEngine>(*network, *switches, cfg);
  }

  Router router(bool nvlink = true) const {
    return shortest_path_router(nvlink ? hetero_routes : ethernet_routes);
  }
};

/// Star: n GPUs on one access switch, optional PS.
topo::Graph star_graph(int n, bool with_ps = false, int agg_slots = 64) {
  topo::Graph g;
  const NodeId sw = g.add_switch("sw", NodeKind::kAccessSwitch, agg_slots);
  for (int i = 0; i < n; ++i) {
    const NodeId gpu = g.add_gpu(strfmt("g{}", i), GpuModel::kA100_40,
                                 40 * units::GB, i);
    g.add_edge(gpu, sw, LinkKind::kEthernet, 100 * units::Gbps, 0.0);
  }
  if (with_ps) {
    const NodeId ps = g.add_server("ps");
    g.add_edge(ps, sw, LinkKind::kEthernet, 100 * units::Gbps, 0.0);
  }
  return g;
}

// --- cost models ---

TEST(CostModel, RingFormulaEq11) {
  // 2 (P-1) * (V/P) / B.
  const Time t = ring_all_reduce_latency(4, 8.0 * units::MB,
                                         100.0 * units::Gbps);
  EXPECT_NEAR(raw(t), raw(2.0 * 3.0 * (2.0 * units::MB / (12.5e9))), 1e-12);
}

TEST(CostModel, RingDegenerateCases) {
  EXPECT_DOUBLE_EQ(raw(ring_all_reduce_latency(1, 1e6, 1e9)), raw(0.0));
  EXPECT_DOUBLE_EQ(raw(ring_all_reduce_latency(4, 0.0, 1e9)), raw(0.0));
  EXPECT_TRUE(std::isinf(raw(ring_all_reduce_latency(4, 1e6, 0.0))));
}

TEST(CostModel, RingOnRoutesUsesWorstNeighbor) {
  const topo::Graph g = star_graph(3);
  const topo::Routes routes(g);
  // Each neighbor route is 2 hops; chunk = V/3; steps = 4.
  const Bytes v = 3.0 * units::MB;
  const Time t = ring_all_reduce_latency_on_routes(routes, g.gpus(), v);
  EXPECT_NEAR(raw(t), raw(4.0 * 2.0 * (units::MB / 12.5e9)), 1e-9);
}

TEST(CostModel, InaOnRoutesEq8) {
  const topo::Graph g = star_graph(3);
  const topo::Routes routes(g);
  const NodeId sw = g.find("sw");
  // One GPU per server: every member streams the full volume.
  const auto groups = g.split_by_server(g.gpus());
  CostConfig cfg;
  const Time t = ina_all_reduce_latency_on_routes(routes, groups, sw,
                                                  1.0 * units::MB, cfg);
  // 1 hop up (80us) + 1us agg + 1 hop down (80us).
  EXPECT_NEAR(raw(t), raw(161.0 * units::us), 1e-9);
}

TEST(CostModel, InaOnRoutesShardsByGroup) {
  const topo::Graph g = star_graph(3);
  const topo::Routes routes(g);
  // One group of three: every member streams a third of the volume.
  const std::vector<std::vector<NodeId>> groups = {g.gpus()};
  const Time t = ina_all_reduce_latency_on_routes(
      routes, groups, g.find("sw"), 3.0 * units::MB);
  EXPECT_NEAR(raw(t), raw(161.0 * units::us), 1e-9);
}

TEST(CostModel, HierarchicalAddsLocalAndBroadcast) {
  const std::vector<std::vector<NodeId>> groups = {{0, 1, 2, 3}, {4, 5}};
  const Time wide = 100.0 * units::us;
  const Time t = hierarchical_latency(4.0 * units::MB, groups,
                                      600.0 * units::GBps, wide);
  // local ring (4 GPUs): 6 * 1MB / 600GBps = 10us; bcast 4MB/600GBps ~ 6.7us
  EXPECT_GT(t, wide);
  EXPECT_LT(t, wide + 20.0 * units::us);
}

/// Eq. 11 consistency between the closed form and the DES ring executor.
class RingSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(RingSizeTest, EngineMatchesClosedForm) {
  const int p = GetParam();
  Fixture f(star_graph(p));
  const Bytes volume = 4.0 * units::MB;
  AllReducePlan plan = make_ring_plan(f.graph.gpus(), volume, f.router());

  Time done = -1;
  f.engine->all_reduce(std::move(plan), [&](const AllReduceResult& r) {
    done = r.end;
  });
  f.simulator.run();
  // Every ring hop crosses the shared star switch: at any step, each of the
  // p uplinks carries one chunk up and one down; per-link both directions
  // are independent, so a step costs 2 hops of chunk serialization.
  const Time expected =
      2.0 * (p - 1) * 2.0 * (volume / p / (100.0 * units::Gbps / 8 * 8));
  EXPECT_NEAR(raw(done), raw(expected), raw(expected * 0.05 + 2e-6));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingSizeTest, ::testing::Values(2, 3, 4, 8));

// --- engine: INA ---

TEST(Engine, InaSyncPhases) {
  Fixture f(star_graph(3));
  AllReducePlan plan = make_ina_plan(f.graph.gpus(), 1.0 * units::MB,
                                     f.graph.find("sw"), Scheme::kInaSync,
                                     f.router());
  AllReduceResult result;
  bool done = false;
  f.engine->all_reduce(std::move(plan), [&](const AllReduceResult& r) {
    result = r;
    done = true;
  });
  f.simulator.run();
  ASSERT_TRUE(done);
  // Collection: all three 1MB flows in parallel on separate uplinks: 80us.
  EXPECT_NEAR(raw(result.collected - result.start),
              raw(80.0 * units::us),
              raw(1.0 * units::us));
  // Distribution adds agg (1us) + 80us.
  EXPECT_NEAR(raw(result.end - result.start),
              raw(161.0 * units::us),
              raw(2.0 * units::us));
  EXPECT_FALSE(result.used_fallback);
}

TEST(Engine, InaReleasesSlotsAfterOp) {
  Fixture f(star_graph(3));
  AllReducePlan plan = make_ina_plan(f.graph.gpus(), 1.0 * units::MB,
                                     f.graph.find("sw"), Scheme::kInaSync,
                                     f.router());
  f.engine->all_reduce(std::move(plan), nullptr);
  f.simulator.run();
  EXPECT_EQ(f.switches->agent(f.graph.find("sw")).slots_in_use(), 0u);
}

TEST(Engine, InaSyncQueuesUnderSlotPressure) {
  // Pool of 40 slots, jobs of 32: second job waits for the first.
  Fixture f(star_graph(4, false, 40));
  const auto gpus = f.graph.gpus();
  std::vector<NodeId> g1{gpus[0], gpus[1]}, g2{gpus[2], gpus[3]};
  Time done1 = -1, done2 = -1;
  f.engine->all_reduce(
      make_ina_plan(g1, 1.0 * units::MB, f.graph.find("sw"),
                    Scheme::kInaSync, f.router(), topo::kInvalidNode,
                    /*slots=*/32),
      [&](const AllReduceResult& r) { done1 = r.end; });
  f.engine->all_reduce(
      make_ina_plan(g2, 1.0 * units::MB, f.graph.find("sw"),
                    Scheme::kInaSync, f.router(), topo::kInvalidNode,
                    /*slots=*/32),
      [&](const AllReduceResult& r) { done2 = r.end; });
  f.simulator.run();
  ASSERT_GT(done1, 0);
  ASSERT_GT(done2, 0);
  // Serialized: second op roughly doubles.
  EXPECT_GT(done2, done1 + 100.0 * units::us);
}

TEST(Engine, InaAsyncFallsBackToPs) {
  Fixture f(star_graph(4, /*with_ps=*/true, /*agg_slots=*/40));
  const auto gpus = f.graph.gpus();
  std::vector<NodeId> g1{gpus[0], gpus[1]}, g2{gpus[2], gpus[3]};
  const NodeId ps = f.graph.find("ps");
  AllReduceResult r1, r2;
  f.engine->all_reduce(
      make_ina_plan(g1, 1.0 * units::MB, f.graph.find("sw"),
                    Scheme::kInaAsync, f.router(), ps, /*slots=*/32),
      [&](const AllReduceResult& r) { r1 = r; });
  f.engine->all_reduce(
      make_ina_plan(g2, 1.0 * units::MB, f.graph.find("sw"),
                    Scheme::kInaAsync, f.router(), ps, /*slots=*/32),
      [&](const AllReduceResult& r) { r2 = r; });
  f.simulator.run();
  EXPECT_FALSE(r1.used_fallback);
  EXPECT_TRUE(r2.used_fallback);
  EXPECT_EQ(f.engine->fallbacks_taken, 1u);
  // The fallback path crosses two hops (gpu->sw->ps) plus host aggregation,
  // so it is strictly slower than in-switch aggregation.
  EXPECT_GT(r2.end - r2.start, r1.end - r1.start);
}

TEST(Engine, InaAsyncWithoutFallbackThrowsOnRejection) {
  Fixture f(star_graph(4, false, 40));
  const auto gpus = f.graph.gpus();
  f.engine->all_reduce(
      make_ina_plan({gpus[0], gpus[1]}, 1.0 * units::MB, f.graph.find("sw"),
                    Scheme::kInaAsync, f.router(), topo::kInvalidNode,
                    /*slots=*/32),
      nullptr);
  EXPECT_THROW(
      f.engine->all_reduce(
          make_ina_plan({gpus[2], gpus[3]}, 1.0 * units::MB,
                        f.graph.find("sw"), Scheme::kInaAsync, f.router(),
                        topo::kInvalidNode, /*slots=*/32),
          nullptr),
      std::invalid_argument);
}

// --- engine: hierarchical ---

TEST(Engine, HierarchicalGroupsByServer) {
  const topo::Graph g = topo::make_testbed();
  const auto by_server = g.gpus_by_server();
  std::vector<NodeId> members;
  members.insert(members.end(), by_server[0].begin(), by_server[0].end());
  members.insert(members.end(), by_server[1].begin(), by_server[1].end());
  const topo::Routes routes(g);
  const Router route = shortest_path_router(routes);
  const AllReducePlan plan =
      make_hierarchical_plan(g, members, 1.0 * units::MB, Scheme::kRing,
                             route);
  ASSERT_EQ(plan.local_groups.size(), 2u);
  EXPECT_EQ(plan.local_groups[0].size(), 4u);
  EXPECT_EQ(plan.wide_members.size(), 2u);
  // Leaders come one per server.
  EXPECT_NE(g.node(plan.wide_members[0]).gpu.server,
            g.node(plan.wide_members[1]).gpu.server);
}

TEST(Engine, HierarchicalFasterThanFlatOnTestbed) {
  // 8 GPUs across 2 servers: NVLink-local reduction + 2-leader Ethernet
  // exchange beats an 8-member Ethernet ring.
  const topo::Graph g = topo::make_testbed();
  const auto by_server = g.gpus_by_server();
  std::vector<NodeId> members;
  members.insert(members.end(), by_server[0].begin(), by_server[0].end());
  members.insert(members.end(), by_server[1].begin(), by_server[1].end());

  Time hier_done = -1, flat_done = -1;
  {
    Fixture f(g);
    f.engine->all_reduce(
        make_hierarchical_plan(f.graph, members, 16.0 * units::MB,
                               Scheme::kRing, f.router()),
        [&](const AllReduceResult& r) { hier_done = r.latency(); });
    f.simulator.run();
  }
  {
    Fixture f(g);
    f.engine->all_reduce(
        make_ring_plan(members, 16.0 * units::MB, f.router(false)),
        [&](const AllReduceResult& r) { flat_done = r.latency(); });
    f.simulator.run();
  }
  ASSERT_GT(hier_done, 0);
  ASSERT_GT(flat_done, 0);
  EXPECT_LT(hier_done, flat_done);
}

TEST(Engine, HierarchicalInaIsSharded) {
  // SwitchML sharding: the INA wide phase carries every member with a 1/g
  // payload fraction, not just per-server leaders with full payloads.
  const topo::Graph g = topo::make_testbed();
  const auto by_server = g.gpus_by_server();
  std::vector<NodeId> members;
  members.insert(members.end(), by_server[0].begin(), by_server[0].end());
  members.insert(members.end(), by_server[1].begin(), by_server[1].end());
  const topo::Routes routes(g);
  const Router route = shortest_path_router(routes);
  const auto ranked = rank_aggregation_switches(routes, members, 1);
  const AllReducePlan plan = make_hierarchical_plan(
      g, members, 8.0 * units::MB, Scheme::kInaSync, route, ranked.front());
  ASSERT_EQ(plan.wide_members.size(), 8u);
  ASSERT_EQ(plan.wide_scale.size(), 8u);
  for (double scale : plan.wide_scale) EXPECT_DOUBLE_EQ(scale, 0.25);
  EXPECT_EQ(plan.up_paths.size(), 8u);
}

TEST(Engine, ShardedInaFasterThanLeaderSizedTraffic) {
  // The sharded wide phase moves V/4 per NIC over 8 NICs instead of V per
  // leader over 2 NICs: roughly 4x less serialization on the bottleneck.
  const topo::Graph g = topo::make_testbed();
  const auto by_server = g.gpus_by_server();
  std::vector<NodeId> members;
  members.insert(members.end(), by_server[0].begin(), by_server[0].end());
  members.insert(members.end(), by_server[1].begin(), by_server[1].end());

  Fixture f(g);
  const auto ranked = rank_aggregation_switches(f.hetero_routes, members, 1);
  Time sharded = -1;
  f.engine->all_reduce(
      make_hierarchical_plan(f.graph, members, 32.0 * units::MB,
                             Scheme::kInaSync, f.router(), ranked.front()),
      [&](const AllReduceResult& r) { sharded = r.latency(); });
  f.simulator.run();

  Fixture f2(g);
  Time flat = -1;
  f2.engine->all_reduce(
      make_ina_plan(members, 32.0 * units::MB, ranked.front(),
                    Scheme::kInaSync, f2.router()),
      [&](const AllReduceResult& r) { flat = r.latency(); });
  f2.simulator.run();

  ASSERT_GT(sharded, 0);
  ASSERT_GT(flat, 0);
  EXPECT_LT(sharded, 0.6 * flat);
}

TEST(Engine, SingleMemberCompletesImmediately) {
  Fixture f(star_graph(2));
  bool done = false;
  f.engine->all_reduce(
      make_ring_plan({f.graph.gpus()[0]}, 1.0 * units::MB, f.router()),
      [&](const AllReduceResult&) { done = true; });
  f.simulator.run();
  EXPECT_TRUE(done);
}

TEST(Engine, OpsCompletedCounter) {
  Fixture f(star_graph(3));
  for (int i = 0; i < 3; ++i) {
    f.engine->all_reduce(
        make_ring_plan(f.graph.gpus(), 1.0 * units::MB, f.router()),
        nullptr);
  }
  f.simulator.run();
  EXPECT_EQ(f.engine->ops_completed, 3u);
}

// --- engine: exact schedules ---
//
// Every phase stamp bit for bit, plus the simulator's event counts and the
// flows started, for each plan shape the engine runs. The EXPECT_NEAR tests
// above cannot see two flows start in the other order or a zero-delay
// event go missing; these can. The hex floats were recorded from the
// engine that wrote each phase barrier out by hand.

struct ExactOp {
  double start, wide_start, collected, end;
  bool used_fallback;
};

struct ExactRun {
  std::vector<ExactOp> ops;
  std::uint64_t scheduled, executed, flows;
};

std::string describe(const ExactRun& run) {
  std::ostringstream os;
  os << std::hexfloat << "{{";
  for (const ExactOp& op : run.ops) {
    os << "{" << op.start << ", " << op.wide_start << ", " << op.collected
       << ", " << op.end << ", " << (op.used_fallback ? "true" : "false")
       << "}, ";
  }
  os << "}, " << std::dec << run.scheduled << ", " << run.executed << ", "
     << run.flows << "}";
  return os.str();
}

/// Runs `plans` concurrently from t = 0 on a fresh fixture and compares
/// the outcome with `want` exactly.
void expect_exact(Fixture& f, std::vector<AllReducePlan> plans,
                  const ExactRun& want) {
  obs::MetricsRegistry metrics;
  f.simulator.attach(obs::Sink(nullptr, &metrics));
  ExactRun got{std::vector<ExactOp>(plans.size()), 0, 0, 0};
  for (std::size_t i = 0; i < plans.size(); ++i) {
    f.engine->all_reduce(std::move(plans[i]),
                         [&got, i](const AllReduceResult& r) {
                           got.ops[i] = {raw(r.start), raw(r.wide_start),
                                         raw(r.collected), raw(r.end),
                                         r.used_fallback};
                         });
  }
  f.simulator.run();
  f.simulator.attach(obs::Sink());
  got.scheduled = f.simulator.scheduled_events();
  got.executed = f.simulator.executed_events();
  got.flows = metrics.counter("net.transfers").value();
  EXPECT_EQ(f.engine->ops_completed, plans.size());

  SCOPED_TRACE("got " + describe(got));
  ASSERT_EQ(got.ops.size(), want.ops.size());
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::size_t i = 0; i < want.ops.size(); ++i) {
    EXPECT_EQ(bits(got.ops[i].start), bits(want.ops[i].start)) << "op " << i;
    EXPECT_EQ(bits(got.ops[i].wide_start), bits(want.ops[i].wide_start))
        << "op " << i;
    EXPECT_EQ(bits(got.ops[i].collected), bits(want.ops[i].collected))
        << "op " << i;
    EXPECT_EQ(bits(got.ops[i].end), bits(want.ops[i].end)) << "op " << i;
    EXPECT_EQ(got.ops[i].used_fallback, want.ops[i].used_fallback)
        << "op " << i;
  }
  EXPECT_EQ(got.scheduled, want.scheduled);
  EXPECT_EQ(got.executed, want.executed);
  EXPECT_EQ(got.flows, want.flows);
}

/// The testbed's GPUs of servers `servers`, `per_server` from each.
std::vector<NodeId> testbed_members(const topo::Graph& g,
                                    std::initializer_list<int> servers,
                                    std::size_t per_server = 4) {
  const auto by_server = g.gpus_by_server();
  std::vector<NodeId> members;
  for (int s : servers) {
    const auto& gpus = by_server[static_cast<std::size_t>(s)];
    members.insert(members.end(), gpus.begin(),
                   gpus.begin() + static_cast<std::ptrdiff_t>(per_server));
  }
  return members;
}

TEST(EngineExact, FlatRing) {
  Fixture f(star_graph(4));
  std::vector<AllReducePlan> plans;
  plans.push_back(
      make_ring_plan(f.graph.gpus(), 4.0 * units::MB, f.router()));
  expect_exact(f, std::move(plans),
               {{{0x0p+0, 0x0p+0, 0x1.f75104d551d69p-11,
                  0x1.f75104d551d69p-11, false}},
                96, 96, 24});
}

TEST(EngineExact, FlatInaSync) {
  Fixture f(star_graph(3));
  std::vector<AllReducePlan> plans;
  plans.push_back(make_ina_plan(f.graph.gpus(), 1.0 * units::MB,
                                f.graph.find("sw"), Scheme::kInaSync,
                                f.router()));
  expect_exact(f, std::move(plans),
               {{{0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-14,
                  0x1.51a437824d4ccp-13, false}},
                14, 14, 6});
}

TEST(EngineExact, FlatInaAsyncFallsBackToHost) {
  // 40 slots, jobs of 32: the second reservation is rejected.
  Fixture f(star_graph(4, /*with_ps=*/true, /*agg_slots=*/40));
  const auto gpus = f.graph.gpus();
  std::vector<AllReducePlan> plans;
  for (std::size_t first : {0u, 2u}) {
    plans.push_back(make_ina_plan({gpus[first], gpus[first + 1]},
                                  1.0 * units::MB, f.graph.find("sw"),
                                  Scheme::kInaAsync, f.router(),
                                  f.graph.find("ps"), /*slots=*/32));
  }
  expect_exact(f, std::move(plans),
               {{{0x0p+0, 0x0p+0, 0x1.4f8b588e368f1p-14,
                  0x1.51a437824d4ccp-13, false},
                 {0x0p+0, 0x0p+0, 0x1.f75104d551d6ap-13,
                  0x1.10a137f38c544p-11, true}},
                31, 27, 8});
}

TEST(EngineExact, HierarchicalRing) {
  Fixture f(topo::make_testbed());
  std::vector<AllReducePlan> plans;
  plans.push_back(make_hierarchical_plan(
      f.graph, testbed_members(f.graph, {0, 1}), 16.0 * units::MB,
      Scheme::kRing, f.router()));
  expect_exact(f, std::move(plans),
               {{{0x0p+0, 0x1.68b5cbff47736p-15, 0x1.55b4677b395c5p-9,
                  0x1.5943f75efff91p-9, false}},
                124, 124, 58});
}

TEST(EngineExact, HierarchicalShardedIna) {
  Fixture f(topo::make_testbed());
  const auto members = testbed_members(f.graph, {0, 1});
  const auto ranked = rank_aggregation_switches(f.hetero_routes, members, 1);
  std::vector<AllReducePlan> plans;
  plans.push_back(make_hierarchical_plan(f.graph, members, 8.0 * units::MB,
                                         Scheme::kInaSync, f.router(),
                                         ranked.front()));
  expect_exact(f, std::move(plans),
               {{{0x0p+0, 0x1.81e03f705857bp-16, 0x1.083dbc23315d7p-11,
                  0x1.071aee09a50c1p-10, false}},
                182, 158, 70});
}

TEST(EngineExact, HierarchicalAsyncInaFallsBackToHost) {
  // Both jobs ask for the whole pool of sw0: the second falls back to the
  // PS host, with the local groups on both sides of its wide phase.
  Fixture f(topo::make_testbed());
  const NodeId sw0 = f.graph.find("sw0");
  const auto slots =
      static_cast<std::uint32_t>(f.graph.node(sw0).agg_slots);
  std::vector<AllReducePlan> plans;
  for (int first : {0, 2}) {
    plans.push_back(make_hierarchical_plan(
        f.graph, testbed_members(f.graph, {first, first + 1}),
        8.0 * units::MB, Scheme::kInaAsync, f.router(), sw0,
        f.graph.find("ps"), slots));
  }
  expect_exact(f, std::move(plans),
               {{{0x0p+0, 0x1.81e03f705857bp-16, 0x1.083dbc23315d7p-11,
                  0x1.071aee09a50c1p-10, false},
                 {0x0p+0, 0x1.81e03f705857bp-16, 0x1.b089a02752547p-11,
                  0x1.7ed6e749976a7p-9, true}},
                403, 331, 140});
}

TEST(EngineExact, SingleMember) {
  // Flat and hierarchical plans of one GPU finish inside all_reduce: no
  // event, no flow.
  Fixture f(topo::make_testbed());
  const auto member = testbed_members(f.graph, {0}, 1);
  std::vector<AllReducePlan> plans;
  plans.push_back(make_ring_plan(member, 1.0 * units::MB, f.router()));
  plans.push_back(make_hierarchical_plan(f.graph, member, 1.0 * units::MB,
                                         Scheme::kRing, f.router()));
  expect_exact(f, std::move(plans),
               {{{0x0p+0, 0x0p+0, 0x0p+0,
                  0x0p+0, false},
                 {0x0p+0, 0x0p+0, 0x0p+0,
                  0x0p+0, false}},
                0, 0, 0});
}

TEST(EngineExact, OneGpuGroupsSkipTheLocalPhases) {
  // One GPU per server, then a 4-GPU group beside a one-GPU group.
  Fixture f(topo::make_testbed());
  std::vector<AllReducePlan> plans;
  plans.push_back(make_hierarchical_plan(
      f.graph, testbed_members(f.graph, {0, 1}, 1), 4.0 * units::MB,
      Scheme::kRing, f.router()));
  auto mixed = testbed_members(f.graph, {2});
  mixed.push_back(testbed_members(f.graph, {3}, 1).front());
  plans.push_back(make_hierarchical_plan(f.graph, mixed, 4.0 * units::MB,
                                         Scheme::kRing, f.router()));
  expect_exact(f, std::move(plans),
               {{{0x0p+0, 0x0p+0, 0x1.51a437824d4ccp-11,
                  0x1.51a437824d4ccp-11, false},
                 {0x0p+0, 0x1.b43526527a207p-17, 0x1.58750c1b97354p-11,
                  0x1.5c36f0e63ff3cp-11, false}},
                86, 86, 35});
}

TEST(EngineExact, ZeroBytesHierarchicalRing) {
  // Every ring degenerates and every broadcast flow is empty.
  Fixture f(topo::make_testbed());
  std::vector<AllReducePlan> plans;
  plans.push_back(make_hierarchical_plan(
      f.graph, testbed_members(f.graph, {0, 1}), 0.0, Scheme::kRing,
      f.router()));
  expect_exact(f, std::move(plans),
               {{{0x0p+0, 0x0p+0, 0x0p+0,
                  0x0p+0, false}},
                9, 9, 0});
}

// --- plan builders ---

TEST(PlanBuilders, RingPathsConnectSuccessiveMembers) {
  const topo::Graph g = star_graph(4);
  const AllReducePlan plan =
      make_ring_plan(g.gpus(), 1.0, shortest_path_router(topo::Routes(g)));
  ASSERT_EQ(plan.ring_paths.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(plan.ring_paths[i].src(), plan.wide_members[i]);
    EXPECT_EQ(plan.ring_paths[i].dst(), plan.wide_members[(i + 1) % 4]);
  }
}

TEST(PlanBuilders, InaPlanValidation) {
  const topo::Graph g = star_graph(2);
  EXPECT_THROW(make_ina_plan(g.gpus(), 1.0, g.find("sw"), Scheme::kRing,
                             shortest_path_router(topo::Routes(g))),
               std::invalid_argument);
}

TEST(PlanBuilders, DirectNvlinkPathRequiresEdge) {
  const topo::Graph g = topo::make_testbed();
  const auto by_server = g.gpus_by_server();
  EXPECT_NO_THROW(
      topo::direct_nvlink_path(g, by_server[0][0], by_server[0][1]));
  EXPECT_THROW(topo::direct_nvlink_path(g, by_server[0][0], by_server[1][0]),
               std::invalid_argument);
}

TEST(RankSwitches, PrefersNearestWithSlots) {
  const topo::Graph g = topo::make_fig2_example();
  // For {GN2, GN3} (both uplink S2), S2 must rank first.
  const auto ranked = rank_aggregation_switches(
      topo::Routes(g), {g.find("GN2"), g.find("GN3")}, 3);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0], g.find("S2"));
}

TEST(RankSwitches, SkipsSwitchesWithoutSlots) {
  topo::Graph g;
  const NodeId gpu = g.add_gpu("g", GpuModel::kA100_40, 1, 0);
  const NodeId s0 = g.add_switch("s0", NodeKind::kAccessSwitch, 0);
  const NodeId s1 = g.add_switch("s1", NodeKind::kAccessSwitch, 8);
  g.add_edge(gpu, s0, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(s0, s1, LinkKind::kEthernet, 100 * units::Gbps);
  const auto ranked = rank_aggregation_switches(topo::Routes(g), {gpu}, 5);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0], s1);
}

TEST(SchemeToString, Names) {
  EXPECT_STREQ(to_string(Scheme::kRing), "ring");
  EXPECT_STREQ(to_string(Scheme::kInaSync), "ina-sync");
  EXPECT_STREQ(to_string(Scheme::kInaAsync), "ina-async");
}

}  // namespace
}  // namespace hero::coll
