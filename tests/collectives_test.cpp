// Tests for collective cost models (Eq. 8-11) and the execution engine:
// ring, INA (sync/async with fallback), and hierarchical all-reduce.
#include <gtest/gtest.h>

#include <cmath>

#include "collectives/engine.hpp"
#include "netsim/flownet.hpp"
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
    const NodeId gpu = g.add_gpu("g" + std::to_string(i), GpuModel::kA100_40,
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

TEST(CostModel, RingOnPathsUsesWorstNeighbor) {
  const topo::Graph g = star_graph(3);
  const topo::Routes routes(g);
  const Router route = shortest_path_router(routes);
  std::vector<topo::Path> ring;
  const auto gpus = g.gpus();
  for (std::size_t i = 0; i < gpus.size(); ++i) {
    ring.push_back(route(gpus[i], gpus[(i + 1) % gpus.size()]));
  }
  // Each neighbor path is 2 hops; chunk = V/3; steps = 4.
  const Bytes v = 3.0 * units::MB;
  const Time t = ring_all_reduce_latency_on_paths(g, ring, v);
  EXPECT_NEAR(raw(t), raw(4.0 * 2.0 * (units::MB / 12.5e9)), 1e-9);
}

TEST(CostModel, InaOnPathsEq8) {
  const topo::Graph g = star_graph(3);
  const topo::Routes routes(g);
  const Router route = shortest_path_router(routes);
  const NodeId sw = g.find("sw");
  std::vector<topo::Path> up, down;
  for (NodeId gpu : g.gpus()) {
    up.push_back(route(gpu, sw));
    down.push_back(route(sw, gpu));
  }
  CostConfig cfg;
  const Time t =
      ina_all_reduce_latency_on_paths(g, up, down, 1.0 * units::MB, cfg);
  // 1 hop up (80us) + 1us agg + 1 hop down (80us).
  EXPECT_NEAR(raw(t), raw(161.0 * units::us), 1e-9);
}

TEST(CostModel, HierarchicalAddsLocalAndBroadcast) {
  const std::size_t sizes[] = {4, 2};
  const Time wide = 100.0 * units::us;
  const Time t = hierarchical_latency(4.0 * units::MB, sizes,
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

TEST(Engine, TransferDeliversCallback) {
  Fixture f(star_graph(2));
  const Router route = f.router();
  Time done = -1;
  f.engine->transfer(route(f.graph.gpus()[0], f.graph.gpus()[1]),
                     1.0 * units::MB, [&] { done = f.simulator.now(); });
  f.simulator.run();
  EXPECT_NEAR(raw(done), raw(160.0 * units::us), raw(1.0 * units::us));
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
