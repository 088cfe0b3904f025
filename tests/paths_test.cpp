// Tests for shortest paths, routing constraints (the GPU-relay rule), path
// latency math — including the paper's Fig. 2 numbers — and the Routes
// memo (order independence, laziness, bounds).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "topology/builders.hpp"
#include "topology/paths.hpp"

namespace hero::topo {
namespace {

Graph line_graph() {
  // gpu0 - sw0 - sw1 - gpu1, 100 Gbps everywhere, 1 us hops.
  Graph g;
  const NodeId g0 = g.add_gpu("g0", GpuModel::kA100_40, 1, 0);
  const NodeId s0 = g.add_switch("s0", NodeKind::kAccessSwitch);
  const NodeId s1 = g.add_switch("s1", NodeKind::kAccessSwitch);
  const NodeId g1 = g.add_gpu("g1", GpuModel::kA100_40, 1, 1);
  g.add_edge(g0, s0, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(s0, s1, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(s1, g1, LinkKind::kEthernet, 100 * units::Gbps);
  return g;
}

TEST(ShortestPath, FindsLine) {
  const Graph g = line_graph();
  const auto p = Routes(g).path(g.find("g0"), g.find("g1"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->hops(), 3u);
  EXPECT_EQ(p->src(), g.find("g0"));
  EXPECT_EQ(p->dst(), g.find("g1"));
  EXPECT_EQ(p->nodes.size(), 4u);
}

TEST(ShortestPath, SameNodeIsEmptyPath) {
  const Graph g = line_graph();
  const auto p = Routes(g).path(g.find("g0"), g.find("g0"));
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

TEST(ShortestPath, StoreAndForwardLatency) {
  const Graph g = line_graph();
  const auto p = Routes(g).path(g.find("g0"), g.find("g1"));
  // 3 hops x (1MB / 12.5GB/s + 1us) = 3 x 81us.
  EXPECT_NEAR(raw(p->latency(g, 1.0 * units::MB)),
              raw(3 * 81.0 * units::us),
              1e-9);
}

TEST(ShortestPath, BottleneckBandwidth) {
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 1, 0);
  const NodeId s = g.add_switch("s", NodeKind::kAccessSwitch);
  const NodeId b = g.add_gpu("b", GpuModel::kA100_40, 1, 1);
  g.add_edge(a, s, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(s, b, LinkKind::kEthernet, 25 * units::Gbps);
  const auto p = Routes(g).path(a, b);
  EXPECT_DOUBLE_EQ(raw(p->bottleneck(g)), raw(25 * units::Gbps));
}

TEST(ShortestPath, UnreachableReturnsNullopt) {
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 1, 0);
  const NodeId b = g.add_gpu("b", GpuModel::kA100_40, 1, 1);
  (void)b;
  g.add_gpu("c", GpuModel::kA100_40, 1, 2);
  EXPECT_FALSE(Routes(g).path(a, b).has_value());
}

TEST(ShortestPath, EthernetOnlyConstraintExcludesNvlink) {
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 1, 0);
  const NodeId b = g.add_gpu("b", GpuModel::kA100_40, 1, 0);
  g.add_edge(a, b, LinkKind::kNvLink, 600 * units::GBps);
  PathOptions opts;
  opts.constraints.allow_nvlink = false;
  EXPECT_FALSE(Routes(g, opts).path(a, b).has_value());
  EXPECT_TRUE(Routes(g).path(a, b).has_value());
}

TEST(ShortestPath, ServersNeverRelay) {
  // g0 - ps - g1 with Ethernet: unreachable because servers do not forward.
  Graph g;
  const NodeId g0 = g.add_gpu("g0", GpuModel::kA100_40, 1, 0);
  const NodeId ps = g.add_server("ps");
  const NodeId g1 = g.add_gpu("g1", GpuModel::kA100_40, 1, 1);
  g.add_edge(g0, ps, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(ps, g1, LinkKind::kEthernet, 100 * units::Gbps);
  EXPECT_FALSE(Routes(g).path(g0, g1).has_value());
  // But the server itself is reachable as an endpoint.
  EXPECT_TRUE(Routes(g).path(g0, ps).has_value());
}

TEST(ShortestPath, GpuRelayRequiresNvlinkSide) {
  // sw0 - gX - sw1 all Ethernet: gX must not relay switch-to-switch
  // traffic.
  Graph g;
  const NodeId s0 = g.add_switch("s0", NodeKind::kAccessSwitch);
  const NodeId gx = g.add_gpu("gx", GpuModel::kA100_40, 1, 0);
  const NodeId s1 = g.add_switch("s1", NodeKind::kAccessSwitch);
  const NodeId g0 = g.add_gpu("g0", GpuModel::kA100_40, 1, 1);
  const NodeId g1 = g.add_gpu("g1", GpuModel::kA100_40, 1, 2);
  g.add_edge(g0, s0, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(s0, gx, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(gx, s1, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(s1, g1, LinkKind::kEthernet, 100 * units::Gbps);
  EXPECT_FALSE(Routes(g).path(g0, g1).has_value());
}

TEST(ShortestPath, NvlinkForwardingAllowed) {
  // Fig. 2(b): GN1 -> (NVLink) GN2 -> S2 is a legal relay.
  const Graph g = make_fig2_example();
  const auto p = Routes(g).path(g.find("GN1"), g.find("S2"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->hops(), 2u);
  EXPECT_TRUE(p->uses_nvlink(g));
  EXPECT_EQ(p->nodes[1], g.find("GN2"));
}

TEST(Fig2, HomogeneousCollectionIs160us) {
  // Ethernet-only: GN1 must reach core S1 over two 100G hops -> ~160 us
  // for 1 MB (paper SII-C).
  const Graph g = make_fig2_example();
  PathOptions opts;
  opts.constraints.allow_nvlink = false;
  const auto p = Routes(g, opts).path(g.find("GN1"), g.find("S1"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->hops(), 2u);
  EXPECT_NEAR(raw(p->latency(g, 1.0 * units::MB)),
              raw(162.0 * units::us),
              raw(1.0 * units::us));
}

TEST(Fig2, HeterogeneousCollectionIs90us) {
  // NVLink forwarding reaches access switch S2 in one Ethernet hop:
  // ~43% lower than homogeneous (paper: ~90 us vs ~160 us).
  const Graph g = make_fig2_example();
  const auto p = Routes(g).path(g.find("GN1"), g.find("S2"));
  ASSERT_TRUE(p.has_value());
  const Time hetero = p->latency(g, 1.0 * units::MB);
  EXPECT_LT(hetero, 95.0 * units::us);
  EXPECT_GT(hetero, 80.0 * units::us);
}

TEST(NvlinkDirect, AllowsSingleHopNvlinkWithoutForwarding) {
  // allow_nvlink_direct: the direct intra-server edge works, but the
  // NVLink-forwarding detour of Fig. 2(b) stays forbidden.
  const Graph g = make_fig2_example();
  PathOptions opts;
  opts.constraints.allow_nvlink = false;
  opts.constraints.allow_nvlink_direct = true;
  const Routes routes(g, opts);
  // GN1 -> GN2: the direct NVLink edge.
  const auto direct = routes.path(g.find("GN1"), g.find("GN2"));
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->hops(), 1u);
  EXPECT_TRUE(direct->uses_nvlink(g));
  // GN1 -> S2 must NOT go through GN2's NIC: 3 Ethernet hops instead of
  // the heterogeneous 2-hop NVLink detour.
  const auto to_s2 = routes.path(g.find("GN1"), g.find("S2"));
  ASSERT_TRUE(to_s2.has_value());
  EXPECT_FALSE(to_s2->uses_nvlink(g));
}

TEST(NvlinkDirect, PrefersCheaperOfDirectAndEthernet) {
  // When an Ethernet route is cheaper than NVLink (contrived tiny NVLink),
  // the direct override must not force the worse path.
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 1, 0);
  const NodeId b = g.add_gpu("b", GpuModel::kA100_40, 1, 0);
  const NodeId s = g.add_switch("s", NodeKind::kAccessSwitch);
  g.add_edge(a, b, LinkKind::kNvLink, 1 * units::Mbps, 0.0);  // terrible
  g.add_edge(a, s, LinkKind::kEthernet, 100 * units::Gbps, 0.0);
  g.add_edge(s, b, LinkKind::kEthernet, 100 * units::Gbps, 0.0);
  PathOptions opts;
  opts.constraints.allow_nvlink = false;
  opts.constraints.allow_nvlink_direct = true;
  const auto p = Routes(g, opts).path(a, b);
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(p->uses_nvlink(g));
}

TEST(NvlinkDirect, RoutesAppliesOverride) {
  // Both ends of every testbed NVLink edge get that one-hop route under
  // Ethernet-only constraints, and latency() prices that route.
  const Graph g = make_testbed();
  PathOptions opts;
  opts.constraints.allow_nvlink = false;
  opts.constraints.allow_nvlink_direct = true;
  const Routes routes(g, opts);
  std::size_t nvlinks = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    if (edge.kind != LinkKind::kNvLink) continue;
    ++nvlinks;
    for (const auto& [a, b] :
         {std::pair{edge.a, edge.b}, std::pair{edge.b, edge.a}}) {
      const auto p = routes.path(a, b);
      ASSERT_TRUE(p.has_value()) << a << " -> " << b;
      ASSERT_EQ(p->edges.size(), 1u) << a << " -> " << b;
      EXPECT_EQ(p->edges[0], e) << a << " -> " << b;
      EXPECT_EQ(routes.latency(a, b, units::MB), p->latency(g, units::MB));
    }
  }
  EXPECT_GT(nvlinks, 0u);
}

TEST(AlternatePaths, ReturnsDistinctRoutes) {
  // Diamond: a - {s0|s1} - b.
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 1, 0);
  const NodeId s0 = g.add_switch("s0", NodeKind::kAccessSwitch);
  const NodeId s1 = g.add_switch("s1", NodeKind::kAccessSwitch);
  const NodeId b = g.add_gpu("b", GpuModel::kA100_40, 1, 1);
  g.add_edge(a, s0, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(s0, b, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(a, s1, LinkKind::kEthernet, 100 * units::Gbps);
  g.add_edge(s1, b, LinkKind::kEthernet, 100 * units::Gbps);
  const Routes routes(g);
  const auto& alts = routes.alternates(a, b);
  ASSERT_EQ(alts.size(), 2u);
  EXPECT_NE(alts[0].edges, alts[1].edges);
}

TEST(AlternatePaths, FirstIsShortest) {
  const Graph g = make_testbed();
  const auto gpus = g.gpus();
  const Routes routes(g);
  const auto& alts = routes.alternates(gpus[0], gpus[5]);
  ASSERT_FALSE(alts.empty());
  const auto direct = routes.path(gpus[0], gpus[5]);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(alts[0].edges, direct->edges);
}

TEST(AlternatePaths, UnreachableIsEmpty) {
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 1, 0);
  const NodeId b = g.add_gpu("b", GpuModel::kA100_40, 1, 1);
  EXPECT_TRUE(Routes(g).alternates(a, b).empty());
}

/// Both constraint modes the code uses: heterogeneous, and Ethernet-only
/// plus the direct intra-server NVLink edge (the homogeneous planner).
std::vector<PathOptions> both_modes() {
  PathOptions hetero;
  PathOptions homo;
  homo.constraints = PathConstraints{/*allow_nvlink=*/false,
                                     /*allow_nvlink_direct=*/true};
  return {hetero, homo};
}

Graph small_fleet() {
  FleetClusterOptions opts;
  opts.racks = 2;
  opts.servers_per_rack = 2;
  opts.gpus_per_server = 4;
  return make_fleet_cluster(opts);
}

TEST(Routes, SharedMemoMatchesFreshQueries) {
  // One Routes answering every pair in a shuffled order must agree exactly
  // with a fresh Routes per query: the memo never leaks query order.
  for (const Graph& g : {make_testbed(), small_fleet()}) {
    for (const PathOptions& opts : both_modes()) {
      std::vector<std::pair<NodeId, NodeId>> pairs;
      for (NodeId a = 0; a < g.node_count(); ++a) {
        for (NodeId b = 0; b < g.node_count(); ++b) pairs.emplace_back(a, b);
      }
      Rng rng(11);
      rng.shuffle(pairs);
      const Routes shared(g, opts);
      for (const auto& [a, b] : pairs) {
        const auto cached = shared.path(a, b);
        const auto fresh = Routes(g, opts).path(a, b);
        ASSERT_EQ(cached.has_value(), fresh.has_value()) << a << " -> " << b;
        if (fresh) {
          EXPECT_EQ(cached->nodes, fresh->nodes) << a << " -> " << b;
          EXPECT_EQ(cached->edges, fresh->edges) << a << " -> " << b;
        }
        EXPECT_EQ(shared.latency(a, b, units::MiB),
                  Routes(g, opts).latency(a, b, units::MiB));
        const auto& alts = shared.alternates(a, b);
        const Routes fresh_routes(g, opts);
        const auto& fresh_alts = fresh_routes.alternates(a, b);
        ASSERT_EQ(alts.size(), fresh_alts.size()) << a << " -> " << b;
        for (std::size_t i = 0; i < alts.size(); ++i) {
          EXPECT_EQ(alts[i].edges, fresh_alts[i].edges) << a << " -> " << b;
        }
      }
    }
  }
}

TEST(Routes, LatencyMatchesPathLatency) {
  // latency() is path()'s Eq. 10 latency for every GPU/switch pair, in both
  // constraint modes and at more than one transfer size.
  const Graph g = make_testbed();
  std::vector<NodeId> terminals = g.gpus();
  for (NodeId sw : g.switches()) terminals.push_back(sw);
  for (const PathOptions& opts : both_modes()) {
    const Routes routes(g, opts);
    for (const Bytes bytes : {1.0 * units::MB, 64.0 * units::MiB}) {
      for (const NodeId a : terminals) {
        for (const NodeId b : terminals) {
          const auto p = routes.path(a, b);
          if (!p) {
            EXPECT_TRUE(std::isinf(raw(routes.latency(a, b, bytes))));
            continue;
          }
          EXPECT_EQ(routes.latency(a, b, bytes), p->latency(g, bytes))
              << a << " -> " << b;
        }
      }
    }
  }
}

TEST(Routes, SelfPathIsEmpty) {
  // Every node reaches itself by the empty path at zero cost, in both
  // constraint modes.
  const Graph g = make_testbed();
  for (const PathOptions& opts : both_modes()) {
    const Routes routes(g, opts);
    for (NodeId n = 0; n < g.node_count(); ++n) {
      const auto p = routes.path(n, n);
      ASSERT_TRUE(p.has_value()) << n;
      EXPECT_TRUE(p->empty()) << n;
      EXPECT_DOUBLE_EQ(raw(routes.latency(n, n, 1e6)), raw(0.0)) << n;
    }
  }
}

TEST(Routes, OutOfRangeNodeThrows) {
  const Graph g = line_graph();
  const Routes routes(g);
  const auto n = static_cast<NodeId>(g.node_count());
  EXPECT_THROW((void)routes.path(n, 0), std::out_of_range);
  EXPECT_THROW((void)routes.path(0, n), std::out_of_range);
  EXPECT_THROW((void)routes.latency(n, 0, units::MB), std::out_of_range);
  EXPECT_THROW((void)routes.latency(0, kInvalidNode, units::MB),
               std::out_of_range);
  EXPECT_THROW((void)routes.alternates(n, 0), std::out_of_range);
  EXPECT_THROW((void)routes.alternates(0, n), std::out_of_range);
  EXPECT_EQ(routes.sources_solved(), 0u);
}

TEST(Routes, SolvesEachSourceOnce) {
  const Graph g = make_testbed();
  const Routes routes(g);
  EXPECT_EQ(routes.sources_solved(), 0u);  // construction solves nothing
  const NodeId src = g.gpus()[0];
  for (NodeId sw : g.switches()) (void)routes.path(src, sw);
  EXPECT_EQ(routes.sources_solved(), 1u);
  // Repeats, latencies and the alternates' unpenalized round all reuse it.
  for (NodeId sw : g.switches()) {
    (void)routes.path(src, sw);
    (void)routes.latency(src, sw, units::MiB);
    (void)routes.alternates(src, sw);
    (void)routes.alternates(src, sw);
  }
  EXPECT_EQ(routes.sources_solved(), 1u);
  (void)routes.path(g.gpus()[1], g.switches()[0]);
  EXPECT_EQ(routes.sources_solved(), 2u);
}

TEST(Routes, UnreachableLatencyIsInfinite) {
  // Two GPUs joined only by NVLink: no route once NVLink is forbidden.
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 1, 0);
  const NodeId b = g.add_gpu("b", GpuModel::kA100_40, 1, 0);
  g.add_edge(a, b, LinkKind::kNvLink, 600 * units::GBps);
  PathOptions opts;
  opts.constraints.allow_nvlink = false;
  const Routes routes(g, opts);
  EXPECT_FALSE(routes.path(a, b).has_value());
  EXPECT_TRUE(std::isinf(raw(routes.latency(a, b, units::MiB))));
}

/// Property: on random pure-switch graphs Dijkstra's latencies satisfy the
/// triangle inequality and symmetric pairs agree.
class RandomGraphTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphTest, MetricProperties) {
  Rng rng(GetParam());
  Graph g;
  const std::size_t n = 8;
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(
        g.add_switch(strfmt("s{}", i), NodeKind::kAccessSwitch));
  }
  // Random connected graph: spanning chain + extra edges.
  for (std::size_t i = 1; i < n; ++i) {
    g.add_edge(nodes[i - 1], nodes[i], LinkKind::kEthernet,
               rng.uniform(10, 100) * units::Gbps);
  }
  for (int extra = 0; extra < 6; ++extra) {
    const NodeId a = nodes[rng.uniform_int(n)];
    const NodeId b = nodes[rng.uniform_int(n)];
    if (a != b) {
      g.add_edge(a, b, LinkKind::kEthernet,
                 rng.uniform(10, 100) * units::Gbps);
    }
  }
  const Routes routes(g);
  const Bytes bytes = 1.0 * units::MB;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const Time dij = routes.latency(nodes[i], nodes[j], bytes);
      EXPECT_NEAR(raw(dij),
                  raw(routes.latency(nodes[j], nodes[i], bytes)),
                  1e-12);
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_LE(dij, routes.latency(nodes[i], nodes[k], bytes) +
                           routes.latency(nodes[k], nodes[j], bytes) + 1e-12);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace hero::topo
