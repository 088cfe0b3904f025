// Unit tests for the topology graph and the paper's topology builders.
#include <gtest/gtest.h>

#include <vector>

#include "topology/builders.hpp"
#include "topology/graph.hpp"

namespace hero::topo {
namespace {

TEST(Graph, AddNodesAndEdges) {
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 40 * units::GB, 0);
  const NodeId b = g.add_gpu("b", GpuModel::kV100_32, 32 * units::GB, 0);
  const NodeId s = g.add_switch("s", NodeKind::kAccessSwitch, 64);
  const EdgeId e = g.add_edge(a, b, LinkKind::kNvLink, 600 * units::GBps);
  g.add_edge(a, s, LinkKind::kEthernet, 100 * units::Gbps);

  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.node(a).gpu.model, GpuModel::kA100_40);
  EXPECT_EQ(g.node(b).gpu.server, 0);
  EXPECT_EQ(g.node(s).agg_slots, 64);
  EXPECT_EQ(g.edge(e).kind, LinkKind::kNvLink);
  EXPECT_EQ(g.other_end(e, a), b);
  EXPECT_EQ(g.other_end(e, b), a);
}

TEST(Graph, OtherEndRejectsForeignNode) {
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 1, 0);
  const NodeId b = g.add_gpu("b", GpuModel::kA100_40, 1, 0);
  const NodeId c = g.add_gpu("c", GpuModel::kA100_40, 1, 1);
  const EdgeId e = g.add_edge(a, b, LinkKind::kNvLink, 1.0);
  EXPECT_THROW((void)g.other_end(e, c), std::invalid_argument);
}

TEST(Graph, RejectsBadEdges) {
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 1, 0);
  EXPECT_THROW(g.add_edge(a, a, LinkKind::kNvLink, 1.0),
               std::invalid_argument);
  EXPECT_THROW(g.add_edge(a, 99, LinkKind::kNvLink, 1.0),
               std::out_of_range);
  const NodeId b = g.add_gpu("b", GpuModel::kA100_40, 1, 0);
  EXPECT_THROW(g.add_edge(a, b, LinkKind::kNvLink, 0.0),
               std::invalid_argument);
}

TEST(Graph, AddSwitchRejectsNonSwitchKind) {
  Graph g;
  EXPECT_THROW(g.add_switch("x", NodeKind::kGpu), std::invalid_argument);
}

TEST(Graph, GpusBySwitchesAndServers) {
  Graph g;
  g.add_gpu("g0", GpuModel::kA100_40, 1, 0);
  g.add_gpu("g1", GpuModel::kA100_40, 1, 1);
  g.add_gpu("g2", GpuModel::kA100_40, 1, 1);
  g.add_switch("s", NodeKind::kCoreSwitch);
  g.add_server("ps");

  EXPECT_EQ(g.gpus().size(), 3u);
  EXPECT_EQ(g.switches().size(), 1u);
  const auto by_server = g.gpus_by_server();
  ASSERT_EQ(by_server.size(), 2u);
  EXPECT_EQ(by_server[0].size(), 1u);
  EXPECT_EQ(by_server[1].size(), 2u);
}

TEST(Graph, FindByName) {
  Graph g;
  const NodeId a = g.add_gpu("alpha", GpuModel::kA100_40, 1, 0);
  EXPECT_EQ(g.find("alpha"), a);
  EXPECT_EQ(g.find("nope"), kInvalidNode);
}

TEST(Graph, NeighborsListBothDirections) {
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 1, 0);
  const NodeId b = g.add_gpu("b", GpuModel::kA100_40, 1, 0);
  g.add_edge(a, b, LinkKind::kNvLink, 1.0);
  ASSERT_EQ(g.neighbors(a).size(), 1u);
  EXPECT_EQ(g.neighbors(a)[0].peer, b);
  ASSERT_EQ(g.neighbors(b).size(), 1u);
  EXPECT_EQ(g.neighbors(b)[0].peer, a);
}

TEST(ToString, CoversEnums) {
  EXPECT_STREQ(to_string(NodeKind::kGpu), "gpu");
  EXPECT_STREQ(to_string(NodeKind::kCoreSwitch), "core-switch");
  EXPECT_STREQ(to_string(LinkKind::kNvLink), "nvlink");
  EXPECT_STREQ(to_string(GpuModel::kV100_32), "V100-32GB");
}

// --- builders ---

TEST(Testbed, MatchesFig6Shape) {
  const Graph g = make_testbed();
  // 16 GPUs (4 servers x 4), 2 switches, PS + traffic hosts.
  EXPECT_EQ(g.gpus().size(), 16u);
  EXPECT_EQ(g.switches().size(), 2u);
  EXPECT_NE(g.find("ps"), kInvalidNode);
  EXPECT_NE(g.find("traffic"), kInvalidNode);

  // Two A100 servers, two V100 servers.
  int a100 = 0, v100 = 0;
  for (NodeId id : g.gpus()) {
    if (g.node(id).gpu.model == GpuModel::kA100_40) ++a100;
    if (g.node(id).gpu.model == GpuModel::kV100_32) ++v100;
  }
  EXPECT_EQ(a100, 8);
  EXPECT_EQ(v100, 8);
}

TEST(Testbed, CrossConnectedUplinks) {
  const Graph g = make_testbed();
  const NodeId sw0 = g.find("sw0");
  const NodeId sw1 = g.find("sw1");
  // Each server's GPUs alternate uplink switches (2tracks wiring).
  const auto by_server = g.gpus_by_server();
  for (int server = 0; server < 4; ++server) {
    int to0 = 0, to1 = 0;
    for (NodeId id : by_server[static_cast<std::size_t>(server)]) {
      for (const Adjacency& adj : g.neighbors(id)) {
        if (adj.peer == sw0) ++to0;
        if (adj.peer == sw1) ++to1;
      }
    }
    EXPECT_EQ(to0, 2) << "server " << server;
    EXPECT_EQ(to1, 2) << "server " << server;
  }
}

// --- server layout of a member list ---

TEST(SplitByServer, MixedTestbedGroupKeepsFirstAppearanceLeaderFirst) {
  const Graph g = make_testbed();
  const auto by_server = g.gpus_by_server();
  // A V100 server's GPU comes first, then the two A100 servers interleave.
  const std::vector<NodeId> members = {by_server[2][1], by_server[0][3],
                                       by_server[2][0], by_server[1][0],
                                       by_server[0][1]};
  const auto groups = g.split_by_server(members);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::vector<NodeId>{by_server[2][1], by_server[2][0]}));
  EXPECT_EQ(groups[1], (std::vector<NodeId>{by_server[0][3], by_server[0][1]}));
  EXPECT_EQ(groups[2], (std::vector<NodeId>{by_server[1][0]}));
}

TEST(SplitByServer, OneServerGroupIsOneGroup) {
  const Graph g = make_testbed();
  const std::vector<NodeId> members = g.gpus_by_server()[3];
  const auto groups = g.split_by_server(members);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], members);
}

TEST(SplitByServer, FlatMemberListIsOneGroupPerGpu) {
  // One GPU per server: every member is its own leader.
  Graph g;
  const NodeId a = g.add_gpu("a", GpuModel::kA100_40, 1, 3);
  const NodeId b = g.add_gpu("b", GpuModel::kA100_40, 1, 2);
  const NodeId c = g.add_gpu("c", GpuModel::kA100_40, 1, 1);
  const NodeId d = g.add_gpu("d", GpuModel::kA100_40, 1, 0);
  const std::vector<NodeId> members = {c, a, d, b};
  const auto groups = g.split_by_server(members);
  ASSERT_EQ(groups.size(), members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(groups[i], std::vector<NodeId>{members[i]});
  }
  EXPECT_TRUE(g.split_by_server({}).empty());
}

TEST(Testbed, NvLinkMeshWithinServers) {
  const Graph g = make_testbed();
  int nvlink_edges = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.edge(e).kind == LinkKind::kNvLink) {
      ++nvlink_edges;
      EXPECT_EQ(g.node(g.edge(e).a).gpu.server,
                g.node(g.edge(e).b).gpu.server);
    }
  }
  // 4 servers x C(4,2) = 24 NVLink edges.
  EXPECT_EQ(nvlink_edges, 24);
}

TEST(Fig2Example, Shape) {
  const Graph g = make_fig2_example();
  EXPECT_EQ(g.gpus().size(), 4u);
  EXPECT_EQ(g.switches().size(), 3u);
  // GN1 uplinks to S3 only (cross wiring) plus NVLink to GN2.
  const NodeId gn1 = g.find("GN1");
  int eth = 0, nv = 0;
  for (const Adjacency& adj : g.neighbors(gn1)) {
    (g.edge(adj.edge).kind == LinkKind::kEthernet ? eth : nv) += 1;
  }
  EXPECT_EQ(eth, 1);
  EXPECT_EQ(nv, 1);
}

TEST(TracksCluster, TwoTracksShape) {
  TracksOptions opts;
  opts.servers = 12;
  opts.gpus_per_server = 8;
  opts.tracks = 2;
  opts.servers_per_pod = 6;
  opts.core_switches = 3;
  const Graph g = make_tracks_cluster(opts);
  EXPECT_EQ(g.gpus().size(), 96u);
  // 2 pods x 2 access + 3 core.
  EXPECT_EQ(g.switches().size(), 7u);
}

TEST(TracksCluster, EightTracksShape) {
  TracksOptions opts;
  opts.servers = 16;
  opts.tracks = 8;
  opts.servers_per_pod = 16;
  opts.core_switches = 4;
  const Graph g = make_tracks_cluster(opts);
  EXPECT_EQ(g.gpus().size(), 128u);
  EXPECT_EQ(g.switches().size(), 12u);  // 8 access + 4 core
}

TEST(TracksCluster, GpuUplinkSpreadAcrossTracks) {
  TracksOptions opts;
  opts.servers = 2;
  opts.gpus_per_server = 8;
  opts.tracks = 2;
  opts.servers_per_pod = 2;
  opts.core_switches = 1;
  const Graph g = make_tracks_cluster(opts);
  const NodeId a0 = g.find("p0a0");
  const NodeId a1 = g.find("p0a1");
  int to0 = 0, to1 = 0;
  for (NodeId id : g.gpus()) {
    for (const Adjacency& adj : g.neighbors(id)) {
      if (adj.peer == a0) ++to0;
      if (adj.peer == a1) ++to1;
    }
  }
  EXPECT_EQ(to0, 8);
  EXPECT_EQ(to1, 8);
}

TEST(TracksCluster, RejectsNonPositiveSizes) {
  TracksOptions opts;
  opts.tracks = 0;
  EXPECT_THROW(make_tracks_cluster(opts), std::invalid_argument);
}

/// Shape property over pod configurations.
class TracksShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TracksShapeTest, NodeAndEdgeCountsConsistent) {
  const auto [servers, tracks, pod] = GetParam();
  TracksOptions opts;
  opts.servers = servers;
  opts.tracks = tracks;
  opts.servers_per_pod = pod;
  opts.gpus_per_server = 4;
  opts.core_switches = 2;
  const Graph g = make_tracks_cluster(opts);
  EXPECT_EQ(g.gpus().size(), static_cast<std::size_t>(servers * 4));
  const int pods = (servers + pod - 1) / pod;
  EXPECT_EQ(g.switches().size(), static_cast<std::size_t>(pods * tracks + 2));
  // Every GPU has exactly one Ethernet uplink + NVLink mesh degree 3.
  for (NodeId id : g.gpus()) {
    int eth = 0, nv = 0;
    for (const Adjacency& adj : g.neighbors(id)) {
      (g.edge(adj.edge).kind == LinkKind::kEthernet ? eth : nv) += 1;
    }
    EXPECT_EQ(eth, 1);
    EXPECT_EQ(nv, 3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TracksShapeTest,
    ::testing::Values(std::make_tuple(6, 2, 6), std::make_tuple(12, 2, 6),
                      std::make_tuple(16, 8, 16), std::make_tuple(5, 2, 3)));

}  // namespace
}  // namespace hero::topo
