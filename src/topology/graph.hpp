// Heterogeneous cluster topology graph (paper SIII-B, Fig. 4/Fig. 6).
//
// Nodes are GPUs, plain servers (parameter server / traffic hosts), access
// switches, and core switches. Edges are either NVLink (intra-server,
// ~600 GB/s on A100) or Ethernet (inter-server, 100 Gbps per port). The graph
// is undirected; each edge is full duplex with `capacity` bytes/s available
// independently in each direction.
//
// This is the `G = <V, E>` of Table I: planner and online scheduler both
// operate on this structure, and the flow-level network simulator executes
// transfers over it.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace hero::topo {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = ~NodeId{0};
inline constexpr EdgeId kInvalidEdge = ~EdgeId{0};

enum class NodeKind : std::uint8_t {
  kGpu,           ///< GPU + its RDMA NIC (GPUDirect collapses them)
  kServer,        ///< GPU-less host (parameter server, traffic generator)
  kAccessSwitch,  ///< ToR / access programmable switch
  kCoreSwitch,    ///< core programmable switch
};

enum class LinkKind : std::uint8_t { kNvLink, kEthernet };

/// GPU hardware model; the roofline specs live in gpusim.
enum class GpuModel : std::uint8_t {
  kA100_40,
  kA100_80,
  kV100_32,
  kL40_48,
  kH100_80,
  kL4_24,
};

[[nodiscard]] const char* to_string(NodeKind kind);
[[nodiscard]] const char* to_string(LinkKind kind);
[[nodiscard]] const char* to_string(GpuModel model);

/// Per-GPU attributes tracked in the topology: which physical server it sits
/// in (NVLink domain) and how much HBM is free for model weights + KV cache.
struct GpuInfo {
  GpuModel model = GpuModel::kA100_40;
  Bytes memory_capacity = 0;  ///< total HBM
  Bytes memory_free = 0;      ///< `M_g` of Table I (updated as instances load)
  std::int32_t server = -1;   ///< NVLink domain id
};

struct Node {
  NodeKind kind = NodeKind::kGpu;
  std::string name;
  GpuInfo gpu;                 ///< valid iff kind == kGpu
  std::int32_t agg_slots = 0;  ///< aggregator slots (switches only)
};

struct Edge {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  LinkKind kind = LinkKind::kEthernet;
  Bandwidth capacity = 0;  ///< `C(e)` of Table I, per direction
  Time latency = 0;        ///< fixed per-hop forwarding latency
};

/// An adjacency entry: the neighbouring node and the connecting edge.
struct Adjacency {
  NodeId peer = kInvalidNode;
  EdgeId edge = kInvalidEdge;
};

class Graph {
 public:
  NodeId add_gpu(std::string name, GpuModel model, Bytes memory,
                 std::int32_t server);
  NodeId add_server(std::string name);
  NodeId add_switch(std::string name, NodeKind kind,
                    std::int32_t agg_slots = 0);
  EdgeId add_edge(NodeId a, NodeId b, LinkKind kind, Bandwidth capacity,
                  Time latency = 1.0 * units::us);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  [[nodiscard]] const Node& node(NodeId id) const { return nodes_.at(id); }
  [[nodiscard]] Node& node(NodeId id) { return nodes_.at(id); }
  [[nodiscard]] const Edge& edge(EdgeId id) const { return edges_.at(id); }
  [[nodiscard]] Edge& edge(EdgeId id) { return edges_.at(id); }

  [[nodiscard]] std::span<const Adjacency> neighbors(NodeId id) const {
    return adjacency_.at(id);
  }

  /// Given an edge and the node a transfer leaves from, the node it reaches.
  [[nodiscard]] NodeId other_end(EdgeId edge, NodeId from) const;

  /// All GPU node ids, in insertion order.
  [[nodiscard]] std::vector<NodeId> gpus() const;
  /// All switch node ids (access + core).
  [[nodiscard]] std::vector<NodeId> switches() const;
  /// GPUs grouped by server id; index = server id.
  [[nodiscard]] std::vector<std::vector<NodeId>> gpus_by_server() const;
  /// `members` split into NVLink domains (a tensor-parallel group's server
  /// layout): one group per server id, in order of first appearance, each
  /// keeping the list order of its members, so its leader comes first.
  [[nodiscard]] std::vector<std::vector<NodeId>> split_by_server(
      std::span<const NodeId> members) const;

  [[nodiscard]] bool is_gpu(NodeId id) const {
    return node(id).kind == NodeKind::kGpu;
  }
  [[nodiscard]] bool is_switch(NodeId id) const {
    const NodeKind k = node(id).kind;
    return k == NodeKind::kAccessSwitch || k == NodeKind::kCoreSwitch;
  }

  /// Find a node by name (linear scan; intended for tests/examples).
  [[nodiscard]] NodeId find(std::string_view name) const;

 private:
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::vector<Adjacency>> adjacency_;
};

}  // namespace hero::topo
