#include "topology/graph.hpp"

#include <algorithm>

namespace hero::topo {

const char* to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::kGpu: return "gpu";
    case NodeKind::kServer: return "server";
    case NodeKind::kAccessSwitch: return "access-switch";
    case NodeKind::kCoreSwitch: return "core-switch";
  }
  return "?";
}

const char* to_string(LinkKind kind) {
  switch (kind) {
    case LinkKind::kNvLink: return "nvlink";
    case LinkKind::kEthernet: return "ethernet";
  }
  return "?";
}

const char* to_string(GpuModel model) {
  switch (model) {
    case GpuModel::kA100_40: return "A100-40GB";
    case GpuModel::kA100_80: return "A100-80GB";
    case GpuModel::kV100_32: return "V100-32GB";
    case GpuModel::kL40_48: return "L40-48GB";
    case GpuModel::kH100_80: return "H100-80GB";
    case GpuModel::kL4_24: return "L4-24GB";
  }
  return "?";
}

NodeId Graph::add_gpu(std::string name, GpuModel model, Bytes memory,
                      std::int32_t server) {
  Node n;
  n.kind = NodeKind::kGpu;
  n.name = std::move(name);
  n.gpu = GpuInfo{model, memory, memory, server};
  nodes_.push_back(std::move(n));
  adjacency_.emplace_back();
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Graph::add_server(std::string name) {
  Node n;
  n.kind = NodeKind::kServer;
  n.name = std::move(name);
  nodes_.push_back(std::move(n));
  adjacency_.emplace_back();
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Graph::add_switch(std::string name, NodeKind kind,
                         std::int32_t agg_slots) {
  if (kind != NodeKind::kAccessSwitch && kind != NodeKind::kCoreSwitch) {
    throw std::invalid_argument("add_switch: kind must be a switch kind");
  }
  Node n;
  n.kind = kind;
  n.name = std::move(name);
  n.agg_slots = agg_slots;
  nodes_.push_back(std::move(n));
  adjacency_.emplace_back();
  return static_cast<NodeId>(nodes_.size() - 1);
}

EdgeId Graph::add_edge(NodeId a, NodeId b, LinkKind kind, Bandwidth capacity,
                       Time latency) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::out_of_range("add_edge: node id out of range");
  }
  if (a == b) throw std::invalid_argument("add_edge: self loop");
  if (capacity <= 0) throw std::invalid_argument("add_edge: capacity <= 0");
  edges_.push_back(Edge{a, b, kind, capacity, latency});
  const EdgeId id = static_cast<EdgeId>(edges_.size() - 1);
  adjacency_[a].push_back(Adjacency{b, id});
  adjacency_[b].push_back(Adjacency{a, id});
  return id;
}

NodeId Graph::other_end(EdgeId edge_id, NodeId from) const {
  const Edge& e = edge(edge_id);
  if (e.a == from) return e.b;
  if (e.b == from) return e.a;
  throw std::invalid_argument("other_end: node not on edge");
}

std::vector<NodeId> Graph::gpus() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == NodeKind::kGpu) out.push_back(i);
  }
  return out;
}

std::vector<NodeId> Graph::switches() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (is_switch(i)) out.push_back(i);
  }
  return out;
}

std::vector<std::vector<NodeId>> Graph::gpus_by_server() const {
  std::int32_t max_server = -1;
  for (const Node& n : nodes_) {
    if (n.kind == NodeKind::kGpu) max_server = std::max(max_server, n.gpu.server);
  }
  std::vector<std::vector<NodeId>> out(static_cast<std::size_t>(max_server + 1));
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.kind == NodeKind::kGpu && n.gpu.server >= 0) {
      out[static_cast<std::size_t>(n.gpu.server)].push_back(i);
    }
  }
  return out;
}

std::vector<std::vector<NodeId>> Graph::split_by_server(
    std::span<const NodeId> members) const {
  std::vector<std::vector<NodeId>> groups;
  for (NodeId m : members) {
    const std::int32_t server = node(m).gpu.server;
    const auto it = std::find_if(
        groups.begin(), groups.end(), [&](const std::vector<NodeId>& group) {
          return node(group.front()).gpu.server == server;
        });
    if (it == groups.end()) {
      groups.push_back({m});
    } else {
      it->push_back(m);
    }
  }
  return groups;
}

NodeId Graph::find(std::string_view name) const {
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return i;
  }
  return kInvalidNode;
}

}  // namespace hero::topo
