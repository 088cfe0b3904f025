// Shortest-path machinery (paper Alg. 2 lines 1-3: "gen_latency_matrix /
// store_shortest_path, alg=dijkstra", and the online scheduler's alternate
// routes of SIII-D).
//
// Path latency follows the paper's store-and-forward model (Eq. 10 and the
// Fig. 2 walk-through): a D-byte transfer over path e_1..e_n costs
// sum_n (D / B(e_n) + hop_latency(e_n)). Routing respects the physical
// forwarding rules of the testbed:
//   * switches forward anything;
//   * plain servers never relay;
//   * a GPU relays traffic only if the relay enters or leaves over NVLink
//     (a GPU forwarding a peer's tensor out of its own NIC -- the
//     heterogeneous trick of Fig. 2(b)). Ethernet-in/Ethernet-out GPU
//     relaying is forbidden for every scheme.
// Homogeneous baselines (DistServe / DS-ATP / DS-SwitchML) set
// `allow_nvlink = false`, which restricts them to pure Ethernet routes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "topology/graph.hpp"

namespace hero::topo {

struct PathConstraints {
  bool allow_nvlink = true;
  /// When allow_nvlink is false, still permit a *single direct* NVLink edge
  /// between the two endpoints. This is NCCL reality for the homogeneous
  /// baselines: intra-node legs always ride NVLink, but multi-hop NVLink
  /// forwarding (detouring through a peer GPU's NIC — HeroServe's trick)
  /// stays forbidden.
  bool allow_nvlink_direct = false;
};

struct PathOptions {
  /// Reference transfer size used to weigh bandwidth against fixed hop
  /// latency during route search.
  Bytes ref_bytes = 1.0 * units::MiB;
  PathConstraints constraints;
};

struct Path {
  std::vector<NodeId> nodes;  ///< src .. dst (size = edges.size() + 1)
  std::vector<EdgeId> edges;

  [[nodiscard]] bool empty() const { return edges.empty(); }
  [[nodiscard]] std::size_t hops() const { return edges.size(); }
  [[nodiscard]] NodeId src() const { return nodes.front(); }
  [[nodiscard]] NodeId dst() const { return nodes.back(); }

  /// Store-and-forward latency of a `bytes` transfer (Eq. 10).
  [[nodiscard]] Time latency(const Graph& g, Bytes bytes) const;
  /// Minimum static capacity along the path.
  [[nodiscard]] Bandwidth bottleneck(const Graph& g) const;
  /// True if the path uses at least one NVLink edge.
  [[nodiscard]] bool uses_nvlink(const Graph& g) const;
};

/// The one-hop path over the NVLink edge between `a` and `b` (same-server
/// GPUs). Throws std::invalid_argument when there is no such edge.
[[nodiscard]] Path direct_nvlink_path(const Graph& g, NodeId a, NodeId b);

namespace detail {
struct Sssp;  // single-source Dijkstra result (defined in paths.cpp)
}  // namespace detail

/// The path service of one graph under one set of options. Every query is
/// answered from a single-source Dijkstra that runs the first time its
/// source is asked about and is kept, so an answer never depends on which
/// queries came before it. The direct-NVLink override of
/// `PathConstraints::allow_nvlink_direct` is applied here and nowhere else.
///
/// Only valid while the graph outlives it and its edges stay unchanged
/// (link faults scale FlowNetwork rates, not the graph). Queries fill the
/// caches, so one Routes must not be queried from two threads at once.
class Routes {
 public:
  /// Routes per pair alternates() searches for.
  static constexpr std::size_t kAlternates = 3;

  explicit Routes(const Graph& g, PathOptions opts = {});
  ~Routes();
  Routes(Routes&&) noexcept;
  Routes& operator=(Routes&&) noexcept;

  /// Shortest path under the constraints; nullopt when unreachable. Every
  /// query below throws std::out_of_range when src or dst >= node_count().
  [[nodiscard]] std::optional<Path> path(NodeId src, NodeId dst) const;
  /// Eq. 10 latency of a `bytes` transfer along path(src, dst); infinity
  /// when the pair is unreachable.
  [[nodiscard]] Time latency(NodeId src, NodeId dst, Bytes bytes) const;
  /// Up to kAlternates edge-diverse routes, cheapest first, found by
  /// iterative edge-penalty re-search (without the direct-NVLink override).
  /// The first is the Dijkstra shortest path. Computed once per pair.
  [[nodiscard]] const std::vector<Path>& alternates(NodeId src,
                                                    NodeId dst) const;

  [[nodiscard]] const Graph& graph() const { return *graph_; }
  [[nodiscard]] const PathOptions& options() const { return opts_; }
  /// Distinct sources whose Dijkstra has run (cache effectiveness / tests).
  [[nodiscard]] std::size_t sources_solved() const;

 private:
  const Graph* graph_;
  PathOptions opts_;
  mutable std::vector<std::unique_ptr<detail::Sssp>> sssp_;  // per source
  mutable std::unordered_map<std::uint64_t, std::vector<Path>> alternates_;
  mutable Path scratch_;  // latency()'s path buffer

  [[nodiscard]] const detail::Sssp& solved(NodeId src) const;
  /// path() into `out`; false when unreachable.
  bool find(NodeId src, NodeId dst, Path& out) const;
};

}  // namespace hero::topo
