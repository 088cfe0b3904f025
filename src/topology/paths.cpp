#include "topology/paths.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <queue>
#include <span>
#include <stdexcept>

namespace hero::topo {

// Single-source Dijkstra result over (node, arrived-via-NVLink) states.
struct detail::Sssp {
  // prev[(node, via)] = (prev_node, prev_via, edge)
  struct Prev {
    NodeId node = kInvalidNode;
    std::uint8_t via = 0;
    EdgeId edge = kInvalidEdge;
  };
  std::vector<std::array<Time, 2>> dist;
  std::vector<std::array<Prev, 2>> prev;
};

namespace {

using detail::Sssp;

// Dijkstra over (node, arrived-via-NVLink) states so the GPU-relay rule can
// be enforced: leaving an interior GPU requires the incoming or outgoing hop
// to be NVLink.
struct State {
  Time dist = 0.0;
  NodeId node = kInvalidNode;
  std::uint8_t via_nvlink = 0;  // 1 if the edge that reached `node` was NVLink
  bool operator>(const State& o) const { return dist > o.dist; }
};

Sssp dijkstra(const Graph& g, NodeId src, const PathOptions& opts,
              std::span<const double> edge_weight_scale) {
  const Time inf = std::numeric_limits<Time>::infinity();
  Sssp r;
  r.dist.assign(g.node_count(), {inf, inf});
  r.prev.assign(g.node_count(), {});

  std::priority_queue<State, std::vector<State>, std::greater<>> pq;
  r.dist[src][0] = 0.0;
  pq.push(State{0.0, src, 0});

  while (!pq.empty()) {
    const State cur = pq.top();
    pq.pop();
    if (cur.dist > r.dist[cur.node][cur.via_nvlink]) continue;

    const Node& n = g.node(cur.node);
    const bool is_source = cur.node == src;
    // Plain servers never relay traffic.
    if (!is_source && n.kind == NodeKind::kServer) continue;

    for (const Adjacency& adj : g.neighbors(cur.node)) {
      const Edge& e = g.edge(adj.edge);
      if (e.kind == LinkKind::kNvLink && !opts.constraints.allow_nvlink)
        continue;
      // GPU relay rule: an interior GPU must touch NVLink on one side.
      if (!is_source && n.kind == NodeKind::kGpu && cur.via_nvlink == 0 &&
          e.kind != LinkKind::kNvLink) {
        continue;
      }
      if (e.capacity <= 0) continue;
      Time w = opts.ref_bytes / e.capacity + e.latency;
      if (!edge_weight_scale.empty()) w *= edge_weight_scale[adj.edge];
      const Time nd = cur.dist + w;
      const std::uint8_t via = e.kind == LinkKind::kNvLink ? 1 : 0;
      if (nd < r.dist[adj.peer][via]) {
        r.dist[adj.peer][via] = nd;
        r.prev[adj.peer][via] = Sssp::Prev{cur.node, cur.via_nvlink, adj.edge};
        pq.push(State{nd, adj.peer, via});
      }
    }
  }
  return r;
}

/// The src -> dst path of a solved source into `out`; false when dst was
/// not reached.
bool extract_path(const Sssp& r, NodeId src, NodeId dst, Path& out) {
  const std::uint8_t best_via =
      r.dist[dst][0] <= r.dist[dst][1] ? std::uint8_t{0} : std::uint8_t{1};
  if (r.dist[dst][best_via] == std::numeric_limits<Time>::infinity()) {
    return false;
  }
  out.nodes.clear();
  out.edges.clear();
  NodeId node = dst;
  std::uint8_t via = best_via;
  while (node != src) {
    const auto& prev = r.prev[node][via];
    out.nodes.push_back(node);
    out.edges.push_back(prev.edge);
    via = prev.via;
    node = prev.node;
  }
  out.nodes.push_back(src);
  std::reverse(out.nodes.begin(), out.nodes.end());
  std::reverse(out.edges.begin(), out.edges.end());
  return true;
}

/// The NVLink edge joining a and b, or kInvalidEdge.
EdgeId nvlink_edge(const Graph& g, NodeId a, NodeId b) {
  for (const Adjacency& adj : g.neighbors(a)) {
    if (adj.peer == b && g.edge(adj.edge).kind == LinkKind::kNvLink) {
      return adj.edge;
    }
  }
  return kInvalidEdge;
}

void require_nodes(std::size_t node_count, NodeId src, NodeId dst) {
  if (src >= node_count || dst >= node_count) {
    throw std::out_of_range("Routes: node id out of range");
  }
}

}  // namespace

Time Path::latency(const Graph& g, Bytes bytes) const {
  Time total = 0.0;
  for (EdgeId e : edges) {
    const Edge& edge = g.edge(e);
    total += transfer_time(bytes, edge.capacity) + edge.latency;
  }
  return total;
}

Bandwidth Path::bottleneck(const Graph& g) const {
  Bandwidth min_bw = std::numeric_limits<Bandwidth>::infinity();
  for (EdgeId e : edges) min_bw = std::min(min_bw, g.edge(e).capacity);
  return edges.empty() ? 0.0 : min_bw;
}

bool Path::uses_nvlink(const Graph& g) const {
  return std::any_of(edges.begin(), edges.end(), [&](EdgeId e) {
    return g.edge(e).kind == LinkKind::kNvLink;
  });
}

Path direct_nvlink_path(const Graph& g, NodeId a, NodeId b) {
  const EdgeId e = nvlink_edge(g, a, b);
  if (e == kInvalidEdge) {
    throw std::invalid_argument("direct_nvlink_path: no NVLink edge");
  }
  return Path{{a, b}, {e}};
}

Routes::Routes(const Graph& g, PathOptions opts)
    : graph_(&g), opts_(opts), sssp_(g.node_count()) {}

Routes::~Routes() = default;
Routes::Routes(Routes&&) noexcept = default;
Routes& Routes::operator=(Routes&&) noexcept = default;

const Sssp& Routes::solved(NodeId src) const {
  std::unique_ptr<Sssp>& slot = sssp_[src];
  if (!slot) slot = std::make_unique<Sssp>(dijkstra(*graph_, src, opts_, {}));
  return *slot;
}

bool Routes::find(NodeId src, NodeId dst, Path& out) const {
  require_nodes(sssp_.size(), src, dst);
  if (src == dst) {
    out.nodes.assign(1, src);
    out.edges.clear();
    return true;
  }
  bool found = extract_path(solved(src), src, dst, out);
  if (!opts_.constraints.allow_nvlink &&
      opts_.constraints.allow_nvlink_direct) {
    const EdgeId e = nvlink_edge(*graph_, src, dst);
    if (e != kInvalidEdge) {
      Path direct{{src, dst}, {e}};
      if (!found || direct.latency(*graph_, opts_.ref_bytes) <
                        out.latency(*graph_, opts_.ref_bytes)) {
        out = std::move(direct);
        found = true;
      }
    }
  }
  return found;
}

std::optional<Path> Routes::path(NodeId src, NodeId dst) const {
  Path p;
  if (!find(src, dst, p)) return std::nullopt;
  return p;
}

Time Routes::latency(NodeId src, NodeId dst, Bytes bytes) const {
  if (!find(src, dst, scratch_)) return std::numeric_limits<Time>::infinity();
  return scratch_.latency(*graph_, bytes);
}

const std::vector<Path>& Routes::alternates(NodeId src, NodeId dst) const {
  require_nodes(sssp_.size(), src, dst);
  const std::uint64_t key = std::uint64_t{src} * sssp_.size() + dst;
  const auto [it, inserted] = alternates_.try_emplace(key);
  std::vector<Path>& result = it->second;
  if (!inserted) return result;
  // Every round re-runs Dijkstra with the edges of the route just found
  // made kPenalty times dearer. Round 0 has no penalties, so its search is
  // the cached per-source solve.
  constexpr double kPenalty = 4.0;
  std::vector<double> scale(graph_->edge_count(), 1.0);
  for (std::size_t round = 0;
       round < 2 * kAlternates && result.size() < kAlternates; ++round) {
    Path path;
    const bool found =
        round == 0
            ? extract_path(solved(src), src, dst, path)
            : extract_path(dijkstra(*graph_, src, opts_, scale), src, dst,
                           path);
    if (!found) break;
    const bool duplicate =
        std::any_of(result.begin(), result.end(),
                    [&](const Path& p) { return p.edges == path.edges; });
    for (EdgeId e : path.edges) scale[e] *= kPenalty;
    if (!duplicate) result.push_back(std::move(path));
  }
  return result;
}

std::size_t Routes::sources_solved() const {
  return static_cast<std::size_t>(
      std::count_if(sssp_.begin(), sssp_.end(),
                    [](const auto& slot) { return slot != nullptr; }));
}

}  // namespace hero::topo
