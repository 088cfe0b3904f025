#include "online/policy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/check.hpp"

namespace hero::online {
namespace {

/// Eq. 16's delta: the cost bump of sending `data` (> 0) over `p`, under
/// the configured delta model.
double eq16_delta(const Policy& p, const topo::Graph& g, Bytes data,
                  const OnlineConfig& cfg) {
  switch (cfg.delta_model) {
    case DeltaModel::kBottleneckCapacity: {
      const Bandwidth bw = p.bottleneck_capacity(g);
      return bw > 0 ? data / (cfg.estimation_window * bw) : 0.0;
    }
    case DeltaModel::kPaperLiteral: {
      const double b = std::max(p.cost, cfg.cost_floor);
      return raw(data) / (raw(cfg.estimation_window) * b);
    }
  }
  return 0.0;
}

}  // namespace

Bandwidth Policy::bottleneck_capacity(const topo::Graph& g) const {
  Bandwidth min_bw = std::numeric_limits<Bandwidth>::infinity();
  for (topo::EdgeId e : edges) min_bw = std::min(min_bw, g.edge(e).capacity);
  return edges.empty() ? 0.0 : min_bw;
}

std::vector<topo::EdgeId> plan_edges(const coll::AllReducePlan& plan) {
  // Sorted + deduplicated: the edge order feeds floating-point
  // accumulations in update_penalties(), so it must not depend on hash
  // order (summation is not associative).
  std::vector<topo::EdgeId> edges;
  auto add_path = [&](const topo::Path& p) {
    edges.insert(edges.end(), p.edges.begin(), p.edges.end());
  };
  for (const topo::Path& p : plan.ring_paths) add_path(p);
  for (const topo::Path& p : plan.up_paths) add_path(p);
  for (const topo::Path& p : plan.down_paths) add_path(p);
  for (const topo::Path& p : plan.broadcast_paths) add_path(p);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

PolicyTable::PolicyTable(std::vector<Policy> policies,
                         const topo::Graph& graph)
    : graph_(&graph), policies_(std::move(policies)) {
  if (policies_.empty()) {
    throw std::invalid_argument("PolicyTable: no policies");
  }
  for (const Policy& p : policies_) {
    // Policy/link bookkeeping: every policy must carry its deduplicated,
    // deterministically ordered edge set (plan_edges() contract) — the
    // Eq. 18 sharing ratios are summed in this order, and membership tests
    // binary-search it.
    HERO_REQUIRE(std::is_sorted(p.edges.begin(), p.edges.end()) &&
                     std::adjacent_find(p.edges.begin(), p.edges.end()) ==
                         p.edges.end(),
                 "policy {} edge set not sorted/unique", p.name);
  }
  // Penalties start at the static sharing ratios computed from capacities.
  penalty_.assign(policies_.size(), std::vector<double>(policies_.size(), 0));
  update_penalties(nullptr, OnlineConfig{});
}

double PolicyTable::cost_of(std::size_t i, Bytes data,
                            const OnlineConfig& cfg) const {
  const Policy& p = policies_.at(i);
  const double delta = data > 0 ? eq16_delta(p, *graph_, data, cfg) : 0.0;
  return p.cost + delta;
}

std::size_t PolicyTable::select(Bytes data, const OnlineConfig& cfg) const {
  std::size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < policies_.size(); ++i) {
    const double j = cost_of(i, data, cfg);
    if (j < best_cost) {
      best_cost = j;
      best = i;
    }
  }
  return best;
}

void PolicyTable::apply_selection(std::size_t selected, Bytes data,
                                  const OnlineConfig& cfg) {
  if (selected >= policies_.size()) {
    throw std::out_of_range("apply_selection: policy index");
  }
  Policy& sel = policies_[selected];
  ++sel.times_selected;
  if (data <= 0) return;

  const double delta = eq16_delta(sel, *graph_, data, cfg);
  HERO_INVARIANT(delta >= 0.0 && std::isfinite(delta),
                 "Eq. 16 delta {} for policy {}", delta, sel.name);
  for (std::size_t c = 0; c < policies_.size(); ++c) {
    if (c == selected) {
      policies_[c].cost += delta;
    } else {
      policies_[c].cost += delta * penalty_[selected][c];
    }
    // The cost table only ever accumulates non-negative bumps on top of
    // measured utilization; a negative or non-finite entry means the
    // Eq. 17 bookkeeping (or a penalty weight) is corrupt.
    HERO_INVARIANT(policies_[c].cost >= 0.0 && std::isfinite(policies_[c].cost),
                   "cost table corrupt: b[{}] = {}", c, policies_[c].cost);
  }
}

void PolicyTable::update_penalties(const net::FlowNetwork* net,
                                   const OnlineConfig& cfg) {
  // Weight of an edge inside the sharing ratio: the monitored busy
  // bandwidth when measurements exist (B(e*) "monitored by GPUs and
  // programmable switches"), otherwise static capacity.
  auto edge_weight = [&](topo::EdgeId e) -> Bandwidth {
    const Bandwidth cap = graph_->edge(e).capacity;
    if (net != nullptr) {
      // Busy bandwidth, floored so idle shared links still register.
      return std::max(net->edge_utilization(e), 0.05) * cap;
    }
    return cap;
  };

  // Every policy's edge weights and their total, once per call: the
  // weights do not depend on the selected policy. Each total and each
  // shared sum accumulates in the policy's own (sorted) edge order.
  weight_begin_.resize(policies_.size() + 1);
  weight_total_.resize(policies_.size());
  edge_weights_.clear();
  for (std::size_t c = 0; c < policies_.size(); ++c) {
    weight_begin_[c] = edge_weights_.size();
    Bandwidth total = 0.0;
    for (topo::EdgeId e : policies_[c].edges) {
      const Bandwidth w = edge_weight(e);
      total += w;
      edge_weights_.push_back(w);
    }
    weight_total_[c] = total;
  }
  weight_begin_[policies_.size()] = edge_weights_.size();

  for (std::size_t sel = 0; sel < policies_.size(); ++sel) {
    // plan_edges() lists are sorted and unique: membership is a binary
    // search.
    const std::vector<topo::EdgeId>& sel_edges = policies_[sel].edges;
    for (std::size_t other = 0; other < policies_.size(); ++other) {
      if (other == sel) {
        penalty_[sel][other] = 1.0;
        continue;
      }
      const std::vector<topo::EdgeId>& edges = policies_[other].edges;
      Bandwidth shared = 0.0;
      for (std::size_t k = 0; k < edges.size(); ++k) {
        if (std::binary_search(sel_edges.begin(), sel_edges.end(),
                               edges[k])) {
          shared += edge_weights_[weight_begin_[other] + k];
        }
      }
      const Bandwidth total = weight_total_[other];
      const double ratio = total > 0 ? shared / total : 0.0;
      penalty_[sel][other] =
          (1.0 - cfg.gamma) * penalty_[sel][other] + cfg.gamma * ratio;
      // Eq. 18 sharing ratios are convex combinations of values in [0,1].
      HERO_INVARIANT(penalty_[sel][other] >= 0.0 &&
                         penalty_[sel][other] <= 1.0 + 1e-12,
                     "penalty f[{}][{}] = {}", sel, other,
                     penalty_[sel][other]);
    }
  }
}

void PolicyTable::sync_costs_from_network(const net::FlowNetwork& net) {
  for (Policy& p : policies_) {
    double max_util = 0.0;
    for (topo::EdgeId e : p.edges) {
      max_util = std::max(max_util, net.edge_utilization(e));
    }
    p.cost = max_util;
  }
}

}  // namespace hero::online
