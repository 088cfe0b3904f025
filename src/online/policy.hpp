// Transmission policies and the per-group policy cost table (paper SIII-D,
// Fig. 5).
//
// A policy c bundles "the transmission scheme (INA or ring), the next hop,
// the transmission path and etc." for one tensor-parallel GPU group. The
// table keeps, per policy, the virtual bandwidth-utilization cost b_c, and a
// penalty matrix f_{(c*,c)} capturing how much load on a selected policy
// bleeds onto the others through shared links (Eq. 17-18).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "collectives/engine.hpp"
#include "netsim/flownet.hpp"
#include "topology/graph.hpp"

namespace hero::online {

/// How Eq. 16's delta (the estimated additional utilization of assigning D
/// bytes to a policy) is computed. The paper prints delta = D/(T_u * b_c);
/// dividing by the *cost* is dimensionally odd and explodes as b_c -> 0, so
/// the default divides by the policy's bottleneck capacity instead. Both are
/// implemented; bench_online_ablation compares them.
enum class DeltaModel : std::uint8_t { kBottleneckCapacity, kPaperLiteral };

struct OnlineConfig {
  Time estimation_window = 100.0 * units::ms;  ///< T_u
  double gamma = 0.3;                          ///< Eq. 18 smoothing factor
  Time sync_period = 50.0 * units::ms;  ///< controller counter-poll period
  DeltaModel delta_model = DeltaModel::kBottleneckCapacity;
  double cost_floor = 1e-3;  ///< epsilon floor for the literal Eq. 16
  /// Control-plane propagation delay for table updates (0 = instantaneous;
  /// > 0 models a slow controller, used in failure-injection tests).
  Time controller_delay = 0.0;
};

/// Surcharge added to an INA policy's cost while its aggregation switch has
/// an exhausted slot pool (only with attach_switches; b_c lives in [0, 1],
/// so 1.0 decisively loses Eq. 16 to any healthy policy).
inline constexpr double kInaUnavailablePenalty = 1.0;

struct Policy {
  std::string name;
  /// Fully resolved plan with bytes = 0; the scheduler stamps the payload
  /// size per collective call.
  coll::AllReducePlan plan;
  /// Every edge the policy touches (wide paths + NVLink-local edges);
  /// sorted ascending and deduplicated (plan_edges()). Drives the sharing
  /// ratio W and cost measurement.
  std::vector<topo::EdgeId> edges;
  /// b_c: virtual bandwidth utilization ratio of the policy's links.
  double cost = 0.0;
  std::uint64_t times_selected = 0;

  /// Bottleneck capacity over `edges` (bytes/s).
  [[nodiscard]] Bandwidth bottleneck_capacity(const topo::Graph& g) const;
};

/// Collect the deduplicated edge set of a resolved plan: its wide paths
/// and NVLink broadcast paths (not its local ring paths).
[[nodiscard]] std::vector<topo::EdgeId> plan_edges(
    const coll::AllReducePlan& plan);

class PolicyTable {
 public:
  PolicyTable(std::vector<Policy> policies, const topo::Graph& graph);

  [[nodiscard]] std::size_t size() const { return policies_.size(); }
  [[nodiscard]] const Policy& policy(std::size_t i) const {
    return policies_.at(i);
  }
  [[nodiscard]] Policy& policy(std::size_t i) { return policies_.at(i); }

  /// Eq. 16: argmin_c J(c, D) with J = b_c + delta(c, D).
  [[nodiscard]] std::size_t select(Bytes data, const OnlineConfig& cfg) const;

  /// The J value select() minimizes (exposed for tests/ablation).
  [[nodiscard]] double cost_of(std::size_t i, Bytes data,
                               const OnlineConfig& cfg) const;

  /// Eq. 17: bump the selected policy by delta and every other policy by
  /// delta * f_{(c*, c)}.
  void apply_selection(std::size_t selected, Bytes data,
                       const OnlineConfig& cfg);

  /// Eq. 18: refresh the penalty matrix from the sharing ratios
  /// W_{(c*,c)} = sum_{e in c* ∩ c} B(e) / sum_{e in c} B(e), where B(e) is
  /// the monitored utilization-weighted bandwidth of edge e (capacity when
  /// no network measurements are available).
  void update_penalties(const net::FlowNetwork* net, const OnlineConfig& cfg);

  /// Controller recalibration: set each b_c to the measured maximum link
  /// utilization over the policy's edges.
  void sync_costs_from_network(const net::FlowNetwork& net);

  [[nodiscard]] double penalty(std::size_t selected, std::size_t other) const {
    return penalty_.at(selected).at(other);
  }

 private:
  const topo::Graph* graph_;
  std::vector<Policy> policies_;
  std::vector<std::vector<double>> penalty_;  // f_{(c*, c)}

  // update_penalties scratch: policy c's edge weights are
  // edge_weights_[weight_begin_[c], weight_begin_[c + 1]), their sum
  // weight_total_[c].
  std::vector<Bandwidth> edge_weights_;
  std::vector<std::size_t> weight_begin_;
  std::vector<Bandwidth> weight_total_;
};

}  // namespace hero::online
