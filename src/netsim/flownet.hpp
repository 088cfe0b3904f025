// Fluid flow-level network simulation over a topology graph.
//
// A Transfer moves `bytes` along a multi-hop Path with store-and-forward
// semantics: the payload occupies exactly one directed link at a time and
// advances hop by hop (this matches the paper's latency model, Eq. 10, and
// the Fig. 2 arithmetic). While on a link, a transfer is a *flow*; all flows
// on the network share link bandwidth max-min fairly, recomputed whenever a
// flow starts or finishes. Congestion therefore emerges naturally: bursty
// concurrent collectives slow each other down on shared Ethernet links while
// NVLink hops stay essentially free.
//
// The engine is incremental: per-directed-link flow indexes plus a dirty
// set mean a transfer add/remove/degrade re-solves only the bottleneck
// component it touches, not the whole fabric (the max-min solution
// decomposes exactly by connected components of the flow/link occupancy
// graph). Flows only accrue progress and reschedule their completion events
// when their rate actually changes, so an event on one rack costs nothing
// on an idle rack. set_full_solve() forces the classic whole-fabric solve —
// byte-identical output, used by the equivalence gates — and
// set_solve_validation() cross-checks every incremental round against a
// full solve (on by default in HERO_VALIDATE builds).
//
// The network also keeps per-directed-link utilization accounting — the
// simulated equivalent of the switch hardware counters and DCGM NVLink
// counters the paper's agents poll.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/inline_function.hpp"
#include "netsim/sim.hpp"
#include "topology/graph.hpp"
#include "topology/paths.hpp"

namespace hero::obs {
class Gauge;
class MetricsRegistry;
}  // namespace hero::obs

namespace hero::net {

using TransferId = std::uint64_t;
inline constexpr TransferId kInvalidTransfer = 0;

/// Directed view of an undirected edge: forward = (edge.a -> edge.b).
struct DirectedLink {
  topo::EdgeId edge = topo::kInvalidEdge;
  bool forward = true;

  [[nodiscard]] std::size_t index() const {
    return static_cast<std::size_t>(edge) * 2 + (forward ? 0 : 1);
  }
};

/// Completion callback of a transfer (move-only; small captures inline).
using TransferCallback = InlineFunction<void(TransferId)>;

struct TransferOptions {
  /// Invoked at completion of the final hop.
  TransferCallback on_complete;
  /// Optional priority weight for max-min sharing (>= share of bandwidth on
  /// contended links proportional to weight). 1.0 = normal.
  double weight = 1.0;
  /// Pipelined (wormhole) mode: the flow occupies every hop of its path
  /// simultaneously at one end-to-end rate, paying the fixed hop latencies
  /// once up front. Matches RDMA bulk streams (KV-cache transfers); the
  /// default store-and-forward mode matches the paper's aggregation-path
  /// model (Eq. 10).
  bool pipelined = false;
};

/// Answer to "what would this path give a new flow right now?" — one probe
/// against the live link indexes, replacing the per-edge
/// residual_bandwidth()/fair_share_bandwidth() vector scans (each of which
/// cost a full fabric pass per query).
struct PathEstimate {
  /// Spare capacity on the path's tightest directed link. Zero on a
  /// saturated path — the wrong lens for admission (see fair_share).
  Bandwidth residual = std::numeric_limits<Bandwidth>::infinity();
  /// Post-admission rate estimate for one new unit-weight flow: per
  /// directed link max(residual, C/(n+1)) where n counts in-flight flows on
  /// that direction, minimized over the path. On a saturated link a new
  /// flow squeezes the incumbents down to fair share rather than being
  /// starved, so this never collapses to zero on a healthy link.
  Bandwidth fair_share = std::numeric_limits<Bandwidth>::infinity();
  /// Edge whose post-admission estimate is the path minimum.
  topo::EdgeId bottleneck_link = topo::kInvalidEdge;
  /// Sum of the path's fixed hop latencies.
  Time latency = 0.0;
};

/// Engine counters (deterministic: pure functions of the event schedule).
/// `flows_active - flows_solved` is the work the dirty-set machinery avoided
/// versus a whole-fabric solve per round.
struct FlowNetStats {
  std::uint64_t reallocations = 0;  ///< rate-update rounds
  std::uint64_t solves = 0;         ///< component solves executed
  std::uint64_t flows_solved = 0;   ///< flow rates recomputed, summed
  std::uint64_t flows_active = 0;   ///< in-flight flows per round, summed
  std::uint64_t validations = 0;    ///< full-solve cross-checks run
  std::uint64_t mismatches = 0;     ///< cross-check disagreements (want 0)
};

class FlowNetwork {
 public:
  FlowNetwork(sim::Simulator& simulator, const topo::Graph& graph);

  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Begin transferring `bytes` along `path`. Completion fires
  /// opts.on_complete. Zero-length paths (src == dst) complete immediately
  /// (scheduled, not inline).
  TransferId start_transfer(const topo::Path& path, Bytes bytes,
                            TransferOptions opts = {});

  /// Abort an in-flight transfer (no completion callback fires). O(pool
  /// size): a diagnostics and test path, not a serving one.
  void cancel_transfer(TransferId id);

  [[nodiscard]] std::size_t active_transfers() const {
    return active_count_;
  }

  // --- monitoring (the "hardware counters") ---

  /// Instantaneous utilization in [0,1] of a directed link.
  [[nodiscard]] double utilization(DirectedLink link) const;
  /// Higher of the two directions of an edge.
  [[nodiscard]] double edge_utilization(topo::EdgeId edge) const;
  /// Probe a path against the live link state: residual, post-admission
  /// fair share, bottleneck edge, fixed latency. O(hops). An empty path
  /// reports infinite bandwidth and no bottleneck.
  [[nodiscard]] PathEstimate estimate_path(const topo::Path& path) const;
  /// Total bytes delivered on a directed link since construction,
  /// including the partial progress of flows currently on it.
  [[nodiscard]] Bytes delivered_bytes(DirectedLink link) const;

  // --- failure injection ---

  /// Scale the usable capacity of an edge (both directions); factor in
  /// (0, 1]. Rates are recomputed immediately.
  void set_link_degradation(topo::EdgeId edge, double factor);
  /// Current degradation factor of an edge (1.0 = healthy).
  [[nodiscard]] double link_degradation(topo::EdgeId edge) const {
    return degradation_.at(edge);
  }

  // --- engine controls ---

  /// Force the classic whole-fabric max-min solve every round. The schedule
  /// is byte-identical to incremental mode (the equivalence suite and the
  /// determinism gate's --full-solve phase depend on exactly that); only
  /// the solver_* counters differ.
  void set_full_solve(bool on) { full_solve_ = on; }
  [[nodiscard]] bool full_solve() const { return full_solve_; }
  /// Cross-check every incremental round against a full solve; mismatches
  /// trip a HERO_INVARIANT and count in stats(). Defaults to on in
  /// HERO_VALIDATE builds.
  void set_solve_validation(bool on) { validate_solves_ = on; }
  [[nodiscard]] const FlowNetStats& stats() const { return stats_; }

  [[nodiscard]] const topo::Graph& graph() const { return *graph_; }
  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }

  /// Log the state of every active transfer (diagnostics).
  void debug_dump() const;

 private:
  struct Transfer {
    TransferId id = kInvalidTransfer;  // kInvalidTransfer marks a free slot
    topo::Path path;
    Bytes bytes = 0;         // per-hop payload size
    std::size_t hop = 0;     // current hop index into path.edges
    Bytes hop_left = 0;      // bytes left on the current hop/stream
    Bandwidth rate = 0;      // current allocated rate (bytes/s)
    double weight = 1.0;
    bool pipelined = false;  // occupies all hops at once when true
    bool in_flight = false;  // false while waiting out hop latency
    Time last_update = 0;
    sim::EventId pending_event = sim::kInvalidEvent;  // activation/completion
    TransferCallback on_complete;
    /// Directed links occupied while in flight: the current hop for
    /// store-and-forward flows, every hop for pipelined ones. Cached at
    /// activation so the hot loops never re-derive directions.
    std::vector<DirectedLink> spans;
  };

  [[nodiscard]] DirectedLink link_at(const Transfer& t,
                                     std::size_t hop) const;
  [[nodiscard]] Bandwidth link_capacity(DirectedLink link) const;
  [[nodiscard]] std::string flow_label(const Transfer& t) const;

  // Pool / index plumbing.
  [[nodiscard]] std::uint32_t acquire_slot();
  void retire_slot(std::uint32_t slot);
  void attach_links(std::uint32_t slot);
  void detach_links(std::uint32_t slot);
  void mark_dirty(std::size_t link_index);

  // Engine phases.
  void begin_hop(std::uint32_t slot);
  void activate(std::uint32_t slot, TransferId id);
  void on_hop_complete(std::uint32_t slot, TransferId id);
  /// Accrue bytes at the current rate through `now`. Called only when the
  /// flow's rate is about to change (or its hop ends): accrual chunk
  /// boundaries are exactly the rate-change points, which is what makes
  /// incremental and full-solve arithmetic bitwise identical.
  void progress_transfer(Transfer& t, Time now);
  void reschedule_completion(std::uint32_t slot);
  /// Re-solve the bottleneck component(s) reachable from the dirty links,
  /// apply rate changes, refresh per-link accounting. The incremental
  /// counterpart of the old progress-everything / solve-everything /
  /// reschedule-everything round.
  void reallocate_dirty();
  void collect_all_in_flight(std::vector<std::uint32_t>& out) const;
  /// Weighted progressive filling over `slots` (must be sorted by transfer
  /// id) on `links` (ascending directed-link indexes; every link the slots
  /// span, and possibly idle ones); writes per-slot rates into `rates`.
  /// Mutates no flow state, only the solver scratch below.
  void solve_component(const std::vector<std::uint32_t>& slots,
                       const std::vector<std::size_t>& links,
                       std::vector<Bandwidth>& rates);
  void refresh_link(std::size_t index, Time now,
                    obs::MetricsRegistry* metrics);
  void validate_against_full_solve();

  sim::Simulator* sim_;
  const topo::Graph* graph_;
  TransferId next_id_ = 1;

  /// Transfer pool: slots are recycled through free_slots_ so steady-state
  /// transfer churn performs no allocation. No id -> slot index is kept:
  /// the engine hands each event its slot, and cancel_transfer() (which no
  /// serving path calls) scans the pool instead of paying a hash-node
  /// allocation on every transfer.
  std::vector<Transfer> pool_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t active_count_ = 0;  ///< occupied pool slots
  std::size_t in_flight_count_ = 0;

  std::vector<double> degradation_;          // per edge
  std::vector<Bandwidth> link_rate_;         // per directed link, busy rate
  std::vector<Bytes> link_delivered_;        // per directed link
  std::vector<obs::Gauge*> link_gauges_;     // lazily bound metric gauges

  /// Per-directed-link in-flight flow index, each kept sorted by transfer
  /// id so every solve and rate sum runs in id order (determinism).
  std::vector<std::vector<std::uint32_t>> link_flows_;

  // Dirty set + epoch-marked BFS scratch (no per-round allocation).
  std::vector<std::size_t> dirty_links_;
  std::vector<std::uint8_t> link_is_dirty_;
  std::vector<std::uint8_t> link_force_refresh_;
  std::vector<std::uint64_t> link_mark_;
  std::vector<std::uint64_t> flow_mark_;
  std::uint64_t mark_epoch_ = 0;
  std::vector<std::size_t> bfs_stack_;
  std::vector<std::uint32_t> comp_flows_;
  std::vector<std::size_t> comp_links_;
  std::vector<Bandwidth> solved_rates_;

  // solve_component scratch (grows on first use; no per-solve allocation).
  struct SolveLink {
    Bandwidth residual = 0.0;
    double weight_sum = 0.0;
    bool live = true;  ///< false once the link was a round's bottleneck
  };
  std::vector<SolveLink> solve_state_;       // parallel to the solve's links
  std::vector<std::uint32_t> link_slot_;     // directed link -> its position
  std::vector<std::uint32_t> solve_unfixed_; // positions in `slots` not fixed
  std::vector<std::uint32_t> validate_flows_;
  std::vector<std::size_t> validate_links_;
  std::vector<Bandwidth> validate_rates_;

  bool full_solve_ = false;
  bool validate_solves_ = check::enabled();
  FlowNetStats stats_;
};

}  // namespace hero::net
