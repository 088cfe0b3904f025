// Cluster-level request router for multi-instance serving.
//
// A fleet runs N replicated (prefill, decode) instances behind one
// dispatcher; the router picks the instance for each arriving request.
// Policies:
//   * round-robin   — classic stateless rotation;
//   * random        — seeded uniform choice (baseline for the bench);
//   * shortest-queue — fewest in-flight requests (JSQ);
//   * hero          — Eq. 16-style cost: estimated queue delay from the
//     instance's live load snapshot, the request's predicted decode
//     residence at the instance's planned TPOT, and the KV-transfer
//     latency of this request over the *current* flow network (NetKV-style
//     decode-aware selection). Cross-rack instances whose prefill->decode
//     KV pairs ride congested oversubscribed uplinks price themselves out.
//     With the prefix/KV tier enabled, the cost prices prefix affinity in
//     naturally: an instance holding the request's cached prefix prefills
//     (and streams) only the fresh tokens, so its backlog and KV terms
//     shrink by exactly the reused work.
//
// Every dispatch starts from one ArrivalContext — the request plus a
// same-instant probe of every instance (load snapshot, KV snapshot, live
// path estimates) and the fleet directory's best prefix holder. route()
// consumes the context and returns a RouteDecision: the chosen instance
// plus the prefix action — reuse in place (kHit), stream the blocks from
// the holder over the fabric (kStream, priced against recomputing them at
// the target's prefill rate), or recompute (kRecompute). The fleet layer
// executes the decision; the router never mutates instance state.
//
// The dispatch set is elastic: instances can be added mid-run (autoscaler
// scale-up) and taken out in two steps — drain_instance() stops dispatch
// while in-flight requests finish, remove_instance() retires the drained
// slot for good. Instance ids are stable for the whole run (dead slots are
// never reused), so per-instance counters and reports stay attributable.
//
// Everything is deterministic under a fixed seed: ties are broken by the
// lowest instance id, and the only randomness is the router's own Rng.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "netsim/flownet.hpp"
#include "serving/cluster_sim.hpp"
#include "serving/fleet_config.hpp"
#include "topology/paths.hpp"
#include "workload/trace.hpp"

namespace hero::serve {

/// "No instance" sentinel (prefix holder / stream source fields).
inline constexpr std::size_t kNoInstance =
    std::numeric_limits<std::size_t>::max();

/// Same-instant probe of one instance, taken by Router::make_context().
struct InstanceProbe {
  bool active = false;  ///< eligible for dispatch right now
  LoadSnapshot load;
  KvSnapshot kv;
  /// Live estimates of the instance's static prefill->decode pairing
  /// paths (co-located pairs omitted). Sampled only for the hero policy.
  std::vector<net::PathEstimate> kv_path_estimates;
  /// Block-aligned tokens of the request's prefix this instance has cached
  /// (0 unless the fleet fills it from the per-instance caches).
  std::size_t prefix_tokens = 0;
};

/// Everything one dispatch decision reads, sampled at the arrival instant.
/// The fleet layer builds it (make_context + directory lookup), the router
/// consumes it; tests can synthesize or perturb one directly.
struct ArrivalContext {
  wl::Request request;
  Time now = 0.0;
  /// One probe per registered instance (dead slots stay inactive).
  std::vector<InstanceProbe> probes;
  /// Best prefix holder fleet-wide per the directory (kNoInstance = none).
  std::size_t prefix_instance = kNoInstance;
  /// Block-aligned shareable prefix tokens of this request (0 = tier off,
  /// sessionless request, or sub-block prefix).
  std::size_t prefix_tokens = 0;
};

/// What the router decided to do about the request's cached prefix.
enum class PrefixAction : std::uint8_t {
  kNone,       ///< no shareable prefix in play
  kHit,        ///< target instance already holds the prefix
  kStream,     ///< pull blocks from stream_from before submitting
  kRecompute,  ///< prefill from scratch (cold, or streaming loses)
};

[[nodiscard]] const char* to_string(PrefixAction action);

struct RouteDecision {
  std::size_t instance = 0;  ///< dispatch target
  PrefixAction prefix = PrefixAction::kNone;
  /// Tokens reused (kHit) or streamed (kStream).
  std::size_t reuse_tokens = 0;
  /// Stream source instance (kStream only).
  std::size_t stream_from = kNoInstance;
  /// Total KV bytes a kStream moves across the fabric.
  Bytes stream_bytes = 0.0;
  /// The quote that settled stream-vs-recompute (kStream/kRecompute).
  Time stream_s = 0.0;
  Time recompute_s = 0.0;
};

class Router {
 public:
  /// The router reads the FleetConfig's dispatch fields (policy,
  /// router_seed, cost weights); the fleet-shape and autoscale fields
  /// belong to FleetSim / FleetController.
  Router(net::FlowNetwork& network, FleetConfig config);

  /// Register an instance; returns its id (assignment order). Callable
  /// mid-run — a scaled-up replica joins the dispatch set at the instant
  /// it is added. The KV term uses the instance's static prefill->decode
  /// pairing paths (same i -> i * |dec| / |pre| mapping the serving
  /// simulator streams over), probed against the network's live link state
  /// via estimate_path() at dispatch time.
  std::size_t add_instance(ClusterSim& instance);

  /// Stop dispatching to `id` (in-flight requests keep running). No-op on
  /// an already-draining instance; must not be called on a removed one.
  void drain_instance(std::size_t id);
  /// Retire a drained instance for good. The id stays allocated (counters
  /// keep their slot) but the instance never re-enters the dispatch set.
  void remove_instance(std::size_t id);

  [[nodiscard]] bool is_active(std::size_t id) const {
    return instances_.at(id).state == State::kActive;
  }
  [[nodiscard]] bool is_draining(std::size_t id) const {
    return instances_.at(id).state == State::kDraining;
  }
  /// Instances currently eligible for dispatch.
  [[nodiscard]] std::size_t active_count() const;

  /// Probe every instance at the current instant (loads, KV snapshots,
  /// and — for the hero policy — live path estimates). The caller layers
  /// prefix information on top before routing: per-probe cached tokens
  /// and the directory's best holder.
  [[nodiscard]] ArrivalContext make_context(const wl::Request& request) const;

  /// Pick the instance for the context's request (does not submit it) and
  /// settle the prefix action. Only active instances are considered;
  /// throws when the dispatch set is empty.
  [[nodiscard]] RouteDecision route(const ArrivalContext& ctx);

  /// HeroServe dispatch cost of the context's request on instance `id`;
  /// exposed for tests and the bench harness.
  [[nodiscard]] double cost(std::size_t id, const ArrivalContext& ctx) const;

  [[nodiscard]] std::size_t instance_count() const {
    return instances_.size();
  }
  [[nodiscard]] const FleetConfig& config() const { return config_; }
  /// Requests dispatched per instance so far (dead slots keep their tally).
  [[nodiscard]] const std::vector<std::uint64_t>& dispatched() const {
    return dispatched_;
  }
  /// Total requests dispatched across all instances — the autoscaler's
  /// arrival-rate observable.
  [[nodiscard]] std::uint64_t dispatched_total() const {
    return dispatched_total_;
  }

 private:
  enum class State : std::uint8_t { kActive, kDraining, kRemoved };

  struct Instance {
    ClusterSim* sim = nullptr;
    /// Static shortest paths of the KV pairing (one per prefill GPU).
    std::vector<topo::Path> kv_paths;
    State state = State::kActive;
  };

  net::FlowNetwork* network_;
  FleetConfig config_;
  Rng rng_;
  topo::Routes routes_;  ///< static KV-pairing paths (add_instance, quotes)
  std::vector<Instance> instances_;
  std::vector<std::uint64_t> dispatched_;
  std::uint64_t dispatched_total_ = 0;
  std::size_t next_rr_ = 0;

  [[nodiscard]] double cost_for(const Instance& inst,
                                const InstanceProbe& probe,
                                const wl::Request& request) const;
  /// Ids of active instances, ascending (the dispatch set of one route()).
  [[nodiscard]] std::vector<std::size_t> active_ids() const;
  /// Quote streaming `tokens` of KV from `from`'s decode GPUs to `to`'s
  /// over the live fabric (worst pairing path; infinity when unreachable).
  [[nodiscard]] Time stream_quote(std::size_t from, std::size_t to,
                                  std::size_t tokens, Bytes* bytes) const;
  /// Quote recomputing `tokens` at `id`'s planned prefill token rate.
  [[nodiscard]] Time recompute_quote(std::size_t id,
                                     std::size_t tokens) const;
};

}  // namespace hero::serve
