// Collective-communication execution engine over the flow network.
//
// The engine executes fully *resolved* plans: the caller (offline planner
// output or the online scheduler) has already decided the scheme (ring /
// synchronous INA / asynchronous INA), the aggregation switch, and every
// transmission path. The engine turns that decision into flows, enforces
// switch slot admission, and reports phase timestamps.
//
// Supported shapes:
//  * flat ring all-reduce           (the NCCL baseline, Eq. 11 semantics)
//  * flat INA all-reduce            (SwitchML/ATP: collect -> agg -> dist)
//  * hierarchical all-reduce        (HeroServe: NVLink-local ring, one leader
//                                    per server joins the inter-server phase,
//                                    NVLink broadcast back — Fig. 2(b))
//  * point-to-point transfer        (pipeline activations, KV cache)
//
// Asynchronous INA (ATP) falls back to end-host PS aggregation when the
// switch rejects the reservation, reproducing ATP's best-effort degradation
// under slot pressure.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "collectives/cost_model.hpp"
#include "netsim/flownet.hpp"
#include "switchsim/switch_agent.hpp"

namespace hero::coll {

enum class Scheme : std::uint8_t { kRing, kInaSync, kInaAsync };

[[nodiscard]] const char* to_string(Scheme scheme);

/// Path lookup used by plan builders; implementations: static shortest
/// paths (shortest_path_router), the NCCL-style baseline router.
using Router = std::function<topo::Path(topo::NodeId, topo::NodeId)>;

struct AllReducePlan {
  Bytes bytes = 0;  ///< per-GPU payload (the all-reduce tensor size)

  /// Hierarchical phase: same-server groups (leader at index 0). Empty for
  /// flat plans.
  std::vector<std::vector<topo::NodeId>> local_groups;

  /// Inter-server phase participants (every member when flat, the leaders
  /// when hierarchical).
  Scheme scheme = Scheme::kRing;
  std::vector<topo::NodeId> wide_members;

  /// scheme == kRing: ring_paths[i] routes wide_members[i] ->
  /// wide_members[(i+1) % n].
  std::vector<topo::Path> ring_paths;

  /// scheme == kIna*: collection/distribution paths per wide member.
  topo::NodeId switch_node = topo::kInvalidNode;
  std::vector<topo::Path> up_paths;
  std::vector<topo::Path> down_paths;
  /// Per-wide-member payload fraction (SwitchML sharding: after a local
  /// reduce-scatter every GPU streams only its 1/g shard through its own
  /// NIC). Empty = every member ships the full payload.
  std::vector<double> wide_scale;
  std::uint32_t slots = 8;  ///< aggregator slots the job reserves

  /// scheme == kInaAsync: end-host fallback aggregator (the testbed PS).
  topo::NodeId fallback_node = topo::kInvalidNode;
  std::vector<topo::Path> fallback_up;
  std::vector<topo::Path> fallback_down;

  [[nodiscard]] bool flat() const { return local_groups.empty(); }
};

struct AllReduceResult {
  Time start = 0;
  Time wide_start = 0;   ///< local phase done / switch granted
  Time collected = 0;    ///< INA: all contributions at aggregation point
  Time end = 0;
  Scheme scheme = Scheme::kRing;
  bool used_fallback = false;

  [[nodiscard]] Time latency() const { return end - start; }
};

struct EngineConfig {
  CostConfig cost;  ///< agg latency, host fallback bandwidth
};

class CollectiveEngine {
 public:
  CollectiveEngine(net::FlowNetwork& network, sw::SwitchRegistry& switches,
                   EngineConfig config = {});

  CollectiveEngine(const CollectiveEngine&) = delete;
  CollectiveEngine& operator=(const CollectiveEngine&) = delete;
  ~CollectiveEngine();  // out of line: Op is incomplete here

  using Done = std::function<void(const AllReduceResult&)>;

  /// Execute an all-reduce; `done` fires when every member holds the result.
  void all_reduce(AllReducePlan plan, Done done);

  /// One-way transfer along a resolved path (KV cache, pipeline boundary).
  void transfer(const topo::Path& path, Bytes bytes,
                std::function<void()> done);

  [[nodiscard]] net::FlowNetwork& network() { return *network_; }
  [[nodiscard]] sw::SwitchRegistry& switches() { return *switches_; }
  [[nodiscard]] const EngineConfig& config() const { return config_; }

  // --- aggregate statistics ---
  std::uint64_t ops_completed = 0;
  std::uint64_t fallbacks_taken = 0;

 private:
  struct Op;

  net::FlowNetwork* network_;
  sw::SwitchRegistry* switches_;
  EngineConfig config_;
  std::uint64_t next_op_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Op>> ops_;

  void start_local_phase(Op& op);
  void start_wide_phase(Op& op);
  void run_ring(Op& op);
  void ring_step(Op& op);
  void run_ina(Op& op);
  void ina_collect(Op& op);
  void run_fallback(Op& op);
  void start_broadcast_phase(Op& op);
  void finish(Op& op);
};

// --- plan builders -------------------------------------------------------

/// Flat ring plan over `members` in the given order; paths via `route`.
[[nodiscard]] AllReducePlan make_ring_plan(
    std::vector<topo::NodeId> members, Bytes bytes, const Router& route);

/// Flat INA plan aggregating at `agg_switch`; async plans may carry a
/// fallback host.
[[nodiscard]] AllReducePlan make_ina_plan(
    std::vector<topo::NodeId> members, Bytes bytes, topo::NodeId agg_switch,
    Scheme scheme, const Router& route,
    topo::NodeId fallback = topo::kInvalidNode, std::uint32_t slots = 8);

/// Hierarchical plan: members grouped by server. For ring schemes the
/// per-server leaders run the wide phase with the full payload; for INA
/// schemes the wide phase is *sharded* — a local reduce-scatter leaves each
/// GPU with a 1/g shard which it streams to `agg_switch` through its own
/// NIC (SwitchML's per-worker streams), followed by a local all-gather.
[[nodiscard]] AllReducePlan make_hierarchical_plan(
    const topo::Graph& g, std::vector<topo::NodeId> members, Bytes bytes,
    Scheme wide_scheme, const Router& route,
    topo::NodeId agg_switch = topo::kInvalidNode,
    topo::NodeId fallback = topo::kInvalidNode, std::uint32_t slots = 8);

/// Router resolving pairs through `routes`' static shortest paths (throws
/// std::runtime_error on unreachable pairs). `routes` must outlive the
/// router.
[[nodiscard]] Router shortest_path_router(const topo::Routes& routes);

/// Aggregation-switch election: switches with aggregator slots, ranked by
/// shortest-path latency (1 MiB reference) from `members`; at most `count`
/// returned. Used by the offline planner (Alg. 2 step 2), the online policy
/// builder, and the INA baselines, each with the Routes it already holds,
/// so the per-member Dijkstra is shared across every election it runs.
[[nodiscard]] std::vector<topo::NodeId> rank_aggregation_switches(
    const topo::Routes& routes, const std::vector<topo::NodeId>& members,
    std::size_t count);

}  // namespace hero::coll
