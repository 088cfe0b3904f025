// Closed-form collective cost models — the planner-side mirror of what the
// runtime engine executes (paper Eq. 7-11).
//
// The offline planner (Alg. 2 `compute_ina_latency` / `compute_ring_latency`)
// prices a group's ring and INA options with these estimates instead of
// running the event simulation; they read Eq. 10 path latencies from
// `topo::Routes`. A hierarchical group is described by its server layout,
// `topo::Graph::split_by_server`.
#pragma once

#include <span>
#include <vector>

#include "topology/graph.hpp"
#include "topology/paths.hpp"

namespace hero::coll {

struct CostConfig {
  /// T_agg: in-switch aggregation constant (paper: ~1 us, [42][43]).
  Time agg_latency = 1.0 * units::us;
  /// End-host (PS) aggregation bandwidth for the ATP fallback path.
  Bandwidth host_agg_bw = 50.0 * units::GBps;
};

/// Eq. 11: T_ring = 2 (P-1) * D_rg / min_e B(e), where D_rg is the per-step
/// chunk (= volume_per_gpu / P for all-reduce) and the bottleneck is the
/// slowest link on any ring hop. `per_step_overhead` adds the fixed hop
/// latency paid on every step.
[[nodiscard]] Time ring_all_reduce_latency(std::size_t members,
                                           Bytes volume_per_gpu,
                                           Bandwidth bottleneck,
                                           Time per_step_overhead = 0.0);

/// Ring estimate over shortest routes: every step moves one chunk
/// (volume_per_gpu / P) from each ring member to the next concurrently, and
/// the step time is set by the slowest neighbour route (Eq. 10
/// store-and-forward over its hops). Infinity when a pair is unreachable.
[[nodiscard]] Time ring_all_reduce_latency_on_routes(
    const topo::Routes& routes, std::span<const topo::NodeId> ring,
    Bytes volume_per_gpu);

/// Eq. 8-10 over shortest routes: T_ina = max_k T_col(k) + T_agg +
/// max_k T_dis(k), each phase a store-and-forward transfer between member k
/// and `agg_switch`. Every member of a group streams volume_per_gpu / |group|
/// (sharded INA); a flat member list is one group per GPU, whose members
/// stream the full volume.
[[nodiscard]] Time ina_all_reduce_latency_on_routes(
    const topo::Routes& routes,
    std::span<const std::vector<topo::NodeId>> groups,
    topo::NodeId agg_switch, Bytes volume_per_gpu,
    const CostConfig& cfg = {});

/// Hierarchical estimate: local NVLink ring within each server group, then
/// the inter-server phase (`wide_latency`), then an NVLink broadcast. Used
/// by the planner when scoring HeroServe's heterogeneous scheme.
[[nodiscard]] Time hierarchical_latency(
    Bytes volume_per_gpu, std::span<const std::vector<topo::NodeId>> groups,
    Bandwidth nvlink_bw, Time wide_latency);

}  // namespace hero::coll
