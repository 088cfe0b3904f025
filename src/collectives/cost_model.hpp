// Closed-form collective cost models — the planner-side mirror of what the
// runtime engine executes (paper Eq. 7-11).
//
// The offline planner (Alg. 2 `compute_ina_latency` / `compute_ring_latency`)
// and the online scheduler both need cheap latency estimates that do not run
// the event simulation; these helpers compute them from paths and residual
// bandwidths.
#pragma once

#include <span>

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

/// Ring estimate from concrete ring paths (bottleneck and per-step overhead
/// derived from the path hops).
[[nodiscard]] Time ring_all_reduce_latency_on_paths(
    const topo::Graph& g, std::span<const topo::Path> ring_paths,
    Bytes volume_per_gpu);

/// Eq. 8-10: T_ina = max_k T_col(k) + T_agg + max_k T_dis(k), each phase a
/// store-and-forward path transfer of the full per-GPU volume.
[[nodiscard]] Time ina_all_reduce_latency_on_paths(
    const topo::Graph& g, std::span<const topo::Path> up_paths,
    std::span<const topo::Path> down_paths, Bytes volume_per_gpu,
    const CostConfig& cfg = {});

/// Hierarchical estimate: local NVLink ring within each server over
/// `local_sizes`, then the inter-server phase (`wide_latency`), then an
/// NVLink broadcast. Used by the planner when scoring HeroServe's
/// heterogeneous scheme.
[[nodiscard]] Time hierarchical_latency(Bytes volume_per_gpu,
                                        std::span<const std::size_t>
                                            local_sizes,
                                        Bandwidth nvlink_bw,
                                        Time wide_latency);

}  // namespace hero::coll
