#include "collectives/cost_model.hpp"

#include <algorithm>
#include <limits>

namespace hero::coll {

Time ring_all_reduce_latency(std::size_t members, Bytes volume_per_gpu,
                             Bandwidth bottleneck, Time per_step_overhead) {
  if (members <= 1 || volume_per_gpu <= 0) return 0.0;
  if (bottleneck <= 0) return std::numeric_limits<Time>::infinity();
  const double steps = 2.0 * (static_cast<double>(members) - 1.0);
  const Bytes chunk = volume_per_gpu / static_cast<double>(members);
  return steps * (chunk / bottleneck + per_step_overhead);
}

Time ring_all_reduce_latency_on_paths(const topo::Graph& g,
                                      std::span<const topo::Path> ring_paths,
                                      Bytes volume_per_gpu) {
  if (ring_paths.size() <= 1 || volume_per_gpu <= 0) return 0.0;
  // Every step moves one chunk across every ring edge concurrently; the step
  // time is set by the slowest neighbour path (store-and-forward over its
  // hops).
  const std::size_t members = ring_paths.size();
  const Bytes chunk = volume_per_gpu / static_cast<double>(members);
  Time worst_step = 0.0;
  for (const topo::Path& p : ring_paths) {
    if (p.empty()) return std::numeric_limits<Time>::infinity();
    worst_step = std::max(worst_step, p.latency(g, chunk));
  }
  return 2.0 * (static_cast<double>(members) - 1.0) * worst_step;
}

Time ina_all_reduce_latency_on_paths(const topo::Graph& g,
                                     std::span<const topo::Path> up_paths,
                                     std::span<const topo::Path> down_paths,
                                     Bytes volume_per_gpu,
                                     const CostConfig& cfg) {
  if (up_paths.empty() || volume_per_gpu <= 0) return 0.0;
  Time col = 0.0;
  for (const topo::Path& p : up_paths) {
    col = std::max(col, p.latency(g, volume_per_gpu));
  }
  Time dis = 0.0;
  for (const topo::Path& p : down_paths) {
    dis = std::max(dis, p.latency(g, volume_per_gpu));
  }
  return col + cfg.agg_latency + dis;
}

Time hierarchical_latency(Bytes volume_per_gpu,
                          std::span<const std::size_t> local_sizes,
                          Bandwidth nvlink_bw, Time wide_latency) {
  Time local = 0.0;
  Time bcast = 0.0;
  for (std::size_t size : local_sizes) {
    local = std::max(local, ring_all_reduce_latency(size, volume_per_gpu,
                                                    nvlink_bw));
    if (size > 1) {
      bcast = std::max(bcast, transfer_time(volume_per_gpu, nvlink_bw));
    }
  }
  return local + wide_latency + bcast;
}

}  // namespace hero::coll
