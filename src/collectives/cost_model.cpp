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

Time ring_all_reduce_latency_on_routes(const topo::Routes& routes,
                                       std::span<const topo::NodeId> ring,
                                       Bytes volume_per_gpu) {
  if (ring.size() <= 1 || volume_per_gpu <= 0) return 0.0;
  const std::size_t members = ring.size();
  const Bytes chunk = volume_per_gpu / static_cast<double>(members);
  Time worst_step = 0.0;
  for (std::size_t i = 0; i < members; ++i) {
    worst_step = std::max(
        worst_step, routes.latency(ring[i], ring[(i + 1) % members], chunk));
  }
  return 2.0 * (static_cast<double>(members) - 1.0) * worst_step;
}

Time ina_all_reduce_latency_on_routes(
    const topo::Routes& routes,
    std::span<const std::vector<topo::NodeId>> groups,
    topo::NodeId agg_switch, Bytes volume_per_gpu, const CostConfig& cfg) {
  Time col = 0.0;
  Time dis = 0.0;
  for (const std::vector<topo::NodeId>& group : groups) {
    const Bytes shard = volume_per_gpu / static_cast<double>(group.size());
    for (topo::NodeId m : group) {
      col = std::max(col, routes.latency(m, agg_switch, shard));
      dis = std::max(dis, routes.latency(agg_switch, m, shard));
    }
  }
  return col + cfg.agg_latency + dis;
}

Time hierarchical_latency(Bytes volume_per_gpu,
                          std::span<const std::vector<topo::NodeId>> groups,
                          Bandwidth nvlink_bw, Time wide_latency) {
  Time local = 0.0;
  Time bcast = 0.0;
  for (const std::vector<topo::NodeId>& group : groups) {
    const std::size_t size = group.size();
    local = std::max(local, ring_all_reduce_latency(size, volume_per_gpu,
                                                    nvlink_bw));
    if (size > 1) {
      bcast = std::max(bcast, transfer_time(volume_per_gpu, nvlink_bw));
    }
  }
  return local + wide_latency + bcast;
}

}  // namespace hero::coll
