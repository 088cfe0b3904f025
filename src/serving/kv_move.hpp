// The one KV move over the fabric, used for the prefill->decode hand-off
// of every prefill batch (ClusterSim) and for cross-instance prefix streams
// (FleetSim). The bytes are sharded over the source GPUs, each shard rides
// one pipelined flow to its paired destination GPU, and the router prices
// the move as its slowest shard.
//
// Known gap: the router quotes each shard on the static shortest path
// (topo::Routes::path), while send_kv() sends it on
// CommScheduler::unicast_path, which for HeroServe is the least-loaded of
// three alternates. Under congestion the two routes differ.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "collectives/comm_scheduler.hpp"
#include "netsim/flownet.hpp"

namespace hero::serve {

/// (source GPU, destination GPU) of one shard.
using KvShard = std::pair<topo::NodeId, topo::NodeId>;

/// The shards of a move from `src` to `dst`, in source order: source i
/// sends to destination i * |dst| / |src|. Empty when either side is.
[[nodiscard]] std::vector<KvShard> kv_shards(
    const std::vector<topo::NodeId>& src,
    const std::vector<topo::NodeId>& dst);

/// Max over the shard paths of shard_bytes / fair_share + latency:
/// infinite when a fair share is 0, and 0 with no paths.
[[nodiscard]] Time slowest_shard(
    const std::vector<net::PathEstimate>& estimates, Bytes shard_bytes);

/// Send `shard_bytes` along every shard, one pipelined flow each on
/// unicast_path, traced as `kv_transfer` async spans. `done` runs once,
/// after the last flow lands, or synchronously when there is nothing to
/// move. Returns the number of flows started.
std::size_t send_kv(net::FlowNetwork& network, coll::CommScheduler& scheduler,
                    const std::vector<KvShard>& shards, Bytes shard_bytes,
                    std::function<void()> done);

}  // namespace hero::serve
