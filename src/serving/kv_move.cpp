#include "serving/kv_move.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "obs/trace.hpp"
#include "planner/planner.hpp"

namespace hero::serve {

std::vector<KvShard> kv_shards(const std::vector<topo::NodeId>& src,
                               const std::vector<topo::NodeId>& dst) {
  std::vector<KvShard> shards;
  for (std::size_t i = 0; i < src.size() && !dst.empty(); ++i) {
    shards.emplace_back(src[i],
                        dst[planner::kv_pair(i, src.size(), dst.size())]);
  }
  return shards;
}

Time slowest_shard(const std::vector<net::PathEstimate>& estimates,
                   Bytes shard_bytes) {
  Time worst = 0.0;
  for (const net::PathEstimate& est : estimates) {
    worst = std::max(worst, est.fair_share > 0
                                ? shard_bytes / est.fair_share + est.latency
                                : std::numeric_limits<Time>::infinity());
  }
  return worst;
}

std::size_t send_kv(net::FlowNetwork& network, coll::CommScheduler& scheduler,
                    const std::vector<KvShard>& shards, Bytes shard_bytes,
                    std::function<void()> done) {
  if (shards.empty() || shard_bytes <= 0.0) {
    done();
    return 0;
  }
  struct Join {
    std::size_t left = 0;
    std::function<void()> done;
  };
  auto join = std::make_shared<Join>(Join{shards.size(), std::move(done)});
  sim::Simulator& sim = network.simulator();
  obs::EventTracer* tr = sim.tracer();
  for (const auto& [from, to] : shards) {
    // Route each shard as it starts: unicast_path may weigh the load the
    // earlier shards just put on the fabric.
    const topo::Path path = scheduler.unicast_path(from, to);
    const std::uint64_t span = tr ? tr->next_async_id() : 0;
    if (tr) {
      tr->async_begin(sim.now(), span, "kv", "kv_transfer",
                      {obs::arg("bytes", shard_bytes),
                       obs::arg("src", network.graph().node(from).name),
                       obs::arg("dst", network.graph().node(to).name)});
    }
    net::TransferOptions opts;
    opts.pipelined = true;  // RDMA bulk stream, not per-hop store-and-forward
    opts.on_complete = [&sim, tr, span, join](net::TransferId) {
      if (tr) tr->async_end(sim.now(), span, "kv", "kv_transfer", {});
      if (--join->left == 0) join->done();
    };
    network.start_transfer(path, shard_bytes, std::move(opts));
  }
  return shards.size();
}

}  // namespace hero::serve
