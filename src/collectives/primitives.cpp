#include "collectives/primitives.hpp"

#include <limits>
#include <memory>
#include <stdexcept>

namespace hero::coll {

const char* to_string(PrimitiveKind kind) {
  switch (kind) {
    case PrimitiveKind::kAllGather: return "all-gather";
    case PrimitiveKind::kReduceScatter: return "reduce-scatter";
    case PrimitiveKind::kBroadcast: return "broadcast";
  }
  return "?";
}

PrimitivePlan make_ring_primitive(PrimitiveKind kind,
                                  std::vector<topo::NodeId> members,
                                  Bytes bytes, const Router& route) {
  if (kind == PrimitiveKind::kBroadcast) {
    throw std::invalid_argument(
        "make_ring_primitive: use make_broadcast_plan for broadcasts");
  }
  PrimitivePlan plan;
  plan.kind = kind;
  plan.bytes = bytes;
  plan.members = std::move(members);
  if (plan.members.size() > 1) {
    plan.paths.reserve(plan.members.size());
    for (std::size_t i = 0; i < plan.members.size(); ++i) {
      plan.paths.push_back(route(
          plan.members[i], plan.members[(i + 1) % plan.members.size()]));
    }
  }
  return plan;
}

PrimitivePlan make_broadcast_plan(std::vector<topo::NodeId> members,
                                  Bytes bytes, const Router& route) {
  PrimitivePlan plan;
  plan.kind = PrimitiveKind::kBroadcast;
  plan.bytes = bytes;
  plan.members = std::move(members);
  if (plan.members.size() > 1) {
    plan.paths.resize(plan.members.size());
    for (std::size_t i = 1; i < plan.members.size(); ++i) {
      plan.paths[i] = route(plan.members[0], plan.members[i]);
    }
  }
  return plan;
}

namespace {

/// Ring pass driver shared by all-gather and reduce-scatter: `steps` rounds
/// in which every member forwards a (bytes / P) chunk to its successor.
struct RingPassState {
  std::vector<topo::Path> paths;
  Bytes chunk = 0;
  std::size_t steps_left = 0;
  std::size_t flows_pending = 0;
  Time start = 0;
  std::function<void(Time)> done;
};

void ring_pass_step(net::FlowNetwork& network,
                    const std::shared_ptr<RingPassState>& state) {
  state->flows_pending = state->paths.size();
  for (const topo::Path& path : state->paths) {
    network.start_transfer(
        path, state->chunk,
        net::TransferOptions{[&network, state](net::TransferId) {
          if (--state->flows_pending != 0) return;
          if (--state->steps_left == 0) {
            state->done(network.simulator().now() - state->start);
          } else {
            ring_pass_step(network, state);
          }
        }});
  }
}

}  // namespace

void run_primitive(CollectiveEngine& engine, PrimitivePlan plan,
                   std::function<void(Time)> done) {
  net::FlowNetwork& network = engine.network();
  const Time start = network.simulator().now();
  if (plan.members.size() <= 1 || plan.bytes <= 0) {
    network.simulator().schedule_in(0.0, [done = std::move(done)] {
      if (done) done(0.0);
    });
    return;
  }

  switch (plan.kind) {
    case PrimitiveKind::kAllGather:
    case PrimitiveKind::kReduceScatter: {
      auto state = std::make_shared<RingPassState>();
      state->paths = std::move(plan.paths);
      state->chunk =
          plan.bytes / static_cast<double>(plan.members.size());
      state->steps_left = plan.members.size() - 1;
      state->start = start;
      state->done = std::move(done);
      ring_pass_step(network, state);
      return;
    }
    case PrimitiveKind::kBroadcast: {
      auto pending =
          std::make_shared<std::size_t>(plan.members.size() - 1);
      auto cb = std::make_shared<std::function<void(Time)>>(std::move(done));
      for (std::size_t i = 1; i < plan.members.size(); ++i) {
        network.start_transfer(
            plan.paths[i], plan.bytes,
            net::TransferOptions{[&network, pending, cb,
                                  start](net::TransferId) {
              if (--*pending == 0 && *cb) {
                (*cb)(network.simulator().now() - start);
              }
            }});
      }
      return;
    }
  }
}

Time all_gather_latency(std::size_t members, Bytes bytes,
                        Bandwidth bottleneck, Time per_step_overhead) {
  if (members <= 1 || bytes <= 0) return 0.0;
  if (bottleneck <= 0) return std::numeric_limits<Time>::infinity();
  const double steps = static_cast<double>(members - 1);
  const Bytes chunk = bytes / static_cast<double>(members);
  return steps * (chunk / bottleneck + per_step_overhead);
}

Time reduce_scatter_latency(std::size_t members, Bytes bytes,
                            Bandwidth bottleneck, Time per_step_overhead) {
  return all_gather_latency(members, bytes, bottleneck, per_step_overhead);
}

Time broadcast_latency_on_paths(const topo::Graph& g,
                                std::span<const topo::Path> paths,
                                Bytes bytes) {
  Time worst = 0.0;
  for (const topo::Path& p : paths) {
    if (p.nodes.empty()) continue;  // root's own slot
    worst = std::max(worst, p.latency(g, bytes));
  }
  return worst;
}

Time sequence_parallel_pair_latency(std::size_t members, Bytes bytes,
                                    Bandwidth bottleneck) {
  return reduce_scatter_latency(members, bytes, bottleneck) +
         all_gather_latency(members, bytes, bottleneck);
}

}  // namespace hero::coll
