#include "baselines/static_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace hero::baselines {
namespace {

/// NCCL-style baseline routing: same-server GPU pairs always use the direct
/// NVLink edge (no real stack sends intra-node traffic out the NIC); every
/// other pair takes the static Ethernet shortest path. What the baselines
/// lack — by design (SII-C) — is NVLink *forwarding* (detouring through a
/// peer GPU's NIC), heterogeneous aggregation placement, and load-aware
/// re-routing.
coll::Router nccl_style_router(const topo::Routes& ethernet_routes) {
  const topo::Graph& g = ethernet_routes.graph();
  const coll::Router ethernet = coll::shortest_path_router(ethernet_routes);
  return [&g, ethernet](topo::NodeId a, topo::NodeId b) -> topo::Path {
    if (g.is_gpu(a) && g.is_gpu(b) &&
        g.node(a).gpu.server == g.node(b).gpu.server) {
      return topo::direct_nvlink_path(g, a, b);
    }
    return ethernet(a, b);
  };
}

topo::NodeId find_ps_host(const topo::Graph& g) {
  for (topo::NodeId i = 0; i < g.node_count(); ++i) {
    if (g.node(i).kind == topo::NodeKind::kServer) return i;
  }
  return topo::kInvalidNode;
}

}  // namespace

const char* to_string(BaselineKind kind) {
  switch (kind) {
    case BaselineKind::kDistServe: return "DistServe";
    case BaselineKind::kSwitchMl: return "DS-SwitchML";
    case BaselineKind::kAtp: return "DS-ATP";
  }
  return "?";
}

StaticCommScheduler::StaticCommScheduler(net::FlowNetwork& network,
                                         BaselineKind kind)
    : network_(&network),
      kind_(kind),
      ps_host_(kind == BaselineKind::kAtp ? find_ps_host(network.graph())
                                          : topo::kInvalidNode),
      routes_(network.graph(),
              topo::PathOptions{.constraints = {.allow_nvlink = false}}) {}

coll::GroupId StaticCommScheduler::register_group(
    std::vector<topo::NodeId> members) {
  const topo::Graph& g = network_->graph();
  // Ring order follows NCCL's topology detection: same-server members sit
  // adjacent so intra-node legs ride NVLink.
  std::stable_sort(members.begin(), members.end(),
                   [&](topo::NodeId a, topo::NodeId b) {
                     return g.node(a).gpu.server < g.node(b).gpu.server;
                   });
  const coll::Router route = nccl_style_router(routes_);
  const coll::Router ethernet = coll::shortest_path_router(routes_);

  // A group confined to one server has nothing to aggregate in-network:
  // the DS-integrated INA baselines fall back to plain NCCL there, same as
  // DistServe.
  const bool single_server = g.split_by_server(members).size() <= 1;

  coll::AllReducePlan plan;
  switch (kind_) {
    case BaselineKind::kDistServe:
      plan = coll::make_ring_plan(std::move(members), 0.0, route);
      break;
    case BaselineKind::kSwitchMl:
    case BaselineKind::kAtp: {
      if (single_server) {
        plan = coll::make_ring_plan(std::move(members), 0.0, route);
        break;
      }
      // The DS integration offloads NCCL's *inter-node* stage to the
      // switch: NVLink-local reduction first, then the per-server leaders
      // stream to the aggregator over their own NICs (Ethernet). What the
      // baselines still lack vs HeroServe: NVLink forwarding detours,
      // multi-switch placement, and load-aware scheme switching.
      // Sharded INA: every member streams its shard via its own NIC, so the
      // aggregator is elected by the worst member's path. The central
      // scheduler "uniformly allocates and recycles aggregator slots"
      // (SIV): spread groups round-robin across the top-ranked switches.
      auto switches = coll::rank_aggregation_switches(routes_, members, 2);
      if (switches.empty()) {
        throw std::runtime_error(
            "StaticCommScheduler: no aggregation switch reachable");
      }
      if (switches.size() > 1) {
        std::rotate(switches.begin(),
                    switches.begin() +
                        static_cast<std::ptrdiff_t>(plans_.size() %
                                                    switches.size()),
                    switches.end());
      }
      const bool sync = kind_ == BaselineKind::kSwitchMl;
      if (!sync && ps_host_ == topo::kInvalidNode) {
        throw std::runtime_error("DS-ATP: no PS fallback host in topology");
      }
      plan = coll::make_hierarchical_plan(
          g, members, 0.0,
          sync ? coll::Scheme::kInaSync : coll::Scheme::kInaAsync, ethernet,
          switches.front(), ps_host_);
      break;
    }
  }
  plans_.push_back(std::move(plan));
  return plans_.size() - 1;
}

coll::AllReducePlan StaticCommScheduler::all_reduce_plan(coll::GroupId group,
                                                         Bytes bytes) {
  coll::AllReducePlan plan = plans_.at(group);
  plan.bytes = bytes;
  return plan;
}

topo::Path StaticCommScheduler::unicast_path(topo::NodeId src,
                                             topo::NodeId dst) {
  auto p = routes_.path(src, dst);
  if (!p) throw std::runtime_error("StaticCommScheduler: no unicast route");
  return *std::move(p);
}

}  // namespace hero::baselines
