#include "collectives/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hero::coll {

const char* to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::kRing: return "ring";
    case Scheme::kInaSync: return "ina-sync";
    case Scheme::kInaAsync: return "ina-async";
  }
  return "?";
}

/// State of one ring all-reduce pass (flat wide phase or one NVLink-local
/// group). Addresses stay stable: Ops live behind unique_ptr and these
/// vectors are fully built before the first flow launches.
struct RingRun {
  std::vector<topo::Path> paths;
  Bytes chunk = 0;
  std::size_t steps_left = 0;
  std::size_t flows_pending = 0;
};

struct CollectiveEngine::Op {
  std::uint64_t id = 0;
  AllReducePlan plan;
  Done done;
  AllReduceResult result;

  std::vector<RingRun> local_runs;
  std::size_t local_pending = 0;
  RingRun wide_ring;
  std::size_t flows_pending = 0;  // INA / fallback / broadcast phases
  bool holds_slots = false;
};

namespace {

void start_ring_pass(CollectiveEngine& engine, net::FlowNetwork& network,
                     RingRun& run, std::function<void()> on_done);

void ring_step(CollectiveEngine& engine, net::FlowNetwork& network,
               RingRun& run, const std::shared_ptr<std::function<void()>>& done) {
  run.flows_pending = run.paths.size();
  for (const topo::Path& path : run.paths) {
    network.start_transfer(
        path, run.chunk,
        net::TransferOptions{[&engine, &network, &run, done](net::TransferId) {
          if (--run.flows_pending != 0) return;
          if (--run.steps_left == 0) {
            (*done)();
          } else {
            ring_step(engine, network, run, done);
          }
        }});
  }
}

void start_ring_pass(CollectiveEngine& engine, net::FlowNetwork& network,
                     RingRun& run, std::function<void()> on_done) {
  auto done = std::make_shared<std::function<void()>>(std::move(on_done));
  if (run.paths.size() <= 1 || run.steps_left == 0 || run.chunk <= 0) {
    // Degenerate ring: complete asynchronously for uniform semantics.
    network.simulator().schedule_in(0.0, [done] { (*done)(); });
    return;
  }
  ring_step(engine, network, run, done);
}

}  // namespace

CollectiveEngine::CollectiveEngine(net::FlowNetwork& network,
                                   sw::SwitchRegistry& switches,
                                   EngineConfig config)
    : network_(&network), switches_(&switches), config_(config) {}

CollectiveEngine::~CollectiveEngine() = default;

void CollectiveEngine::all_reduce(AllReducePlan plan, Done done) {
  const std::uint64_t id = next_op_++;
  auto op = std::make_unique<Op>();
  op->id = id;
  op->plan = std::move(plan);
  op->done = std::move(done);
  op->result.start = network_->simulator().now();
  op->result.scheme = op->plan.scheme;
  Op& ref = *op;
  ops_.emplace(id, std::move(op));

  sim::Simulator& sim = network_->simulator();
  if (obs::EventTracer* tr = sim.tracer()) {
    std::string name = to_string(ref.plan.scheme);
    if (!ref.plan.flat()) name = "hier-" + name;
    obs::TraceArgs args{
        obs::arg("bytes", ref.plan.bytes),
        obs::arg("scheme", to_string(ref.plan.scheme)),
        obs::arg("wide_members", ref.plan.wide_members.size()),
        obs::arg("hierarchical", !ref.plan.flat())};
    if (ref.plan.switch_node != topo::kInvalidNode) {
      args.push_back(obs::arg(
          "switch", network_->graph().node(ref.plan.switch_node).name));
    }
    tr->async_begin(sim.now(), id, "collective", std::move(name),
                    std::move(args));
    tr->counter(sim.now(), "coll.inflight",
                static_cast<double>(ops_.size()));
  }
  if (obs::MetricsRegistry* m = sim.metrics()) {
    m->counter("coll.started").add();
    m->gauge("coll.inflight").set(sim.now(),
                                  static_cast<double>(ops_.size()));
  }

  if (!ref.plan.local_groups.empty()) {
    start_local_phase(ref);
  } else {
    start_wide_phase(ref);
  }
}

void CollectiveEngine::start_local_phase(Op& op) {
  // NVLink-local ring all-reduce inside every server group.
  op.local_runs.clear();
  op.local_runs.reserve(op.plan.local_groups.size());
  for (const auto& group : op.plan.local_groups) {
    if (group.size() <= 1) continue;
    RingRun run;
    run.chunk = op.plan.bytes / static_cast<double>(group.size());
    run.steps_left = 2 * (group.size() - 1);
    run.paths.reserve(group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      run.paths.push_back(topo::direct_nvlink_path(
          network_->graph(), group[i], group[(i + 1) % group.size()]));
    }
    op.local_runs.push_back(std::move(run));
  }
  if (op.local_runs.empty()) {
    start_wide_phase(op);
    return;
  }
  op.local_pending = op.local_runs.size();
  for (RingRun& run : op.local_runs) {
    start_ring_pass(*this, *network_, run, [this, id = op.id] {
      auto it = ops_.find(id);
      if (it == ops_.end()) return;
      if (--it->second->local_pending == 0) start_wide_phase(*it->second);
    });
  }
}

void CollectiveEngine::start_wide_phase(Op& op) {
  op.result.wide_start = network_->simulator().now();
  if (op.plan.wide_members.size() <= 1) {
    op.result.collected = op.result.wide_start;
    start_broadcast_phase(op);
    return;
  }
  switch (op.plan.scheme) {
    case Scheme::kRing:
      run_ring(op);
      break;
    case Scheme::kInaSync:
    case Scheme::kInaAsync:
      run_ina(op);
      break;
  }
}

void CollectiveEngine::run_ring(Op& op) {
  if (op.plan.ring_paths.size() != op.plan.wide_members.size()) {
    throw std::invalid_argument("all_reduce: ring_paths size mismatch");
  }
  op.wide_ring.paths = op.plan.ring_paths;
  op.wide_ring.chunk =
      op.plan.bytes / static_cast<double>(op.plan.wide_members.size());
  op.wide_ring.steps_left = 2 * (op.plan.wide_members.size() - 1);
  start_ring_pass(*this, *network_, op.wide_ring, [this, id = op.id] {
    auto it = ops_.find(id);
    if (it == ops_.end()) return;
    it->second->result.collected = network_->simulator().now();
    start_broadcast_phase(*it->second);
  });
}

void CollectiveEngine::run_ina(Op& op) {
  if (op.plan.switch_node == topo::kInvalidNode ||
      op.plan.up_paths.size() != op.plan.wide_members.size() ||
      op.plan.down_paths.size() != op.plan.wide_members.size()) {
    throw std::invalid_argument("all_reduce: incomplete INA plan");
  }
  sw::SwitchAgent& agent = switches_->agent(op.plan.switch_node);
  const bool sync = op.plan.scheme == Scheme::kInaSync;
  const sw::Admission admission = agent.reserve(
      op.id, op.plan.slots, /*queue_if_full=*/sync, [this, id = op.id] {
        auto it = ops_.find(id);
        if (it == ops_.end()) return;
        it->second->holds_slots = true;
        ina_collect(*it->second);
      });
  if (admission == sw::Admission::kRejected) {
    // ATP best-effort: aggregate at the end-host parameter server instead.
    run_fallback(op);
  }
}

void CollectiveEngine::ina_collect(Op& op) {
  op.flows_pending = op.plan.up_paths.size();
  for (std::size_t i = 0; i < op.plan.up_paths.size(); ++i) {
    const topo::Path& path = op.plan.up_paths[i];
    const double scale =
        op.plan.wide_scale.empty() ? 1.0 : op.plan.wide_scale[i];
    network_->start_transfer(
        path, op.plan.bytes * scale,
        net::TransferOptions{[this, id = op.id](net::TransferId) {
          auto it = ops_.find(id);
          if (it == ops_.end()) return;
          Op& o = *it->second;
          if (--o.flows_pending != 0) return;
          o.result.collected = network_->simulator().now();
          // Constant in-switch aggregation latency, then distribution.
          network_->simulator().schedule_in(
              config_.cost.agg_latency, [this, id] {
                auto it2 = ops_.find(id);
                if (it2 == ops_.end()) return;
                Op& o2 = *it2->second;
                o2.flows_pending = o2.plan.down_paths.size();
                for (std::size_t di = 0; di < o2.plan.down_paths.size();
                     ++di) {
                  const topo::Path& down = o2.plan.down_paths[di];
                  const double dscale = o2.plan.wide_scale.empty()
                                            ? 1.0
                                            : o2.plan.wide_scale[di];
                  network_->start_transfer(
                      down, o2.plan.bytes * dscale,
                      net::TransferOptions{[this, id](net::TransferId) {
                        auto it3 = ops_.find(id);
                        if (it3 == ops_.end()) return;
                        Op& o3 = *it3->second;
                        if (--o3.flows_pending != 0) return;
                        switches_->agent(o3.plan.switch_node)
                            .release(o3.id);
                        o3.holds_slots = false;
                        start_broadcast_phase(o3);
                      }});
                }
              });
        }});
  }
}

void CollectiveEngine::run_fallback(Op& op) {
  // Fallback consistency: only a best-effort (async INA) reservation can
  // be rejected into the end-host path, and never while holding slots.
  HERO_INVARIANT(op.plan.scheme == Scheme::kInaAsync,
                 "fallback taken for scheme {}", to_string(op.plan.scheme));
  HERO_INVARIANT(!op.holds_slots, "op {} falls back while holding slots",
                 op.id);
  if (op.plan.fallback_node == topo::kInvalidNode ||
      op.plan.fallback_up.size() != op.plan.wide_members.size() ||
      op.plan.fallback_down.size() != op.plan.wide_members.size()) {
    throw std::invalid_argument(
        "all_reduce: async INA rejected and no fallback configured");
  }
  ++fallbacks_taken;
  op.result.used_fallback = true;
  sim::Simulator& sim = network_->simulator();
  if (obs::EventTracer* tr = sim.tracer()) {
    // ATP degradation moment: the switch rejected the reservation and the
    // op re-routes through the end-host parameter server.
    tr->instant(sim.now(), tr->track("collectives"), "ina_fallback",
                "switch-reject->host-ps",
                {obs::arg("op", op.id), obs::arg("bytes", op.plan.bytes),
                 obs::arg("fallback",
                          network_->graph().node(op.plan.fallback_node).name)});
  }
  if (obs::MetricsRegistry* m = sim.metrics()) {
    m->counter("coll.fallbacks").add();
  }
  op.flows_pending = op.plan.fallback_up.size();
  for (std::size_t i = 0; i < op.plan.fallback_up.size(); ++i) {
    const topo::Path& path = op.plan.fallback_up[i];
    const double scale =
        op.plan.wide_scale.empty() ? 1.0 : op.plan.wide_scale[i];
    network_->start_transfer(
        path, op.plan.bytes * scale,
        net::TransferOptions{[this, id = op.id](net::TransferId) {
          auto it = ops_.find(id);
          if (it == ops_.end()) return;
          Op& o = *it->second;
          if (--o.flows_pending != 0) return;
          o.result.collected = network_->simulator().now();
          // Host-side reduction of P payloads through memory bandwidth.
          const Time host_time =
              static_cast<double>(o.plan.wide_members.size()) * o.plan.bytes /
              config_.cost.host_agg_bw;
          network_->simulator().schedule_in(host_time, [this, id] {
            auto it2 = ops_.find(id);
            if (it2 == ops_.end()) return;
            Op& o2 = *it2->second;
            o2.flows_pending = o2.plan.fallback_down.size();
            for (std::size_t di = 0; di < o2.plan.fallback_down.size();
                 ++di) {
              const topo::Path& down = o2.plan.fallback_down[di];
              const double dscale = o2.plan.wide_scale.empty()
                                        ? 1.0
                                        : o2.plan.wide_scale[di];
              network_->start_transfer(
                  down, o2.plan.bytes * dscale,
                  net::TransferOptions{[this, id](net::TransferId) {
                    auto it3 = ops_.find(id);
                    if (it3 == ops_.end()) return;
                    Op& o3 = *it3->second;
                    if (--o3.flows_pending != 0) return;
                    start_broadcast_phase(o3);
                  }});
            }
          });
        }});
  }
}

void CollectiveEngine::start_broadcast_phase(Op& op) {
  if (op.plan.local_groups.empty()) {
    finish(op);
    return;
  }
  std::size_t transfers = 0;
  for (const auto& group : op.plan.local_groups) {
    if (group.size() > 1) transfers += group.size() - 1;
  }
  if (transfers == 0) {
    finish(op);
    return;
  }
  op.flows_pending = transfers;
  for (const auto& group : op.plan.local_groups) {
    for (std::size_t i = 1; i < group.size(); ++i) {
      network_->start_transfer(
          topo::direct_nvlink_path(network_->graph(), group[0], group[i]),
          op.plan.bytes,
          net::TransferOptions{[this, id = op.id](net::TransferId) {
            auto it = ops_.find(id);
            if (it == ops_.end()) return;
            if (--it->second->flows_pending == 0) finish(*it->second);
          }});
    }
  }
}

void CollectiveEngine::finish(Op& op) {
  // Every phase barrier must have drained before an op completes.
  HERO_INVARIANT(op.flows_pending == 0,
                 "op {} finished with {} flows pending", op.id,
                 op.flows_pending);
  HERO_INVARIANT(op.local_pending == 0,
                 "op {} finished with {} local rings pending", op.id,
                 op.local_pending);
  HERO_INVARIANT(op.result.used_fallback ? op.plan.scheme == Scheme::kInaAsync
                                         : true,
                 "op {} recorded fallback under scheme {}", op.id,
                 to_string(op.plan.scheme));
  op.result.end = network_->simulator().now();
  ++ops_completed;
  if (op.holds_slots) {
    switches_->agent(op.plan.switch_node).release(op.id);
    op.holds_slots = false;
  }
  Done done = std::move(op.done);
  const AllReduceResult result = op.result;
  const std::uint64_t id = op.id;
  // Rebuild the begin event's name: legacy async matching is by
  // (category, name, id).
  std::string name = to_string(op.plan.scheme);
  if (!op.plan.flat()) name = "hier-" + name;
  ops_.erase(op.id);
  sim::Simulator& sim = network_->simulator();
  if (obs::EventTracer* tr = sim.tracer()) {
    tr->async_end(sim.now(), id, "collective", std::move(name),
                  {obs::arg("latency", result.latency()),
                   obs::arg("used_fallback", result.used_fallback)});
    tr->counter(sim.now(), "coll.inflight",
                static_cast<double>(ops_.size()));
  }
  if (obs::MetricsRegistry* m = sim.metrics()) {
    m->counter("coll.ops").add();
    m->gauge("coll.inflight").set(sim.now(),
                                  static_cast<double>(ops_.size()));
  }
  if (done) done(result);
}

// --- plan builders -------------------------------------------------------

AllReducePlan make_ring_plan(std::vector<topo::NodeId> members, Bytes bytes,
                             const Router& route) {
  AllReducePlan plan;
  plan.bytes = bytes;
  plan.scheme = Scheme::kRing;
  plan.wide_members = std::move(members);
  plan.ring_paths.reserve(plan.wide_members.size());
  if (plan.wide_members.size() > 1) {
    for (std::size_t i = 0; i < plan.wide_members.size(); ++i) {
      plan.ring_paths.push_back(
          route(plan.wide_members[i],
                plan.wide_members[(i + 1) % plan.wide_members.size()]));
    }
  }
  return plan;
}

AllReducePlan make_ina_plan(std::vector<topo::NodeId> members, Bytes bytes,
                            topo::NodeId agg_switch, Scheme scheme,
                            const Router& route, topo::NodeId fallback,
                            std::uint32_t slots) {
  if (scheme == Scheme::kRing) {
    throw std::invalid_argument("make_ina_plan: scheme must be INA");
  }
  AllReducePlan plan;
  plan.bytes = bytes;
  plan.scheme = scheme;
  plan.wide_members = std::move(members);
  plan.switch_node = agg_switch;
  plan.slots = slots;
  plan.up_paths.reserve(plan.wide_members.size());
  plan.down_paths.reserve(plan.wide_members.size());
  for (topo::NodeId m : plan.wide_members) {
    plan.up_paths.push_back(route(m, agg_switch));
    plan.down_paths.push_back(route(agg_switch, m));
  }
  if (fallback != topo::kInvalidNode) {
    plan.fallback_node = fallback;
    for (topo::NodeId m : plan.wide_members) {
      plan.fallback_up.push_back(route(m, fallback));
      plan.fallback_down.push_back(route(fallback, m));
    }
  }
  return plan;
}

AllReducePlan make_hierarchical_plan(const topo::Graph& g,
                                     std::vector<topo::NodeId> members,
                                     Bytes bytes, Scheme wide_scheme,
                                     const Router& route,
                                     topo::NodeId agg_switch,
                                     topo::NodeId fallback,
                                     std::uint32_t slots) {
  // Group members by NVLink domain (server id).
  std::vector<std::vector<topo::NodeId>> groups;
  std::unordered_map<std::int32_t, std::size_t> by_server;
  for (topo::NodeId m : members) {
    const std::int32_t server = g.node(m).gpu.server;
    auto [it, inserted] = by_server.try_emplace(server, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(m);
  }

  AllReducePlan plan;
  if (wide_scheme == Scheme::kRing) {
    std::vector<topo::NodeId> leaders;
    leaders.reserve(groups.size());
    for (const auto& group : groups) leaders.push_back(group.front());
    plan = make_ring_plan(leaders, bytes, route);
  } else {
    // Sharded INA: every member streams its 1/g shard via its own NIC.
    std::vector<topo::NodeId> all_members;
    std::vector<double> scale;
    for (const auto& group : groups) {
      for (topo::NodeId m : group) {
        all_members.push_back(m);
        scale.push_back(1.0 / static_cast<double>(group.size()));
      }
    }
    plan = make_ina_plan(all_members, bytes, agg_switch, wide_scheme, route,
                         fallback, slots);
    plan.wide_scale = std::move(scale);
  }
  plan.local_groups = std::move(groups);
  return plan;
}

Router shortest_path_router(const topo::Routes& routes) {
  return [&routes](topo::NodeId a, topo::NodeId b) -> topo::Path {
    auto p = routes.path(a, b);
    if (!p) {
      const topo::Graph& g = routes.graph();
      throw std::runtime_error("shortest_path_router: unreachable pair " +
                               g.node(a).name + " -> " + g.node(b).name);
    }
    return *std::move(p);
  };
}

std::vector<topo::NodeId> rank_aggregation_switches(
    const topo::Routes& routes, const std::vector<topo::NodeId>& members,
    std::size_t count) {
  struct Scored {
    topo::NodeId sw = topo::kInvalidNode;
    Time score = 0.0;
  };
  const topo::Graph& g = routes.graph();
  std::vector<Scored> scored;
  for (topo::NodeId sw : g.switches()) {
    if (g.node(sw).agg_slots <= 0) continue;
    // Collection latency is a max over members (Eq. 9), so the election
    // minimizes the worst member's path; the sum breaks ties.
    Time worst = 0.0;
    Time total = 0.0;
    bool reachable = true;
    for (topo::NodeId m : members) {
      const Time lat = routes.latency(m, sw, 1.0 * units::MiB);
      if (std::isinf(raw(lat))) {
        reachable = false;
        break;
      }
      worst = std::max(worst, lat);
      total += lat;
    }
    if (reachable) scored.push_back({sw, worst * 1e6 + total});
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) { return a.score < b.score; });
  std::vector<topo::NodeId> out;
  for (const Scored& s : scored) {
    if (out.size() >= count) break;
    out.push_back(s.sw);
  }
  return out;
}

}  // namespace hero::coll
