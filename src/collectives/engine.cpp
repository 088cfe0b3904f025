#include "collectives/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

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

/// One ring all-reduce pass (the flat wide phase or one NVLink-local
/// group) over ring paths the plan owns. Addresses stay stable: Ops live
/// behind unique_ptr and their run vectors are fully built before the first
/// flow launches.
struct CollectiveEngine::RingRun {
  const std::vector<topo::Path>* paths = nullptr;
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
  std::size_t flows_pending = 0;  // the send() barrier
  bool holds_slots = false;
};

namespace {

/// Async span name; the end event repeats it (legacy async matching is by
/// category, name and id).
std::string span_name(const AllReducePlan& plan) {
  std::string name = to_string(plan.scheme);
  return plan.flat() ? name : "hier-" + name;
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
    obs::TraceArgs args{
        obs::arg("bytes", ref.plan.bytes),
        obs::arg("scheme", to_string(ref.plan.scheme)),
        obs::arg("wide_members", ref.plan.wide_members.size()),
        obs::arg("hierarchical", !ref.plan.flat())};
    if (ref.plan.switch_node != topo::kInvalidNode) {
      args.push_back(obs::arg(
          "switch", network_->graph().node(ref.plan.switch_node).name));
    }
    tr->async_begin(sim.now(), id, "collective", span_name(ref.plan),
                    std::move(args));
    tr->counter(sim.now(), "coll.inflight",
                static_cast<double>(ops_.size()));
  }
  if (obs::MetricsRegistry* m = sim.metrics()) {
    m->counter("coll.started").add();
    m->gauge("coll.inflight").set(sim.now(),
                                  static_cast<double>(ops_.size()));
  }

  if (!ref.plan.flat()) {
    start_local_phase(ref);
  } else {
    start_wide_phase(ref);
  }
}

// Every callback below captures its Op by reference. An op leaves ops_
// only in finish(), after its last flow and timer, and nothing cancels an
// op's flows, so the reference outlives every callback.

void CollectiveEngine::send(Op& op, const std::vector<topo::Path>& paths,
                            std::span<const double> scale, Phase then) {
  op.flows_pending = paths.size();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    network_->start_transfer(
        paths[i], scale.empty() ? op.plan.bytes : op.plan.bytes * scale[i],
        net::TransferOptions{[this, &op, then](net::TransferId) {
          if (--op.flows_pending == 0) (this->*then)(op);
        }});
  }
}

void CollectiveEngine::ring_pass(Op& op, RingRun& run) {
  if (run.paths->size() <= 1 || run.steps_left == 0 || run.chunk <= 0) {
    // Degenerate ring: complete asynchronously for uniform semantics.
    network_->simulator().schedule_in(
        0.0, [this, &op, &run] { ring_passed(op, run); });
    return;
  }
  run.flows_pending = run.paths->size();
  for (const topo::Path& path : *run.paths) {
    network_->start_transfer(
        path, run.chunk,
        net::TransferOptions{[this, &op, &run](net::TransferId) {
          if (--run.flows_pending != 0) return;
          if (--run.steps_left == 0) {
            ring_passed(op, run);
          } else {
            ring_pass(op, run);
          }
        }});
  }
}

void CollectiveEngine::ring_passed(Op& op, const RingRun& run) {
  if (&run == &op.wide_ring) {
    op.result.collected = network_->simulator().now();
    broadcast(op);
  } else if (--op.local_pending == 0) {
    start_wide_phase(op);
  }
}

void CollectiveEngine::start_local_phase(Op& op) {
  // NVLink-local ring all-reduce inside every server group.
  if (op.plan.local_rings.size() != op.plan.local_groups.size()) {
    throw std::invalid_argument("all_reduce: local_rings size mismatch");
  }
  op.local_runs.reserve(op.plan.local_rings.size());
  for (const std::vector<topo::Path>& ring : op.plan.local_rings) {
    if (ring.empty()) continue;  // one-GPU group
    op.local_runs.push_back(
        {&ring, op.plan.bytes / static_cast<double>(ring.size()),
         2 * (ring.size() - 1), 0});
  }
  if (op.local_runs.empty()) {
    start_wide_phase(op);
    return;
  }
  op.local_pending = op.local_runs.size();
  for (RingRun& run : op.local_runs) ring_pass(op, run);
}

void CollectiveEngine::start_wide_phase(Op& op) {
  op.result.wide_start = network_->simulator().now();
  if (op.plan.wide_members.size() <= 1) {
    op.result.collected = op.result.wide_start;
    broadcast(op);
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
  const std::size_t n = op.plan.wide_members.size();
  op.wide_ring = {&op.plan.ring_paths,
                  op.plan.bytes / static_cast<double>(n), 2 * (n - 1), 0};
  ring_pass(op, op.wide_ring);
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
      op.id, op.plan.slots, /*queue_if_full=*/sync, [this, &op] {
        op.holds_slots = true;
        send(op, op.plan.up_paths, op.plan.wide_scale,
             &CollectiveEngine::aggregate);
      });
  if (admission == sw::Admission::kRejected) {
    // ATP best-effort: aggregate at the end-host parameter server instead.
    run_fallback(op);
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
  send(op, op.plan.fallback_up, op.plan.wide_scale,
       &CollectiveEngine::aggregate);
}

void CollectiveEngine::aggregate(Op& op) {
  // Every contribution is at the aggregation point: the switch (constant
  // in-switch latency) or the host PS (P payloads reduced through memory
  // bandwidth). The reduced payload then scatters back.
  sim::Simulator& sim = network_->simulator();
  op.result.collected = sim.now();
  const Time delay =
      op.result.used_fallback
          ? static_cast<double>(op.plan.wide_members.size()) * op.plan.bytes /
                config_.cost.host_agg_bw
          : config_.cost.agg_latency;
  sim.schedule_in(delay, [this, &op] {
    send(op,
         op.result.used_fallback ? op.plan.fallback_down : op.plan.down_paths,
         op.plan.wide_scale, &CollectiveEngine::scattered);
  });
}

void CollectiveEngine::scattered(Op& op) {
  if (op.holds_slots) {
    switches_->agent(op.plan.switch_node).release(op.id);
    op.holds_slots = false;
  }
  broadcast(op);
}

void CollectiveEngine::broadcast(Op& op) {
  if (op.plan.broadcast_paths.empty()) {
    finish(op);
    return;
  }
  send(op, op.plan.broadcast_paths, {}, &CollectiveEngine::finish);
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
  HERO_INVARIANT(!op.holds_slots, "op {} finished holding slots", op.id);
  op.result.end = network_->simulator().now();
  ++ops_completed;
  Done done = std::move(op.done);
  const AllReduceResult result = op.result;
  const std::uint64_t id = op.id;
  std::string name = span_name(op.plan);
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
                                     std::span<const topo::NodeId> members,
                                     Bytes bytes, Scheme wide_scheme,
                                     const Router& route,
                                     topo::NodeId agg_switch,
                                     topo::NodeId fallback,
                                     std::uint32_t slots) {
  std::vector<std::vector<topo::NodeId>> groups = g.split_by_server(members);

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
  plan.local_rings.resize(groups.size());
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const std::vector<topo::NodeId>& group = groups[gi];
    if (group.size() <= 1) continue;
    for (std::size_t i = 0; i < group.size(); ++i) {
      plan.local_rings[gi].push_back(topo::direct_nvlink_path(
          g, group[i], group[(i + 1) % group.size()]));
    }
    for (std::size_t i = 1; i < group.size(); ++i) {
      plan.broadcast_paths.push_back(
          topo::direct_nvlink_path(g, group[0], group[i]));
    }
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
