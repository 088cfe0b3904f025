#include "online/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.hpp"
#include "common/format.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hero::online {
namespace {

topo::PathOptions hetero_opts(bool heterogeneous) {
  topo::PathOptions opts;
  opts.constraints.allow_nvlink = heterogeneous;
  return opts;
}

/// Wide-phase participants of a would-be plan: group leaders when
/// hierarchical, all members otherwise.
std::vector<topo::NodeId> wide_participants(
    const topo::Graph& g, const std::vector<topo::NodeId>& members,
    bool hierarchical) {
  if (!hierarchical) return members;
  std::vector<topo::NodeId> leaders;
  std::vector<std::int32_t> seen;
  for (topo::NodeId m : members) {
    const std::int32_t server = g.node(m).gpu.server;
    if (std::find(seen.begin(), seen.end(), server) == seen.end()) {
      seen.push_back(server);
      leaders.push_back(m);
    }
  }
  return leaders;
}

}  // namespace

std::vector<Policy> build_policies(const topo::Routes& routes,
                                   const std::vector<topo::NodeId>& members,
                                   const PolicyBuildOptions& opts) {
  if (members.empty()) {
    throw std::invalid_argument("build_policies: empty group");
  }
  if (routes.options().constraints.allow_nvlink != opts.heterogeneous) {
    throw std::invalid_argument(
        "build_policies: routes must allow NVLink iff heterogeneous");
  }
  const topo::Graph& graph = routes.graph();
  const coll::Router route = coll::shortest_path_router(routes);
  const std::vector<topo::NodeId> wide =
      wide_participants(graph, members, opts.heterogeneous);

  std::vector<Policy> policies;
  auto add = [&](std::string name, coll::AllReducePlan plan) {
    Policy p;
    p.name = std::move(name);
    p.edges = plan_edges(plan, graph);
    p.plan = std::move(plan);
    policies.push_back(std::move(p));
  };

  if (opts.include_ina) {
    const auto switches =
        coll::rank_aggregation_switches(routes, wide, opts.switch_candidates);
    for (topo::NodeId sw : switches) {
      coll::AllReducePlan plan =
          opts.heterogeneous
              ? coll::make_hierarchical_plan(graph, members, 0.0,
                                             opts.ina_scheme, route, sw,
                                             opts.fallback, opts.slots)
              : coll::make_ina_plan(members, 0.0, sw, opts.ina_scheme, route,
                                    opts.fallback, opts.slots);
      add(strfmt("{}ina@{}", opts.heterogeneous ? "hier-" : "",
                 graph.node(sw).name),
          std::move(plan));
    }
  }
  if (opts.include_ring || policies.empty()) {
    coll::AllReducePlan plan =
        opts.heterogeneous
            ? coll::make_hierarchical_plan(graph, members, 0.0,
                                           coll::Scheme::kRing, route)
            : coll::make_ring_plan(members, 0.0, route);
    add(opts.heterogeneous ? "hier-ring" : "ring", std::move(plan));
  }
  return policies;
}

OnlineScheduler::OnlineScheduler(net::FlowNetwork& network,
                                 OnlineConfig config)
    : network_(&network), config_(config) {}

GroupId OnlineScheduler::register_group(std::string name,
                                        std::vector<Policy> policies) {
  for (const Policy& p : policies) {
    // Policy/link bookkeeping: every policy must carry its deduplicated,
    // deterministically ordered edge set (plan_edges() contract) — the
    // Eq. 18 sharing ratios are summed in this order.
    HERO_REQUIRE(std::is_sorted(p.edges.begin(), p.edges.end()) &&
                     std::adjacent_find(p.edges.begin(), p.edges.end()) ==
                         p.edges.end(),
                 "policy {} edge set not sorted/unique", p.name);
  }
  names_.push_back(std::move(name));
  tables_.push_back(std::make_unique<PolicyTable>(std::move(policies),
                                                  network_->graph()));
  return tables_.size() - 1;
}

void OnlineScheduler::start() {
  if (started_) return;
  started_ = true;
  controller_tick();
}

void OnlineScheduler::run_sync() {
  // "It periodically polls hardware counters from the data plane to obtain
  //  link utilization metrics. These statistics are then used to update the
  //  cost parameters in the online scheduling process." (SIV)
  for (GroupId g = 0; g < tables_.size(); ++g) {
    tables_[g]->sync_costs_from_network(*network_);
    tables_[g]->update_penalties(network_, config_);
    if (switches_ != nullptr) apply_switch_health(g);
  }
}

void OnlineScheduler::apply_switch_health(GroupId group) {
  // Slot-pool feedback: an INA policy whose switch cannot admit another job
  // (pool full, or jobs already queued behind it) is surcharged so Eq. 16
  // steers traffic to ring until the pool frees up — the scheduler-level
  // INA -> ring fallback, distinct from the engine's per-op ATP fallback.
  PolicyTable& table = *tables_.at(group);
  if (ina_avoided_.size() <= group) ina_avoided_.resize(group + 1);
  std::vector<bool>& avoided = ina_avoided_[group];
  avoided.resize(table.size(), false);
  sim::Simulator& s = network_->simulator();
  for (std::size_t i = 0; i < table.size(); ++i) {
    Policy& p = table.policy(i);
    if (p.plan.switch_node == topo::kInvalidNode) continue;
    const sw::SwitchAgent& agent = switches_->agent(p.plan.switch_node);
    const bool starved = agent.slots_in_use() >= agent.slots_total() ||
                         agent.queue_depth() > 0;
    if (starved) p.cost += config_.ina_unavailable_penalty;
    if (starved != avoided[i]) {
      avoided[i] = starved;
      if (obs::EventTracer* tr = s.tracer()) {
        tr->instant(s.now(), tr->track("scheduler"), "scheduler",
                    starved ? "ina_avoid" : "ina_resume",
                    {obs::arg("group", names_.at(group)),
                     obs::arg("policy", p.name),
                     obs::arg("switch",
                              network_->graph().node(p.plan.switch_node).name),
                     obs::arg("slots_in_use",
                              static_cast<std::uint64_t>(agent.slots_in_use())),
                     obs::arg("queued",
                              static_cast<std::uint64_t>(agent.queue_depth()))});
      }
      if (obs::MetricsRegistry* m = s.metrics()) {
        m->counter(starved ? "online.ina_avoided" : "online.ina_resumed")
            .add(1);
      }
    }
  }
}

void OnlineScheduler::controller_tick() {
  sim::Simulator& s = network_->simulator();
  if (sync_dropped_) {
    // Sync channel down: the poll times out, tables stay stale, and the
    // controller retries with exponential backoff instead of hammering a
    // dead channel at the nominal period.
    ++missed_syncs_;
    sync_backoff_ = std::min(sync_backoff_ + 1, config_.max_sync_backoff);
    const Time retry_in =
        config_.sync_period * static_cast<double>(1u << sync_backoff_);
    if (obs::EventTracer* tr = s.tracer()) {
      tr->instant(s.now(), tr->track("controller"), "controller",
                  "sync_lost",
                  {obs::arg("missed", missed_syncs_),
                   obs::arg("backoff", static_cast<std::uint64_t>(sync_backoff_)),
                   obs::arg("retry_in", retry_in)});
    }
    if (obs::MetricsRegistry* m = s.metrics()) {
      m->counter("online.sync_lost").add(1);
    }
    s.schedule_in(retry_in, [this] { controller_tick(); });
    return;
  }
  if (sync_backoff_ > 0) {
    sync_backoff_ = 0;
    if (obs::EventTracer* tr = s.tracer()) {
      tr->instant(s.now(), tr->track("controller"), "controller",
                  "sync_restored", {obs::arg("missed", missed_syncs_)});
    }
    if (obs::MetricsRegistry* m = s.metrics()) {
      m->counter("online.sync_restored").add(1);
    }
  }
  if (sync_extra_delay_ > 0) {
    // Slow counter propagation: the poll completes but the recalibrated
    // tables land late; selections meanwhile use the stale costs.
    s.schedule_in(sync_extra_delay_, [this] { run_sync(); });
  } else {
    run_sync();
  }
  ++controller_ticks_;
  if (obs::EventTracer* tr = s.tracer()) {
    tr->instant(s.now(), tr->track("controller"), "controller", "tick",
                {obs::arg("tick", controller_ticks_),
                 obs::arg("groups", tables_.size())});
  }
  if (obs::MetricsRegistry* m = s.metrics()) {
    m->counter("online.controller_ticks").add(1);
  }
  s.schedule_in(config_.sync_period, [this] { controller_tick(); });
}

coll::AllReducePlan OnlineScheduler::plan_all_reduce(GroupId group,
                                                     Bytes bytes) {
  HERO_REQUIRE(bytes >= 0, "plan_all_reduce: negative payload {}", bytes);
  PolicyTable& table = *tables_.at(group);
  const std::size_t choice = table.select(bytes, config_);
  HERO_INVARIANT(choice < table.size(), "policy choice {} of {}", choice,
                 table.size());
  sim::Simulator& s = network_->simulator();
  if (obs::EventTracer* tr = s.tracer()) {
    // One instant per scheduling decision: which policy Eq. 16 picked, its
    // J = b_c + delta score, and whether the Eq. 17 bump is applied now or
    // still propagating through a slow controller.
    tr->instant(s.now(), tr->track("scheduler"), "policy_decision",
                table.policy(choice).name,
                {obs::arg("group", names_.at(group)),
                 obs::arg("policy_id", static_cast<std::uint64_t>(choice)),
                 obs::arg("cost_j", table.cost_of(choice, bytes, config_)),
                 obs::arg("cost_b", table.policy(choice).cost),
                 obs::arg("bytes", static_cast<std::uint64_t>(raw(bytes))),
                 obs::arg("penalty_deferred", config_.controller_delay > 0)});
  }
  if (obs::MetricsRegistry* m = s.metrics()) {
    m->counter(strfmt("online.selected.{}", table.policy(choice).name))
        .add(1);
  }
  if (config_.controller_delay > 0) {
    // Table updates propagate through the controller with a delay.
    s.schedule_in(config_.controller_delay, [this, group, choice, bytes] {
      tables_.at(group)->apply_selection(choice, bytes, config_);
    });
  } else {
    table.apply_selection(choice, bytes, config_);
  }
  coll::AllReducePlan plan = table.policy(choice).plan;
  plan.bytes = bytes;
  return plan;
}

const PolicyTable& OnlineScheduler::table(GroupId group) const {
  return *tables_.at(group);
}

void OnlineScheduler::apply_cost_override(GroupId group, std::size_t policy,
                                          double cost) {
  HERO_REQUIRE(cost >= 0.0 && std::isfinite(cost),
               "apply_cost_override: bad cost {}", cost);
  PolicyTable& table = *tables_.at(group);
  table.policy(policy).cost = cost;
  sim::Simulator& s = network_->simulator();
  if (obs::EventTracer* tr = s.tracer()) {
    tr->instant(s.now(), tr->track("controller"), "controller",
                "cost_override",
                {obs::arg("group", names_.at(group)),
                 obs::arg("policy", table.policy(policy).name),
                 obs::arg("cost", cost)});
  }
}

void OnlineScheduler::recompute_penalties() {
  for (auto& table : tables_) {
    table->update_penalties(network_, config_);
  }
}

void OnlineScheduler::attach_switches(sw::SwitchRegistry* switches) {
  switches_ = switches;
}

void OnlineScheduler::set_sync_disruption(Time extra_delay, bool drop_sync) {
  HERO_REQUIRE(extra_delay >= 0.0, "set_sync_disruption: negative delay {}",
               extra_delay);
  sync_extra_delay_ = extra_delay;
  sync_dropped_ = drop_sync;
}

HeroCommScheduler::HeroCommScheduler(net::FlowNetwork& network,
                                     OnlineConfig config,
                                     PolicyBuildOptions build)
    : network_(&network),
      build_(build),
      routes_(network.graph(), hetero_opts(build.heterogeneous)),
      online_(network, config) {}

GroupId HeroCommScheduler::register_group(
    std::vector<topo::NodeId> members) {
  std::vector<Policy> policies =
      build_policies(routes_, members, build_);
  return online_.register_group(
      group_prefix_ + strfmt("group{}", online_.group_count()),
      std::move(policies));
}

coll::AllReducePlan HeroCommScheduler::all_reduce_plan(GroupId group,
                                                       Bytes bytes) {
  return online_.plan_all_reduce(group, bytes);
}

topo::Path HeroCommScheduler::unicast_path(topo::NodeId src,
                                           topo::NodeId dst) {
  // Load-aware route choice among edge-diverse alternates: pick the one
  // whose bottleneck residual bandwidth is largest right now. The
  // alternates depend only on the static graph, so routes_ searches them
  // once per pair; the load enters through one O(hops), direction-aware
  // estimate_path() walk per alternate over the live link indexes.
  const std::vector<topo::Path>& alts = routes_.alternates(src, dst);
  if (alts.empty()) {
    throw std::runtime_error("HeroCommScheduler: no unicast route");
  }
  const topo::Path* best = &alts.front();
  Bandwidth best_bw = 0.0;
  for (const topo::Path& p : alts) {
    const Bandwidth bw = network_->estimate_path(p).residual;
    if (bw > best_bw) {
      best_bw = bw;
      best = &p;
    }
  }
  return *best;
}

}  // namespace hero::online
