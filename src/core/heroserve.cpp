#include "core/heroserve.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/format.hpp"
#include "common/log.hpp"
#include "faults/injector.hpp"
#include "serving/fleet_controller.hpp"

namespace hero {

const char* to_string(SystemKind kind) {
  switch (kind) {
    case SystemKind::kHeroServe: return "HeroServe";
    case SystemKind::kDistServe: return "DistServe";
    case SystemKind::kDsAtp: return "DS-ATP";
    case SystemKind::kDsSwitchMl: return "DS-SwitchML";
  }
  return "?";
}

const gpu::LatencyModel& fitted_model(const llm::ModelConfig& model) {
  static std::mutex mutex;
  static std::unordered_map<std::string, std::unique_ptr<gpu::LatencyModel>>
      cache;
  const std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(model.name);
  if (it == cache.end()) {
    const gpu::KernelModel hw(gpu::spec_of(topo::GpuModel::kA100_40), model,
                              gpu::KernelModelOptions{}, /*seed=*/12345);
    it = cache
             .emplace(model.name, std::make_unique<gpu::LatencyModel>(
                                      gpu::fit_latency_model(hw)))
             .first;
    log::info("profiled {}: fitted Eq.12/13 coefficients", model.name);
  }
  return *it->second;
}

namespace {

/// The planner inputs an experiment's fields describe, shared by the fleet
/// planner and the autoscaler.
planner::PlannerInputs planner_inputs_for(SystemKind kind,
                                          const ExperimentConfig& cfg,
                                          const wl::Trace& trace) {
  // Workload estimates (the online estimator's moving averages, warmed on
  // the trace's own length distribution).
  wl::WorkloadEstimator estimator;
  for (const wl::Request& r : trace) estimator.observe(r);

  planner::PlannerInputs inputs;
  inputs.graph = &cfg.topology;
  inputs.model = cfg.serving.model;
  inputs.latency = &fitted_model(cfg.serving.model);
  inputs.batch_q = cfg.batch_q;
  inputs.k_in = estimator.k_in(cfg.batch_q);
  inputs.k_in2 = estimator.k_in2(cfg.batch_q);
  inputs.k_out = estimator.k_out(cfg.batch_q);
  inputs.arrival_rate = cfg.workload.rate;
  inputs.t_sla_prefill = cfg.serving.sla_ttft;
  inputs.t_sla_decode = cfg.serving.sla_tpot;
  inputs.r_frac = cfg.serving.r_frac;
  inputs.min_p_tens = cfg.min_p_tens;
  inputs.max_candi = cfg.max_candi;
  inputs.decode_batch_limit = cfg.serving.decode_batch_limit;
  inputs.prefill_token_budget = cfg.serving.prefill_token_budget;
  inputs.heterogeneous = kind == SystemKind::kHeroServe;
  inputs.seed = cfg.serving.seed;
  inputs.comm_cost = cfg.engine.cost;
  return inputs;
}

/// The communication scheduler per system; `hero` is set for kHeroServe.
std::unique_ptr<coll::CommScheduler> make_scheduler(
    SystemKind kind, net::FlowNetwork& network, const ExperimentConfig& cfg,
    online::HeroCommScheduler** hero) {
  *hero = nullptr;
  switch (kind) {
    case SystemKind::kHeroServe: {
      online::PolicyBuildOptions build;
      build.heterogeneous = true;
      auto owned = std::make_unique<online::HeroCommScheduler>(
          network, cfg.online, build);
      *hero = owned.get();
      return owned;
    }
    case SystemKind::kDistServe:
      return std::make_unique<baselines::StaticCommScheduler>(
          network, baselines::BaselineKind::kDistServe);
    case SystemKind::kDsAtp:
      return std::make_unique<baselines::StaticCommScheduler>(
          network, baselines::BaselineKind::kAtp);
    case SystemKind::kDsSwitchMl:
      return std::make_unique<baselines::StaticCommScheduler>(
          network, baselines::BaselineKind::kSwitchMl);
  }
  return nullptr;
}

/// Chaos wiring: build + arm the injector and route its compute-scale hook
/// into `serving`. HeroServe's online scheduler gets the reaction hooks —
/// switch slot-health feedback at controller ticks, immediate cost
/// overrides on link faults; baselines feel the raw faults without any
/// adaptation channel.
std::unique_ptr<faults::FaultInjector> arm_faults(
    net::FlowNetwork& network, sw::SwitchRegistry& switches,
    const ExperimentConfig& cfg, online::HeroCommScheduler* hero,
    serve::ServingOptions& serving) {
  if (cfg.fault_plan.empty()) return nullptr;
  faults::FaultInjector::Hooks hooks;
  hooks.switches = &switches;
  if (hero != nullptr) {
    hooks.online = &hero->online();
    hero->online().attach_switches(&switches);
  }
  auto injector = std::make_unique<faults::FaultInjector>(
      network, cfg.fault_plan, hooks);
  serving.compute_scale = [inj = injector.get()](topo::NodeId g) {
    return inj->compute_scale(g);
  };
  injector->arm();
  return injector;
}

SimStats collect_sim_stats(const sim::Simulator& simulator,
                           const net::FlowNetwork& network) {
  SimStats stats;
  stats.sim_seconds = simulator.now();
  stats.events_executed = simulator.executed_events();
  stats.events_scheduled = simulator.scheduled_events();
  stats.events_cancelled = simulator.cancelled_events();
  stats.flownet = network.stats();
  return stats;
}

}  // namespace

FleetExperimentResult run_fleet_experiment(SystemKind kind,
                                           const ExperimentConfig& cfg) {
  return run_fleet_experiment(kind, cfg, wl::generate_trace(cfg.workload));
}

FleetExperimentResult run_fleet_experiment(SystemKind kind,
                                           const ExperimentConfig& cfg,
                                           const wl::Trace& trace) {
  FleetExperimentResult result;

  planner::FleetPlannerInputs fleet_inputs;
  fleet_inputs.base = planner_inputs_for(kind, cfg, trace);
  fleet_inputs.instances = std::max<std::size_t>(cfg.fleet.instances, 1);
  // The fleet rate is explicit — the planner does its own (single)
  // per-instance division and echoes it in planned_arrival_rate.
  fleet_inputs.fleet_arrival_rate = cfg.workload.rate;
  fleet_inputs.balance_stage_rates = cfg.fleet.balance_stage_rates;
  fleet_inputs.uniform_hardware_pools = cfg.fleet.uniform_hardware_pools;
  planner::FleetPlanner fleet_planner(fleet_inputs);
  result.plan = fleet_planner.plan();
  if (!result.plan.feasible) {
    log::warn("{}: fleet planner infeasible: {}", to_string(kind),
              result.plan.infeasible_reason);
    return result;
  }

  sim::Simulator simulator;
  simulator.attach(cfg.sink);
  net::FlowNetwork network(simulator, cfg.topology);
  network.set_full_solve(cfg.netsim.full_solve);
  sw::SwitchRegistry switches(simulator, cfg.topology);
  coll::CollectiveEngine engine(network, switches, cfg.engine);

  online::HeroCommScheduler* hero = nullptr;
  std::unique_ptr<coll::CommScheduler> scheduler =
      make_scheduler(kind, network, cfg, &hero);

  serve::ServingOptions serving = cfg.serving;
  // The abort deadline is a *drain budget* after the last arrival; at low
  // rates the arrival horizon itself can exceed any fixed wall.
  serving.max_sim_time =
      cfg.serving.max_sim_time + (trace.empty() ? 0.0 : trace.back().arrival);
  std::unique_ptr<faults::FaultInjector> injector =
      arm_faults(network, switches, cfg, hero, serving);

  // Router randomness follows the experiment seed so `--seed` reruns are
  // reproducible end to end (the config's own seed offsets the stream).
  serve::FleetConfig fleet_config = cfg.fleet;
  fleet_config.router_seed += cfg.serving.seed * 0x9e3779b9ull;

  serve::FleetSim fleet(network, engine, *scheduler, fleet_config, serving);
  // Per-instance policy tables: one shared scheduler, prefixed group names
  // ("i2.group5") so traces and metrics stay attributable — including the
  // groups of replicas the autoscaler deploys mid-run.
  fleet.set_deploy_hooks(
      [hero](std::size_t id) {
        if (hero != nullptr) hero->set_group_prefix(strfmt("i{}.", id));
      },
      [hero](std::size_t) {
        if (hero != nullptr) hero->set_group_prefix("");
      });
  for (planner::PlanResult& plan : result.plan.instances) {
    fleet.add_instance(plan);
  }

  std::unique_ptr<serve::FleetController> controller;
  if (cfg.fleet.autoscale.enabled) {
    controller = std::make_unique<serve::FleetController>(
        fleet, planner_inputs_for(kind, cfg, trace));
    controller->start();
  }

  scheduler->start();
  result.report = fleet.run(trace);
  if (controller) result.report.autoscale = controller->stats();
  result.sim_stats = collect_sim_stats(simulator, network);
  return result;
}

RateSearchResult find_max_rate(SystemKind kind, ExperimentConfig cfg,
                               double lo, double hi, double target,
                               int iterations) {
  RateSearchResult search;
  auto attain = [&](double rate) {
    cfg.workload.rate = rate;
    FleetExperimentResult r = run_fleet_experiment(kind, cfg);
    search.samples.emplace_back(rate, r.report.aggregate.sla_attainment);
    return r;
  };

  FleetExperimentResult at_lo = attain(lo);
  if (at_lo.report.aggregate.sla_attainment < target) {
    // Even the lower bound fails; report zero scalability.
    search.max_rate = 0.0;
    search.at_max = std::move(at_lo);
    return search;
  }
  search.max_rate = lo;
  search.at_max = std::move(at_lo);

  FleetExperimentResult at_hi = attain(hi);
  if (at_hi.report.aggregate.sla_attainment >= target) {
    search.max_rate = hi;
    search.at_max = std::move(at_hi);
    return search;
  }

  double good = lo, bad = hi;
  for (int i = 0; i < iterations; ++i) {
    const double mid = 0.5 * (good + bad);
    FleetExperimentResult r = attain(mid);
    if (r.report.aggregate.sla_attainment >= target) {
      good = mid;
      search.max_rate = mid;
      search.at_max = std::move(r);
    } else {
      bad = mid;
    }
  }
  return search;
}

}  // namespace hero
