// perfbench: one benchmark for simulator speed and simulated serving
// quality, split by layer.
//
//   perfbench --workload fleet16|chaos|chat --seed N --seconds S --trace 0|1
//             [--requests N]
//
// --requests shrinks (or grows) the trace, for smoke tests. The extra
// workload `unplaceable` asks for a fleet the planner cannot place and
// exercises the failure path.
//
// The benchmark generates the workload's trace from --seed and drives the
// HeroServe fleet pipeline in stages, each a call into one layer's public
// function:
//   planner::FleetPlanner::plan -> serve::FleetSim::add_instance (+ the
//   scheduler's start) -> serve::FleetSim::run.
// It first runs the library's one-call pipeline, run_fleet_experiment, on
// the same config and trace as the reference, then repeats the staged
// pipeline while another repetition fits in --seconds (at least twice), and
// set-up alone in the time left. Every repetition must reproduce the
// reference exactly (simulated seconds, event and solver counters, every
// percentile, the per-request samples); any mismatch makes the result
// incorrect.
//
// --trace 0 reports the end-to-end metrics: wall-clock set-up time and
// simulated seconds per wall second (medians over the repetitions), the
// process's peak RSS, and the simulated TTFT/TPOT percentiles, SLA
// attainment and per-GPU goodput (deterministic for a seed).
// --trace 1 alternates plain repetitions with traced ones, in which
// TimedScheduler wraps HeroServe's coll::CommScheduler and times every call
// into the online layer from outside, and reports the per-layer metrics.
// obs::EventTracer stays detached: per-layer numbers come from the wrapper
// and the public counters (SimStats, FleetReport, FaultInjector).
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit codes: 0 ok, 1 failed check, planner-infeasible or internal error,
// 2 usage error.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>  // hero-lint: allow-file(wall-clock) — wall time is what this benchmark measures
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "common/log.hpp"
#include "core/heroserve.hpp"
#include "faults/injector.hpp"

namespace {

using namespace hero;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- workloads -------------------------------------------------------------
// Each offered rate keeps SLA attainment at ~1 while queueing already shows
// in TTFT, so a routing or scheduling change moves TTFT; rates sit as close
// to the attainment knee as keeps the seed-to-seed spread of p99 TTFT under
// ~7% at these trace lengths (perfbench/README.md has the measurements).

struct Workload {
  ExperimentConfig cfg;
  wl::Trace trace;
  int redraws = 0;  ///< traces rejected by typical_trace before this one
};

// A generated trace is a finite sample of its workload's definition (rate,
// length distribution, burstiness), and two of its sample statistics swing the
// results far more than the seed-to-seed spread of everything else:
//   * The planner sizes every replica from the trace's last 64 requests
//     (the window of wl::WorkloadEstimator, which run_fleet_experiment warms
//     on the trace). A window whose mean prompt length sits ~10% below the
//     trace mean flips the fleet16 deployment from 128-134 GPUs to 144 GPUs
//     with a far weaker prefill stage and ~6x the p99 TTFT; about a third of
//     plain seeds do that.
//   * Under bursty arrivals the realized rate of a few thousand requests
//     strays tens of percent from the nominal one, and goodput and
//     simulated seconds follow it.
// So such a trace is redrawn, from seeds derived from --seed, until its
// sizing window's mean input and output lengths lie within 5% of the whole
// trace's and its realized arrival rate within 3% of the nominal rate:
// every seed then serves the workload as defined, on a typical deployment.
// (The multi-turn chat trace is left as drawn: its plan does not flip, its
// sessions arrive as a Poisson process, and its last turns carry the
// longest contexts by construction.)
constexpr std::size_t kSizingWindow = 64;
constexpr double kSizingBand = 0.05;
constexpr double kRateBand = 0.03;
constexpr int kMaxRedraws = 100000;

bool within(double value, double reference, double band) {
  return reference > 0.0 && std::abs(value / reference - 1.0) <= band;
}

bool typical_trace(const wl::Trace& trace, double nominal_rate) {
  if (trace.size() < 2 * kSizingWindow) return true;
  double in_all = 0.0, out_all = 0.0, in_win = 0.0, out_win = 0.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto in = static_cast<double>(trace[i].input_tokens);
    const auto out = static_cast<double>(trace[i].output_tokens);
    in_all += in;
    out_all += out;
    if (i + kSizingWindow >= trace.size()) {
      in_win += in;
      out_win += out;
    }
  }
  const double n = static_cast<double>(trace.size());
  const double w = static_cast<double>(kSizingWindow);
  return within(in_win / w, in_all / n, kSizingBand) &&
         within(out_win / w, out_all / n, kSizingBand) &&
         within(n / raw(trace.back().arrival), nominal_rate, kRateBand);
}

/// The first wl::generate_trace(opts) that typical_trace accepts, trying
/// opts.seed, then seeds derived from it. `redraws` counts the rejected ones.
wl::Trace conditioned_trace(wl::TraceOptions opts, int& redraws) {
  const std::uint64_t seed = opts.seed;
  wl::Trace trace;
  for (redraws = 0; redraws < kMaxRedraws; ++redraws) {
    opts.seed = seed ^ (static_cast<std::uint64_t>(redraws) *
                        0x9e3779b97f4a7c15ull);
    trace = wl::generate_trace(opts);
    if (typical_trace(trace, opts.rate)) break;
  }
  return trace;
}

/// --seed is the workload's seed: it draws the trace and nothing else. The
/// system's own randomness (kernel-time noise, planner perturbation, router)
/// keeps ExperimentConfig's fixed seed, as a deployed system's would.
ExperimentConfig base_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.serving.model = llm::opt_66b();
  cfg.serving.sla_ttft = 2.5;
  cfg.serving.sla_tpot = 0.15;
  cfg.workload.lengths = wl::sharegpt_lengths();
  cfg.workload.seed = seed;
  cfg.fleet.policy = serve::RouterPolicy::kHeroServe;
  return cfg;
}

/// 16 instances under bursty arrivals on a fleet fabric of `racks` racks.
Workload make_fleet(std::uint64_t seed, std::size_t requests,
                    std::int32_t racks) {
  constexpr std::size_t kInstances = 16;
  constexpr double kRatePerInstance = 2.0;
  Workload w{base_config(seed), {}, 0};
  topo::FleetClusterOptions fabric;
  fabric.racks = racks;
  w.cfg.topology = topo::make_fleet_cluster(fabric);
  w.cfg.fleet.instances = kInstances;
  w.cfg.workload.rate = kRatePerInstance * static_cast<double>(kInstances);
  w.cfg.workload.count = requests;
  w.cfg.workload.bursty = true;
  w.cfg.workload.burst_multiplier = 3.0;
  w.cfg.workload.burst_fraction = 0.3;
  w.cfg.workload.burst_mean_duration = 1.0;
  w.trace = conditioned_trace(w.cfg.workload, w.redraws);
  return w;
}

/// fleet16: one rack per instance; loads path construction and planning.
Workload make_fleet16(std::uint64_t seed, std::size_t requests) {
  return make_fleet(seed, requests, 16);
}

/// Smoke test of the failure path only: the same fleet on 2 racks (64
/// GPUs), which the planner cannot place.
Workload make_unplaceable(std::uint64_t seed, std::size_t requests) {
  return make_fleet(seed, requests, 2);
}

/// A fleet of one on the Fig. 6 testbed with tensor parallelism across
/// servers and two GPU uplinks flapping for the whole run: loads the event
/// loop, the max-min solver, collectives and faults, with paths and
/// planning idle.
Workload make_chaos(std::uint64_t seed, std::size_t requests) {
  constexpr double kRate = 2.0;
  constexpr Time kFlapPeriod = 4.0;
  Workload w{base_config(seed), {}, 0};
  w.cfg.topology = topo::make_testbed();
  w.cfg.min_p_tens = 8;
  w.cfg.workload.rate = kRate;
  w.cfg.workload.count = requests;
  w.trace = conditioned_trace(w.cfg.workload, w.redraws);
  // Flap until well past the last arrival so the drain tail is faulted too.
  const double horizon =
      (w.trace.empty() ? 0.0 : raw(w.trace.back().arrival)) + 60.0;
  for (const char* edge : {"w0g1-sw1", "w1g1-sw1"}) {
    faults::FaultEvent ev;
    ev.kind = faults::FaultKind::kLinkFlap;
    ev.at = 2.0;
    ev.period = kFlapPeriod;
    ev.duration = 2.0;
    ev.count = static_cast<std::uint32_t>(std::ceil(horizon / kFlapPeriod));
    ev.target = edge;
    ev.magnitude = 0.05;
    w.cfg.fault_plan.events.push_back(ev);
  }
  return w;
}

/// Four instances serving multi-turn chat sessions with the prefix/KV tier
/// and prefix-affinity routing on: every follow-up turn is a cache hit, a
/// decode->decode block stream or a recompute.
Workload make_chat(std::uint64_t seed, std::size_t requests) {
  constexpr std::size_t kInstances = 4;
  constexpr double kRate = 3.0;
  Workload w{base_config(seed), {}, 0};
  topo::FleetClusterOptions fabric;
  fabric.racks = static_cast<std::int32_t>(kInstances);
  w.cfg.topology = topo::make_fleet_cluster(fabric);
  w.cfg.fleet.instances = kInstances;
  w.cfg.fleet.prefix_affinity = true;
  // Follow-up turns carry multi-thousand-token contexts (bench_prefix's SLA).
  w.cfg.serving.sla_ttft = 6.0;
  w.cfg.serving.prefix_block_tokens = 128;
  wl::MultiturnOptions opts;
  opts.base.rate = kRate;
  opts.base.count = requests;
  opts.base.seed = seed;
  opts.base.lengths = wl::sharegpt_lengths();
  opts.multi_turn_fraction = 1.0;
  opts.mean_turns = 5.0;
  opts.think_mean = 45.0;
  opts.max_context_tokens = 4096;
  w.trace = wl::generate_multiturn_trace(opts);
  w.cfg.workload.rate = kRate;
  w.cfg.workload.count = w.trace.size();
  return w;
}

struct WorkloadSpec {
  std::string_view name;
  std::size_t requests = 0;  ///< >= 1000, so p99 has >= 10 samples beyond it
  Workload (*make)(std::uint64_t, std::size_t) = nullptr;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"fleet16", 8000, make_fleet16},
    {"chaos", 10000, make_chaos},
    {"chat", 8000, make_chat},
    {"unplaceable", 1000, make_unplaceable},
};

// --- the online-layer timing wrapper ---------------------------------------

struct OnlineCounters {
  std::uint64_t register_calls = 0;
  double register_s = 0.0;
  std::uint64_t plan_calls = 0;
  double plan_s = 0.0;
  std::uint64_t ring = 0;  ///< flat ring plans
  std::uint64_t ina = 0;   ///< flat in-network-aggregation plans
  std::uint64_t hier = 0;  ///< hierarchical plans (any wide-phase scheme)
  std::uint64_t ina_wide = 0;  ///< plans, flat or not, whose wide phase is INA
  std::uint64_t unicast_calls = 0;
  double unicast_s = 0.0;
  std::uint64_t unicast_hops = 0;
  std::uint64_t unicast_nvlink = 0;  ///< returned paths with an NVLink hop

  [[nodiscard]] double total_s() const {
    return register_s + plan_s + unicast_s;
  }
};

/// Forwards every call to the wrapped scheduler and times it. Path and plan
/// statistics are taken after the clock stops.
class TimedScheduler final : public coll::CommScheduler {
 public:
  TimedScheduler(coll::CommScheduler& inner, const topo::Graph& graph)
      : inner_(&inner), graph_(&graph) {}

  coll::GroupId register_group(std::vector<topo::NodeId> members) override {
    const auto t0 = Clock::now();
    const coll::GroupId id = inner_->register_group(std::move(members));
    c_.register_s += seconds_since(t0);
    ++c_.register_calls;
    return id;
  }

  coll::AllReducePlan all_reduce_plan(coll::GroupId group,
                                      Bytes bytes) override {
    const auto t0 = Clock::now();
    coll::AllReducePlan plan = inner_->all_reduce_plan(group, bytes);
    c_.plan_s += seconds_since(t0);
    ++c_.plan_calls;
    if (plan.scheme != coll::Scheme::kRing) ++c_.ina_wide;
    if (!plan.flat()) {
      ++c_.hier;
    } else if (plan.scheme == coll::Scheme::kRing) {
      ++c_.ring;
    } else {
      ++c_.ina;
    }
    return plan;
  }

  topo::Path unicast_path(topo::NodeId src, topo::NodeId dst) override {
    const auto t0 = Clock::now();
    topo::Path path = inner_->unicast_path(src, dst);
    c_.unicast_s += seconds_since(t0);
    ++c_.unicast_calls;
    c_.unicast_hops += path.hops();
    if (path.uses_nvlink(*graph_)) ++c_.unicast_nvlink;
    return path;
  }

  void start() override { inner_->start(); }
  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] const OnlineCounters& counters() const { return c_; }

 private:
  coll::CommScheduler* inner_;
  const topo::Graph* graph_;
  OnlineCounters c_;
};

// --- the staged pipeline ---------------------------------------------------

struct PipelineRun {
  bool feasible = false;
  std::string infeasible_reason;
  std::size_t gpus_used = 0;
  serve::FleetReport report;
  SimStats stats;
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_recovered = 0;
  // Wall-clock stages.
  double plan_s = 0.0;
  double deploy_s = 0.0;  ///< simulator build, add_instance, scheduler start
  double run_s = 0.0;     ///< FleetSim::run only
  // Traced runs only.
  OnlineCounters online;
  double online_in_run_s = 0.0;  ///< wrapped-call time inside FleetSim::run

  [[nodiscard]] double setup_s() const { return plan_s + deploy_s; }
};

/// The planner inputs run_fleet_experiment derives from a config and trace.
planner::PlannerInputs planner_inputs(const ExperimentConfig& cfg,
                                      const wl::Trace& trace) {
  wl::WorkloadEstimator estimator;
  for (const wl::Request& r : trace) estimator.observe(r);
  planner::PlannerInputs in;
  in.graph = &cfg.topology;
  in.model = cfg.serving.model;
  in.latency = &fitted_model(cfg.serving.model);
  in.batch_q = cfg.batch_q;
  in.k_in = estimator.k_in(cfg.batch_q);
  in.k_in2 = estimator.k_in2(cfg.batch_q);
  in.k_out = estimator.k_out(cfg.batch_q);
  in.arrival_rate = cfg.workload.rate;
  in.t_sla_prefill = cfg.serving.sla_ttft;
  in.t_sla_decode = cfg.serving.sla_tpot;
  in.r_frac = cfg.serving.r_frac;
  in.min_p_tens = cfg.min_p_tens;
  in.max_candi = cfg.max_candi;
  in.decode_batch_limit = cfg.serving.decode_batch_limit;
  in.prefill_token_budget = cfg.serving.prefill_token_budget;
  in.heterogeneous = true;
  in.seed = cfg.serving.seed;
  in.comm_cost = cfg.engine.cost;
  return in;
}

/// run_fleet_experiment(kHeroServe, cfg, trace), one layer call at a time.
/// With `serve` false it stops after set-up, before the first simulated
/// event.
PipelineRun run_pipeline(const Workload& w, bool traced, bool serve = true) {
  const ExperimentConfig& cfg = w.cfg;
  PipelineRun out;

  const auto t_plan = Clock::now();
  planner::FleetPlannerInputs fleet_inputs;
  fleet_inputs.base = planner_inputs(cfg, w.trace);
  fleet_inputs.instances = std::max<std::size_t>(cfg.fleet.instances, 1);
  fleet_inputs.fleet_arrival_rate = cfg.workload.rate;
  fleet_inputs.balance_stage_rates = cfg.fleet.balance_stage_rates;
  fleet_inputs.uniform_hardware_pools = cfg.fleet.uniform_hardware_pools;
  planner::FleetPlanner fleet_planner(fleet_inputs);
  planner::FleetPlan plan = fleet_planner.plan();
  out.plan_s = seconds_since(t_plan);
  out.feasible = plan.feasible;
  out.infeasible_reason = plan.infeasible_reason;
  out.gpus_used = plan.gpus_used;
  if (!plan.feasible) return out;

  const auto t_deploy = Clock::now();
  sim::Simulator simulator;
  simulator.attach(cfg.sink);
  net::FlowNetwork network(simulator, cfg.topology);
  network.set_full_solve(cfg.netsim.full_solve);
  sw::SwitchRegistry switches(simulator, cfg.topology);
  coll::CollectiveEngine engine(network, switches, cfg.engine);

  online::PolicyBuildOptions build;
  build.heterogeneous = true;
  online::HeroCommScheduler hero(network, cfg.online, build);
  TimedScheduler timed(hero, cfg.topology);
  coll::CommScheduler& scheduler =
      traced ? static_cast<coll::CommScheduler&>(timed) : hero;

  serve::ServingOptions serving = cfg.serving;
  serving.max_sim_time = cfg.serving.max_sim_time +
                         (w.trace.empty() ? 0.0 : w.trace.back().arrival);
  std::unique_ptr<faults::FaultInjector> injector;
  if (!cfg.fault_plan.empty()) {
    faults::FaultInjector::Hooks hooks;
    hooks.switches = &switches;
    hooks.online = &hero.online();
    hero.online().attach_switches(&switches);
    injector = std::make_unique<faults::FaultInjector>(network, cfg.fault_plan,
                                                       hooks);
    serving.compute_scale = [inj = injector.get()](topo::NodeId g) {
      return inj->compute_scale(g);
    };
    injector->arm();
  }

  serve::FleetConfig fleet_config = cfg.fleet;
  fleet_config.router_seed += cfg.serving.seed * 0x9e3779b9ull;
  serve::FleetSim fleet(network, engine, scheduler, fleet_config, serving);
  fleet.set_deploy_hooks(
      [&hero](std::size_t id) { hero.set_group_prefix(strfmt("i{}.", id)); },
      [&hero](std::size_t) { hero.set_group_prefix(""); });
  for (planner::PlanResult& p : plan.instances) fleet.add_instance(p);
  scheduler.start();
  out.deploy_s = seconds_since(t_deploy);
  if (!serve) return out;

  const double online_before = timed.counters().total_s();
  const auto t_run = Clock::now();
  out.report = fleet.run(w.trace);
  out.run_s = seconds_since(t_run);
  out.online = timed.counters();
  out.online_in_run_s = out.online.total_s() - online_before;

  out.stats.sim_seconds = simulator.now();
  out.stats.events_executed = simulator.executed_events();
  out.stats.events_scheduled = simulator.scheduled_events();
  out.stats.events_cancelled = simulator.cancelled_events();
  out.stats.flownet = network.stats();
  if (injector) {
    out.faults_injected = injector->injected();
    out.faults_recovered = injector->recovered();
  }
  return out;
}

// --- checks ----------------------------------------------------------------

/// FNV-1a over the per-request samples and the engine totals.
std::uint64_t output_digest(const serve::FleetReport& report,
                            const SimStats& stats) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  auto mixf = [&mix](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  for (const serve::RetiredSample& s : report.samples) {
    mix(s.id);
    mixf(raw(s.arrival));
    mixf(raw(s.ttft));
    mixf(raw(s.finish));
  }
  mixf(raw(stats.sim_seconds));
  mix(stats.events_executed);
  mix(stats.events_scheduled);
  mix(stats.events_cancelled);
  mix(stats.flownet.reallocations);
  mix(stats.flownet.solves);
  mix(stats.flownet.flows_solved);
  mix(stats.flownet.flows_active);
  return h;
}

/// Empty when `a` reproduces `b` exactly, else the first difference.
std::string compare_outputs(const serve::FleetReport& a, const SimStats& sa,
                            const serve::FleetReport& b, const SimStats& sb) {
  auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  std::string diff;
  auto check = [&](const char* what, double x, double y) {
    if (diff.empty() && !same(x, y)) {
      diff = strfmt("{}: {} vs {}", what, x, y);
    }
  };
  auto count = [&](const char* what, std::uint64_t x, std::uint64_t y) {
    check(what, static_cast<double>(x), static_cast<double>(y));
  };
  count("events_executed", sa.events_executed, sb.events_executed);
  count("events_scheduled", sa.events_scheduled, sb.events_scheduled);
  count("events_cancelled", sa.events_cancelled, sb.events_cancelled);
  count("reallocations", sa.flownet.reallocations, sb.flownet.reallocations);
  count("solves", sa.flownet.solves, sb.flownet.solves);
  check("sim_seconds", raw(sa.sim_seconds), raw(sb.sim_seconds));
  const serve::ServingReport& x = a.aggregate;
  const serve::ServingReport& y = b.aggregate;
  count("submitted", x.submitted, y.submitted);
  count("completed", x.completed, y.completed);
  for (const double q : {0.5, 0.9, 0.99}) {
    check("ttft quantile", x.ttft.quantile(q), y.ttft.quantile(q));
    check("tpot quantile", x.tpot.quantile(q), y.tpot.quantile(q));
  }
  check("ttft mean", x.ttft.mean(), y.ttft.mean());
  check("tpot mean", x.tpot.mean(), y.tpot.mean());
  check("sla_attainment", x.sla_attainment, y.sla_attainment);
  check("per_gpu_goodput", raw(x.per_gpu_goodput), raw(y.per_gpu_goodput));
  check("kv_utilization_avg", x.kv_utilization_avg, y.kv_utilization_avg);
  count("samples", a.samples.size(), b.samples.size());
  count("output digest", output_digest(a, sa), output_digest(b, sb));
  return diff;
}

// --- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                m.value, m.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- command line ----------------------------------------------------------

struct Args {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::size_t requests = 0;  ///< 0 = the workload's own size
};

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

constexpr const char* kUsage =
    "usage: perfbench --workload fleet16|chaos|chat|unplaceable --seed N "
    "--seconds S --trace 0|1 [--requests N]\n";

/// Empty on success, else the reason the command line was rejected.
std::string parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return strfmt("{} needs a value", flag);
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      for (const WorkloadSpec& spec : kWorkloads) {
        if (spec.name == value) args.workload = &spec;
      }
      if (args.workload == nullptr) {
        return strfmt("unknown workload '{}'", value);
      }
    } else if (flag == "--seed") {
      if (!parse_number(value, args.seed)) {
        return strfmt("malformed seed '{}'", value);
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_number(value, args.seconds) || !(args.seconds > 0.0) ||
          args.seconds > 3600.0) {
        return strfmt("--seconds must be in (0, 3600], got '{}'", value);
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return strfmt("--trace must be 0 or 1, got '{}'", value);
      }
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--requests") {
      if (!parse_number(value, args.requests) || args.requests < 2 ||
          args.requests > 1000000) {
        return strfmt("--requests must be in [2, 1000000], got '{}'", value);
      }
    } else {
      return strfmt("unknown option '{}'", flag);
    }
  }
  if (args.workload == nullptr) return "--workload is required";
  if (!have_seed) return "--seed is required";
  if (!have_seconds) return "--seconds is required";
  if (!have_trace) return "--trace is required";
  return "";
}

// --- main ------------------------------------------------------------------

constexpr std::size_t kMinReps = 2;
constexpr std::size_t kMinSetups = 9;

int run(const Args& args) {
  const WorkloadSpec& spec = *args.workload;
  const std::size_t requests =
      args.requests > 0 ? args.requests : spec.requests;
  const Workload w = spec.make(args.seed, requests);
  const wl::TraceStats trace_stats = wl::summarize(w.trace);
  std::size_t input_tokens = 0;
  for (const wl::Request& r : w.trace) input_tokens += r.input_tokens;
  const std::size_t attempted = w.trace.size();
  std::printf("workload %s seed=%llu requests=%zu input_tokens=%zu "
              "shareable=%.4f redraws=%d\n",
              std::string(spec.name).c_str(),
              static_cast<unsigned long long>(args.seed), attempted,
              input_tokens, trace_stats.shareable_fraction, w.redraws);

  // Reference: the library's one-call pipeline (also fills the process-wide
  // fitted-latency-model cache, which every timed repetition then shares).
  const FleetExperimentResult ref =
      run_fleet_experiment(SystemKind::kHeroServe, w.cfg, w.trace);
  if (!ref.ok()) {
    std::printf("planner infeasible: %s\n",
                ref.plan.infeasible_reason.c_str());
    std::printf("requests sent=%zu completed=0 failed=%zu\n", attempted,
                attempted);
    print_result(false, attempted, attempted, {});
    return 1;
  }

  std::vector<std::string> errors;
  auto verify = [&](const char* what, const PipelineRun& r) {
    if (!r.feasible) {
      errors.push_back(strfmt("{}: planner infeasible: {}", what,
                              r.infeasible_reason));
      return;
    }
    const std::string diff =
        compare_outputs(r.report, r.stats, ref.report, ref.sim_stats);
    if (!diff.empty()) {
      errors.push_back(strfmt("{} differs from run_fleet_experiment: {}",
                              what, diff));
    }
  };

  // Repeat while another repetition fits in --seconds (at least twice);
  // trace mode alternates plain and traced repetitions so both see the same
  // machine state. Set-up alone is then repeated in the time left, so that
  // setup_s is a median of several samples on every workload.
  const auto t_measure = Clock::now();
  auto time_left = [&] { return args.seconds - seconds_since(t_measure); };
  std::vector<PipelineRun> plain, traced;
  std::vector<double> setups;
  double rep_s = 0.0;
  while (plain.size() < kMinReps || time_left() >= rep_s) {
    const auto t_rep = Clock::now();
    plain.push_back(run_pipeline(w, false));
    verify("staged pipeline", plain.back());
    setups.push_back(plain.back().setup_s());
    if (args.trace) {
      traced.push_back(run_pipeline(w, true));
      verify("traced pipeline", traced.back());
    }
    if (!errors.empty()) break;
    // Keep one full report per kind; later repetitions only feed timings.
    if (plain.size() > 1) plain.back().report = {};
    if (traced.size() > 1) traced.back().report = {};
    rep_s = seconds_since(t_rep);
  }
  while (!args.trace && errors.empty() && setups.size() < kMinSetups &&
         time_left() >= median(setups)) {
    setups.push_back(run_pipeline(w, false, false).setup_s());
  }

  const serve::ServingReport& agg = ref.report.aggregate;
  const std::size_t completed = agg.completed;
  const std::size_t failed = attempted - std::min(attempted, completed);
  if (agg.submitted != attempted || completed > attempted) {
    errors.push_back(strfmt("request accounting: sent {} submitted {} "
                            "completed {}",
                            attempted, agg.submitted, completed));
  }

  std::printf("requests sent=%zu completed=%zu failed=%zu "
              "(ttft samples=%zu, tpot samples=%zu)\n",
              attempted, completed, failed, agg.ttft.count(),
              agg.tpot.count());
  std::printf("repetitions plain=%zu traced=%zu set-ups=%zu over %.3f s\n",
              plain.size(), traced.size(), setups.size(),
              seconds_since(t_measure));
  std::printf("wall run_s:");
  for (const PipelineRun& r : plain) std::printf(" %.4f", r.run_s);
  std::printf("\nwall setup_s:");
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  std::printf("digest %s seed=%llu %016llx\n", std::string(spec.name).c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(
                  output_digest(ref.report, ref.sim_stats)));

  auto med = [](const std::vector<PipelineRun>& runs, auto field) {
    std::vector<double> v;
    v.reserve(runs.size());
    for (const PipelineRun& r : runs) v.push_back(field(r));
    return median(std::move(v));
  };
  auto total_wall = [](const PipelineRun& r) { return r.setup_s() + r.run_s; };

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double sim_s = raw(ref.sim_stats.sim_seconds);
    metrics = {
        {"setup_s", median(setups), "s"},
        {"sim_per_wall",
         med(plain, [sim_s](const PipelineRun& r) { return sim_s / r.run_s; }),
         "sim_s/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"ttft_p50_s", agg.ttft.median(), "s"},
        {"ttft_p99_s", agg.ttft.p99(), "s"},
        {"tpot_p50_s", agg.tpot.median(), "s"},
        {"tpot_p99_s", agg.tpot.p99(), "s"},
        {"sla_attainment", agg.sla_attainment, "fraction"},
        {"per_gpu_goodput", raw(agg.per_gpu_goodput), "req/s/GPU"},
    };
  } else {
    const PipelineRun& t = traced.front();
    const OnlineCounters& o = t.online;
    const SimStats& s = t.stats;
    const serve::FleetReport& rep = t.report;
    const double run_self_s = med(traced, [](const PipelineRun& r) {
      return r.run_s - r.online_in_run_s;
    });
    const double unicast_s =
        med(traced, [](const PipelineRun& r) { return r.online.unicast_s; });
    metrics = {
        {"planner.plan_s",
         med(traced, [](const PipelineRun& r) { return r.plan_s; }), "s"},
        {"planner.gpus_used", static_cast<double>(t.gpus_used), "count"},
        {"serving.deploy_s",
         med(traced, [](const PipelineRun& r) { return r.deploy_s; }), "s"},
        {"serving.run_s",
         med(traced, [](const PipelineRun& r) { return r.run_s; }), "s"},
        {"serving.run_self_s", run_self_s, "s"},
        {"serving.dispatch_imbalance", rep.dispatch_imbalance, "ratio"},
        {"serving.kv_util_avg", rep.aggregate.kv_utilization_avg, "fraction"},
        {"serving.kv_util_peak", rep.aggregate.kv_utilization_peak,
         "fraction"},
        {"online.register_group.calls",
         static_cast<double>(o.register_calls), "count"},
        {"online.register_group_s",
         med(traced, [](const PipelineRun& r) { return r.online.register_s; }),
         "s"},
        {"online.all_reduce_plan.calls", static_cast<double>(o.plan_calls),
         "count"},
        {"online.all_reduce_plan_s",
         med(traced, [](const PipelineRun& r) { return r.online.plan_s; }),
         "s"},
        {"online.plan.ring", static_cast<double>(o.ring), "count"},
        {"online.plan.ina", static_cast<double>(o.ina), "count"},
        {"online.plan.hier", static_cast<double>(o.hier), "count"},
        {"online.plan.ina_frac",
         ratio(static_cast<double>(o.ina_wide),
               static_cast<double>(o.plan_calls)),
         "fraction"},
        {"online.unicast_path.calls", static_cast<double>(o.unicast_calls),
         "count"},
        {"online.unicast_path_s", unicast_s, "s"},
        {"online.unicast_path.us_per_call",
         1e6 * ratio(unicast_s, static_cast<double>(o.unicast_calls)), "us"},
        {"online.unicast_path.hops_avg",
         ratio(static_cast<double>(o.unicast_hops),
               static_cast<double>(o.unicast_calls)),
         "hops"},
        {"online.unicast_path.nvlink_frac",
         ratio(static_cast<double>(o.unicast_nvlink),
               static_cast<double>(o.unicast_calls)),
         "fraction"},
        {"netsim.events_executed", static_cast<double>(s.events_executed),
         "count"},
        {"netsim.events_scheduled", static_cast<double>(s.events_scheduled),
         "count"},
        {"netsim.events_cancelled", static_cast<double>(s.events_cancelled),
         "count"},
        {"netsim.events_per_s",
         ratio(static_cast<double>(s.events_executed), run_self_s), "1/s"},
        {"netsim.reallocations", static_cast<double>(s.flownet.reallocations),
         "count"},
        {"netsim.solves", static_cast<double>(s.flownet.solves), "count"},
        {"netsim.flows_solved", static_cast<double>(s.flownet.flows_solved),
         "count"},
        {"netsim.flows_active", static_cast<double>(s.flownet.flows_active),
         "count"},
        {"netsim.solves_avoided_frac",
         s.flownet.flows_active > 0
             ? 1.0 - ratio(static_cast<double>(s.flownet.flows_solved),
                           static_cast<double>(s.flownet.flows_active))
             : 0.0,
         "fraction"},
        {"kvtier.lookups", static_cast<double>(rep.prefix.lookups), "count"},
        {"kvtier.hits", static_cast<double>(rep.prefix.hits), "count"},
        {"kvtier.recomputes", static_cast<double>(rep.prefix.recomputes),
         "count"},
        {"kvtier.hit_frac",
         ratio(static_cast<double>(rep.prefix.hits),
               static_cast<double>(rep.prefix.lookups)),
         "fraction"},
        {"kvtier.reused_tokens", static_cast<double>(rep.prefix.reused_tokens),
         "tokens"},
        {"kvtier.reused_frac",
         ratio(static_cast<double>(rep.prefix.reused_tokens),
               static_cast<double>(input_tokens)),
         "fraction"},
        {"kvtier.streams", static_cast<double>(rep.prefix_streams), "count"},
        {"kvtier.stream_bytes", raw(rep.prefix_stream_bytes), "B"},
        {"faults.injected", static_cast<double>(t.faults_injected), "count"},
        {"faults.recovered", static_cast<double>(t.faults_recovered), "count"},
        {"workload.requests", static_cast<double>(attempted), "count"},
        {"workload.input_tokens", static_cast<double>(input_tokens),
         "tokens"},
        {"workload.shareable_frac", trace_stats.shareable_fraction,
         "fraction"},
        {"trace_overhead_frac",
         ratio(med(traced, total_wall), med(plain, total_wall)) - 1.0,
         "fraction"},
    };
  }
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      errors.push_back(strfmt("metric {} is not finite", m.name));
      m.value = 0.0;  // keep the line valid JSON
    }
  }
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  print_result(errors.empty(), attempted, failed, metrics);
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (const std::string err = parse_args(argc, argv, args); !err.empty()) {
    std::fprintf(stderr, "perfbench: %s\n%s", err.c_str(), kUsage);
    return 2;
  }
  log::set_level(log::Level::kWarn);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
