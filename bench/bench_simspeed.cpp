// Simulation-engine speed benchmark: how much simulated time one wall
// second buys.
//
// Replays the repo's standard scenarios — the quickstart chatbot testbed,
// the chaos link-flap plan, and the 4/8/16-instance fleet — through the
// experiment driver and reports, per scenario:
//   * simulated-seconds-per-wall-second (the headline),
//   * events executed per wall second,
//   * how much max-min work the incremental flow-network engine avoided
//     (flows actually re-solved vs the full-solve baseline's would-be work).
// Deterministic outputs (simulated seconds, event counts, the calendar's
// peak size, solver counters) are written to BENCH_simspeed.json;
// wall-clock-derived keys (wall time, process CPU time) carry a
// `wall_` prefix and solver-mode-dependent keys a `solver_` prefix so the
// determinism gate can filter them (rerun cmp strips wall_*; the
// incremental-vs-full-solve cmp strips wall_* and solver_*).
//
//   ./build/bench/bench_simspeed [--seed N] [--quick] [--full-solve]
//
// --quick shrinks every trace 4x (CI smoke mode); --full-solve swaps the
// incremental engine for the whole-fabric solve (all plain JSON keys must
// stay byte-identical to the incremental run).
#include <chrono>  // hero-lint: allow-file(wall-clock) — wall speed is the product here
#include <ctime>

#include "bench_util.hpp"
#include "faults/fault_plan.hpp"

namespace {

using namespace hero;

std::uint64_t g_seed = 1;
bool g_quick = false;
bool g_full_solve = false;

/// The chaos scenario's fault plan (bench_chaos's link_flap): two GPU
/// uplinks degraded to 5% in periodic bursts.
faults::FaultPlan link_flap_plan() {
  faults::FaultPlan plan;
  for (const char* edge : {"w0g1-sw1", "w1g1-sw1"}) {
    faults::FaultEvent ev;
    ev.kind = faults::FaultKind::kLinkFlap;
    ev.at = 2.0;
    ev.period = 4.0;
    ev.duration = 2.0;
    ev.count = 10;
    ev.target = edge;
    ev.magnitude = 0.05;
    plan.events.push_back(ev);
  }
  return plan;
}

std::size_t scaled(std::size_t requests) {
  return g_quick ? std::max<std::size_t>(requests / 4, 8) : requests;
}

ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.serving.model = llm::opt_66b();
  cfg.workload.lengths = wl::sharegpt_lengths();
  cfg.workload.seed = g_seed;
  cfg.serving.seed = g_seed;
  cfg.serving.sla_ttft = 2.5;
  cfg.serving.sla_tpot = 0.15;
  cfg.netsim.full_solve = g_full_solve;
  return cfg;
}

struct Outcome {
  SimStats stats;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;  ///< process CPU time (all threads)
  bool ok = false;
};

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

template <typename Run>
Outcome timed(Run&& run) {
  Outcome out;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  out.ok = run(out.stats);
  const auto t1 = std::chrono::steady_clock::now();
  out.cpu_seconds = process_cpu_seconds() - cpu0;
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

Outcome run_quickstart() {
  ExperimentConfig cfg = base_config();
  cfg.topology = topo::make_testbed();
  cfg.workload.rate = 2.0;
  cfg.workload.count = scaled(80);
  return timed([&](SimStats& stats) {
    const FleetExperimentResult r =
        run_fleet_experiment(SystemKind::kHeroServe, cfg);
    stats = r.sim_stats;
    return r.ok();
  });
}

Outcome run_chaos() {
  ExperimentConfig cfg = base_config();
  cfg.topology = topo::make_testbed();
  cfg.workload.rate = 1.2;
  cfg.workload.count = scaled(60);
  cfg.min_p_tens = 8;  // cross-server TP: communication on the fault path
  cfg.fault_plan = link_flap_plan();
  return timed([&](SimStats& stats) {
    const FleetExperimentResult r =
        run_fleet_experiment(SystemKind::kHeroServe, cfg);
    stats = r.sim_stats;
    return r.ok();
  });
}

Outcome run_fleet(std::size_t instances) {
  ExperimentConfig cfg = base_config();
  topo::FleetClusterOptions fabric;
  fabric.racks = static_cast<std::int32_t>(instances > 4 ? instances : 4);
  cfg.topology = topo::make_fleet_cluster(fabric);
  cfg.fleet.instances = instances;
  cfg.fleet.policy = serve::RouterPolicy::kHeroServe;
  cfg.workload.rate = 1.15 * static_cast<double>(instances);
  cfg.workload.count = scaled(60 * instances);
  return timed([&](SimStats& stats) {
    const FleetExperimentResult r =
        run_fleet_experiment(SystemKind::kHeroServe, cfg);
    stats = r.sim_stats;
    return r.ok();
  });
}

struct Scenario {
  const char* name = nullptr;
  Outcome (*run)() = nullptr;
};

const Scenario kScenarios[] = {
    {"quickstart", run_quickstart},
    {"chaos", run_chaos},
    {"fleet4", [] { return run_fleet(4); }},
    {"fleet8", [] { return run_fleet(8); }},
    {"fleet16", [] { return run_fleet(16); }},
};

std::map<std::string, Outcome> g_outcomes;

/// Fraction of per-flow max-min solves the incremental engine skipped:
/// a full solve re-rates every in-flight flow each reallocation round
/// (flows_active); the dirty-set solve only touches the affected
/// component (flows_solved).
double solves_avoided(const SimStats& stats) {
  if (stats.flownet.flows_active == 0) return 0.0;
  return 1.0 - static_cast<double>(stats.flownet.flows_solved) /
                   static_cast<double>(stats.flownet.flows_active);
}

void SimSpeed_Cell(benchmark::State& state, const Scenario& scenario) {
  Outcome out;
  for (auto _ : state) out = scenario.run();
  g_outcomes[scenario.name] = out;
  const double wall = out.wall_seconds > 0 ? out.wall_seconds : 1e-9;
  state.counters["sim_per_wall"] = raw(out.stats.sim_seconds) / wall;
  state.counters["events_per_sec"] =
      static_cast<double>(out.stats.events_executed) / wall;
  state.counters["solves_avoided"] = solves_avoided(out.stats);
}

#define SIMSPEED(idx, name)                                       \
  BENCHMARK_CAPTURE(SimSpeed_Cell, name, kScenarios[idx])         \
      ->Iterations(1)->Unit(benchmark::kMillisecond)

SIMSPEED(0, quickstart);
SIMSPEED(1, chaos);
SIMSPEED(2, fleet4);
SIMSPEED(3, fleet8);
SIMSPEED(4, fleet16);

void print_table() {
  hero::bench::FigureTable table(
      std::string("Simulation engine speed (") +
          (g_full_solve ? "full-solve" : "incremental") + " max-min engine" +
          (g_quick ? ", --quick" : "") + ")",
      {"scenario", "sim s", "events", "sim s / wall s", "events/s",
       "solves avoided"});
  for (const Scenario& s : kScenarios) {
    const Outcome& o = g_outcomes[s.name];
    if (!o.ok) {
      table.add_row({s.name, "plan-fail"});
      continue;
    }
    const double wall = o.wall_seconds > 0 ? o.wall_seconds : 1e-9;
    table.add_row(
        {s.name, fmt_double(raw(o.stats.sim_seconds), 1),
         std::to_string(o.stats.events_executed),
         fmt_double(raw(o.stats.sim_seconds) / wall, 1),
         fmt_double(static_cast<double>(o.stats.events_executed) / wall, 0),
         fmt_double(100.0 * solves_avoided(o.stats), 1) + "%"});
  }
  table.print();
}

void write_json() {
  hero::bench::JsonReport json("simspeed");
  for (const Scenario& s : kScenarios) {
    const Outcome& o = g_outcomes[s.name];
    auto& row = json.add_row();
    row.str("scenario", s.name)
        .str("solver_engine", g_full_solve ? "full" : "incremental")
        .num("sim_seconds", raw(o.stats.sim_seconds))
        .integer("events_executed", o.stats.events_executed)
        .integer("events_scheduled", o.stats.events_scheduled)
        .integer("events_cancelled", o.stats.events_cancelled)
        .integer("peak_pending_events", o.stats.peak_pending_events)
        .integer("solver_reallocations", o.stats.flownet.reallocations)
        .integer("solver_solves", o.stats.flownet.solves)
        .integer("solver_flows_solved", o.stats.flownet.flows_solved)
        .integer("solver_flows_active", o.stats.flownet.flows_active)
        .num("solver_solves_avoided", solves_avoided(o.stats))
        .num("wall_seconds", o.wall_seconds)
        .num("wall_cpu_seconds", o.cpu_seconds)
        .num("wall_sim_per_wall",
             raw(o.stats.sim_seconds) /
                 (o.wall_seconds > 0 ? o.wall_seconds : 1e-9));
  }
  json.write("BENCH_simspeed.json");
}

/// CI floor: the 16-instance fleet trace must buy at least 100 simulated
/// seconds per wall second — half the slowest of ten `--quick` runs of the
/// allocation-free event core (201–237 in a RelWithDebInfo build on 4
/// vCPUs; the pre-rework engine managed ~1.4) — and the incremental engine
/// must skip at least half of the per-flow max-min solves a full-solve
/// engine would run.
constexpr double kFleet16Floor = 100.0;

void print_verdict() {
  const Outcome& fleet16 = g_outcomes["fleet16"];
  bool pass = fleet16.ok;
  if (fleet16.ok) {
    const double wall =
        fleet16.wall_seconds > 0 ? fleet16.wall_seconds : 1e-9;
    const double sim_per_wall = raw(fleet16.stats.sim_seconds) / wall;
    if (sim_per_wall < kFleet16Floor) {
      pass = false;
      std::printf("verdict: fleet16 sim/wall %.1f below the %.1f floor\n",
                  sim_per_wall, kFleet16Floor);
    }
    if (!g_full_solve && solves_avoided(fleet16.stats) < 0.5) {
      pass = false;
      std::printf("verdict: fleet16 solves avoided %.2f below 0.50\n",
                  solves_avoided(fleet16.stats));
    }
  }
  std::printf("simspeed verdict: %s\n", pass ? "PASS" : "FAIL");
}

}  // namespace

int main(int argc, char** argv) {
  const hero::cli::Options opts = hero::bench::init(
      argc, argv,
      "bench_simspeed [--seed N] [--quick] [--full-solve] "
      "[google-benchmark flags]");
  if (opts.seed_given) g_seed = opts.seed;
  g_quick = opts.quick;
  g_full_solve = opts.full_solve;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_table();
  write_json();
  print_verdict();
  return 0;
}
