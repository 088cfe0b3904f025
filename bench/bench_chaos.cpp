// Chaos benchmark: adaptive vs static scheduling under injected faults.
//
// Serves the same fixed-rate OPT-66B chatbot trace (cross-server TP8 on the
// Fig. 6 testbed) under HeroServe and the three static baselines, three
// times each: a clean run, a link-flap plan, and a switch slot-exhaustion
// plan. Identical seed and identical fault plan per column, so the only
// difference between systems is how their communication scheduling reacts:
//   * link_flap degrades two non-leader GPU uplinks (w0g1-sw1, w1g1-sw1) to
//     5% in periodic bursts. Sharded INA and flat rings stream through
//     every member NIC and stall; HeroServe's controller re-costs the
//     afflicted policies (immediately via the injector hook, then each
//     tick from link measurements) and shifts to hierarchical ring, whose
//     wide phase only touches the healthy leader uplinks.
//   * slot_exhaust seizes the two switches' aggregator pools in
//     alternating windows. DS-SwitchML queues behind the seized slots,
//     DS-ATP pays the host-PS fallback detour; HeroServe's slot-health
//     feedback surcharges the starved switch's INA policies so affected
//     groups hop to the healthy switch (or hierarchical ring) and are
//     re-promoted after recovery.
//
// Reports goodput + p50/p99 TTFT/TPOT per (plan, system) cell, the fault
// counts, and writes BENCH_chaos.json for machine consumption. Fixed seed:
// reruns are byte-identical (the determinism gate checks this).
#include "bench_util.hpp"

namespace {

using namespace hero;

std::uint64_t g_seed = 17;

faults::FaultPlan link_flap_plan() {
  faults::FaultPlan plan;
  for (const char* edge : {"w0g1-sw1", "w1g1-sw1"}) {
    faults::FaultEvent ev;
    ev.kind = faults::FaultKind::kLinkFlap;
    ev.at = 2.0;
    ev.period = 4.0;
    ev.duration = 2.0;  // degraded half of each cycle
    ev.count = 10;
    ev.target = edge;
    ev.magnitude = 0.05;
    plan.events.push_back(ev);
  }
  return plan;
}

faults::FaultPlan slot_exhaust_plan() {
  // Alternating seizures: one switch's aggregator pool at a time, so a
  // scheduler that can re-place aggregation always has a healthy switch
  // available. The static round-robin pinning can't move.
  faults::FaultPlan plan;
  for (int window = 0; window < 8; ++window) {
    faults::FaultEvent ev;
    ev.kind = faults::FaultKind::kSlotExhaust;
    ev.at = 2.0 + 6.0 * window;
    ev.duration = 3.0;
    ev.target = (window % 2 == 0) ? "sw0" : "sw1";
    ev.magnitude = 4096;  // capped at the pool size: full exhaustion
    plan.events.push_back(ev);
  }
  return plan;
}

struct ChaosScenario {
  const char* name = nullptr;
  faults::FaultPlan (*plan)() = nullptr;
};

const ChaosScenario kClean{"clean", nullptr};
const ChaosScenario kLinkFlap{"link_flap", link_flap_plan};
const ChaosScenario kSlotExhaust{"slot_exhaust", slot_exhaust_plan};

struct Cell {
  serve::ServingReport report;
  std::uint64_t ina_fallbacks = 0;
  bool ok = false;
};

Cell run_cell(SystemKind kind, const ChaosScenario& scenario) {
  ExperimentConfig cfg;
  cfg.topology = topo::make_testbed();
  cfg.serving.model = llm::opt_66b();
  cfg.workload.rate = 1.2;
  cfg.workload.count = 60;
  cfg.workload.lengths = wl::sharegpt_lengths();
  cfg.workload.seed = g_seed;
  cfg.serving.seed = g_seed;
  cfg.serving.sla_ttft = 2.5;
  cfg.serving.sla_tpot = 0.15;
  cfg.min_p_tens = 8;  // cross-server TP: communication on the fault path
  if (scenario.plan != nullptr) cfg.fault_plan = scenario.plan();

  Cell cell;
  const FleetExperimentResult r = run_fleet_experiment(kind, cfg);
  cell.ok = r.ok();
  if (r.ok()) {
    cell.report = r.report.aggregate;
    cell.ina_fallbacks = r.report.ina_fallbacks;
  }
  return cell;
}

std::map<std::string, Cell> g_cells;

std::string cell_key(const ChaosScenario& scenario, SystemKind kind) {
  return std::string(scenario.name) + "/" + to_string(kind);
}

void Chaos_Cell(benchmark::State& state, SystemKind kind,
                const ChaosScenario& scenario) {
  Cell cell;
  for (auto _ : state) cell = run_cell(kind, scenario);
  g_cells[cell_key(scenario, kind)] = cell;
  state.counters["goodput_rps"] = raw(cell.report.requests_per_second);
  state.counters["sla_attainment"] = cell.report.sla_attainment;
  state.counters["ttft_p99_s"] = cell.report.ttft.p99();
  state.counters["tpot_p99_s"] = cell.report.tpot.p99();
}

#define CHAOS(scenario, system)                                         \
  BENCHMARK_CAPTURE(Chaos_Cell, scenario##_##system,                    \
                    SystemKind::k##system, k##scenario)                 \
      ->Iterations(1)->Unit(benchmark::kMillisecond)

CHAOS(Clean, HeroServe);
CHAOS(Clean, DistServe);
CHAOS(Clean, DsAtp);
CHAOS(Clean, DsSwitchMl);
CHAOS(LinkFlap, HeroServe);
CHAOS(LinkFlap, DistServe);
CHAOS(LinkFlap, DsAtp);
CHAOS(LinkFlap, DsSwitchMl);
CHAOS(SlotExhaust, HeroServe);
CHAOS(SlotExhaust, DistServe);
CHAOS(SlotExhaust, DsAtp);
CHAOS(SlotExhaust, DsSwitchMl);

void print_scenario(const ChaosScenario& scenario) {
  hero::bench::FigureTable table(
      std::string("Chaos (") + scenario.name +
          "): OPT-66B chatbot @1.2 req/s, cross-server TP8",
      {"system", "goodput (req/s)", "SLA att.", "TTFT p50/p99 (s)",
       "TPOT p50/p99 (s)", "INA fallbacks"});
  for (SystemKind kind : kAllSystems) {
    const Cell& c = g_cells[cell_key(scenario, kind)];
    if (!c.ok) {
      table.add_row({to_string(kind), "plan-fail"});
      continue;
    }
    table.add_row(
        {to_string(kind), fmt_double(raw(c.report.requests_per_second), 3),
         fmt_double(c.report.sla_attainment, 3),
         fmt_double(c.report.ttft.median(), 2) + " / " +
             fmt_double(c.report.ttft.p99(), 2),
         fmt_double(c.report.tpot.median(), 4) + " / " +
             fmt_double(c.report.tpot.p99(), 4),
         std::to_string(c.ina_fallbacks)});
  }
  table.print();
}

void write_json() {
  hero::bench::JsonReport json("chaos");
  for (const ChaosScenario* scenario :
       {&kClean, &kLinkFlap, &kSlotExhaust}) {
    for (SystemKind kind : kAllSystems) {
      const Cell& c = g_cells[cell_key(*scenario, kind)];
      auto& row = json.add_row();
      row.str("scenario", scenario->name).str("system", to_string(kind));
      hero::bench::report_latency_fields(row, c.report);
      row.integer("completed", c.report.completed)
          .integer("ina_fallbacks", c.ina_fallbacks);
    }
  }
  json.write("BENCH_chaos.json");
}

/// The headline claim this harness exists to demonstrate: under both fault
/// plans the adaptive scheduler must keep more goodput and a lower p99
/// TTFT than every static baseline.
void print_verdict() {
  bool adaptive_wins = true;
  for (const ChaosScenario* scenario : {&kLinkFlap, &kSlotExhaust}) {
    const Cell& hero_cell =
        g_cells[cell_key(*scenario, SystemKind::kHeroServe)];
    for (SystemKind kind :
         {SystemKind::kDistServe, SystemKind::kDsAtp,
          SystemKind::kDsSwitchMl}) {
      const Cell& base = g_cells[cell_key(*scenario, kind)];
      if (!hero_cell.ok || !base.ok) continue;
      const bool wins = hero_cell.report.requests_per_second >
                            base.report.requests_per_second &&
                        hero_cell.report.ttft.p99() < base.report.ttft.p99();
      if (!wins) {
        adaptive_wins = false;
        std::printf("verdict: HeroServe does NOT beat %s under %s\n",
                    to_string(kind), scenario->name);
      }
    }
  }
  std::printf("chaos verdict: adaptive scheduler %s every static baseline "
              "on goodput + p99 TTFT under faults\n",
              adaptive_wins ? "beats" : "FAILS to beat");
}

}  // namespace

int main(int argc, char** argv) {
  const hero::cli::Options opts = hero::bench::init(
      argc, argv, "bench_chaos [--seed N] [google-benchmark flags]");
  if (opts.seed_given) g_seed = opts.seed;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_scenario(kClean);
  print_scenario(kLinkFlap);
  print_scenario(kSlotExhaust);
  write_json();
  print_verdict();
  return 0;
}
