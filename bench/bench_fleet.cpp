// Fleet benchmark: router policies at multi-instance scale-out.
//
// Packs N replicated OPT-66B (prefill, decode) instances onto the
// rack-scale fleet cluster (oversubscribed ToR uplinks) and serves the
// same bursty ShareGPT-style trace behind each dispatch policy:
//   * rr     — round-robin (even counts, blind to request size and load);
//   * random — seeded uniform pick (the no-information baseline);
//   * jsq    — join-shortest-queue on in-flight requests;
//   * hero   — Eq. 16-style cost: estimated queue delay from the live
//     instance load snapshot, the request's predicted decode residence at
//     the instance's planned TPOT, and the KV-transfer latency of this
//     request at the current flow network's fair-share admission rate.
// Identical seed, trace, topology, and fleet plan per scale — the only
// difference between columns is the dispatch decision. Burstiness plus the
// heavy-tailed prompt lengths make blind policies pile long prefills onto
// one instance; the load-aware policies should hold p99 TTFT down.
//
// Reports goodput + p99 latency + dispatch imbalance per (scale, policy)
// cell, writes BENCH_fleet.json, and prints the verdict line CI asserts:
// the hero router must strictly beat rr and random on both goodput and
// p99 TTFT at every scale. Fixed seed: reruns are byte-identical.
#include "bench_util.hpp"

namespace {

using namespace hero;

std::uint64_t g_seed = 23;
bool g_quick = false;

constexpr serve::RouterPolicy kPolicies[] = {
    serve::RouterPolicy::kRoundRobin, serve::RouterPolicy::kRandom,
    serve::RouterPolicy::kShortestQueue, serve::RouterPolicy::kHeroServe};

std::vector<std::size_t> scales() {
  if (g_quick) return {4};
  return {4, 8, 16};
}

struct Cell {
  planner::FleetPlan plan;
  serve::FleetReport report;
  bool ok = false;
};

Cell run_cell(std::size_t instances, serve::RouterPolicy policy) {
  ExperimentConfig cfg;
  topo::FleetClusterOptions fabric;
  fabric.racks = static_cast<std::int32_t>(instances > 4 ? instances : 4);
  cfg.topology = topo::make_fleet_cluster(fabric);
  cfg.serving.model = llm::opt_66b();
  // Bursty arrivals (skewed load): Markov-modulated rate near the fleet's
  // knee — during a burst the fleet runs hot and a blind dispatch decision
  // queues a whole burst behind one instance.
  cfg.workload.rate = 1.15 * static_cast<double>(instances);
  cfg.workload.count = g_quick ? 240 : 60 * instances;
  cfg.workload.lengths = wl::sharegpt_lengths();
  cfg.workload.seed = g_seed;
  cfg.workload.bursty = true;
  cfg.workload.burst_multiplier = 3.0;
  cfg.workload.burst_fraction = 0.3;
  cfg.serving.seed = g_seed;
  cfg.serving.sla_ttft = 2.5;
  cfg.serving.sla_tpot = 0.15;
  cfg.fleet.instances = instances;
  cfg.fleet.policy = policy;

  Cell cell;
  const FleetExperimentResult r =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  cell.ok = r.ok();
  if (r.ok()) {
    cell.plan = r.plan;
    cell.report = r.report;
  }
  return cell;
}

std::map<std::string, Cell> g_cells;

std::string cell_key(std::size_t instances, serve::RouterPolicy policy) {
  return strfmt("n{}/{}", instances, serve::to_string(policy));
}

void Fleet_Cell(benchmark::State& state, std::size_t instances,
                serve::RouterPolicy policy) {
  Cell cell;
  for (auto _ : state) cell = run_cell(instances, policy);
  g_cells[cell_key(instances, policy)] = cell;
  state.counters["goodput_rps"] = raw(cell.report.aggregate.requests_per_second);
  state.counters["ttft_p99_s"] = cell.report.aggregate.ttft.p99();
  state.counters["sla_attainment"] = cell.report.aggregate.sla_attainment;
  state.counters["dispatch_imbalance"] = cell.report.dispatch_imbalance;
}

void register_cells() {
  for (std::size_t n : scales()) {
    for (serve::RouterPolicy policy : kPolicies) {
      benchmark::RegisterBenchmark(
          ("Fleet_Cell/" + cell_key(n, policy)).c_str(),
          [n, policy](benchmark::State& state) {
            Fleet_Cell(state, n, policy);
          })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void print_tables() {
  for (std::size_t n : scales()) {
    hero::bench::FigureTable table(
        "Fleet scale-out: " + std::to_string(n) +
            " OPT-66B instances, bursty arrivals",
        {"router", "goodput (req/s)", "SLA att.", "TTFT p50/p99 (s)",
         "TPOT p99 (s)", "imbalance", "GPUs"});
    for (serve::RouterPolicy policy : kPolicies) {
      const Cell& c = g_cells[cell_key(n, policy)];
      if (!c.ok) {
        table.add_row({serve::to_string(policy), "plan-fail"});
        continue;
      }
      const serve::ServingReport& agg = c.report.aggregate;
      table.add_row({serve::to_string(policy),
                     fmt_double(raw(agg.requests_per_second), 3),
                     fmt_double(agg.sla_attainment, 3),
                     fmt_double(agg.ttft.median(), 2) + " / " +
                         fmt_double(agg.ttft.p99(), 2),
                     fmt_double(agg.tpot.p99(), 4),
                     fmt_double(c.report.dispatch_imbalance, 3),
                     std::to_string(c.plan.gpus_used)});
    }
    table.print();
  }
}

void write_json() {
  hero::bench::JsonReport json("fleet");
  for (std::size_t n : scales()) {
    for (serve::RouterPolicy policy : kPolicies) {
      const Cell& c = g_cells[cell_key(n, policy)];
      auto& row = json.add_row();
      row.integer("instances", n).str("router", serve::to_string(policy));
      hero::bench::report_latency_fields(row, c.report.aggregate);
      row.num("dispatch_imbalance", c.report.dispatch_imbalance)
          .integer("gpus_used", c.plan.gpus_used)
          .integer("completed", c.report.aggregate.completed);
    }
  }
  json.write("BENCH_fleet.json");
}

/// The headline claim this harness exists to demonstrate: the load-aware
/// hero router must strictly beat round-robin and random dispatch on both
/// goodput and p99 TTFT at every fleet scale.
void print_verdict() {
  bool hero_wins = true;
  for (std::size_t n : scales()) {
    const Cell& hero_cell =
        g_cells[cell_key(n, serve::RouterPolicy::kHeroServe)];
    for (serve::RouterPolicy base :
         {serve::RouterPolicy::kRoundRobin, serve::RouterPolicy::kRandom}) {
      const Cell& c = g_cells[cell_key(n, base)];
      if (!hero_cell.ok || !c.ok) {
        hero_wins = false;
        std::printf("verdict: missing cell at %zu instances\n", n);
        continue;
      }
      const bool wins = hero_cell.report.aggregate.requests_per_second >
                            c.report.aggregate.requests_per_second &&
                        hero_cell.report.aggregate.ttft.p99() <
                            c.report.aggregate.ttft.p99();
      if (!wins) {
        hero_wins = false;
        std::printf("verdict: hero does NOT beat %s at %zu instances\n",
                    serve::to_string(base), n);
      }
    }
  }
  std::printf("fleet verdict: hero router %s rr and random on goodput + "
              "p99 TTFT at every scale\n",
              hero_wins ? "beats" : "FAILS to beat");
}

}  // namespace

int main(int argc, char** argv) {
  const hero::cli::Options opts = hero::bench::init(
      argc, argv,
      "bench_fleet [--seed N] [--quick] [google-benchmark flags]");
  if (opts.seed_given) g_seed = opts.seed;
  g_quick = opts.quick;
  register_cells();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_tables();
  write_json();
  print_verdict();
  return 0;
}
