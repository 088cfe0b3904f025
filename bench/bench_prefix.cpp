// Prefix/KV-tier benchmark: network-priced block placement vs prefix-blind
// serving on multi-turn chat workloads.
//
// Serves the same multi-turn session trace (every follow-up turn resubmits
// its session's accumulated context) on a 4-instance OPT-66B fleet under
// three prefix regimes:
//   * oneshot — no follow-up turns (~0% shareable prefill);
//   * light   — a mix of one-shot and short chats (~1/3 shareable);
//   * chat    — long sessions (~60% shareable prefill).
// Each regime runs twice over identical topology, trace, and seed:
//   * blind    — the tier disabled (prefix_block_tokens = 0): every turn
//     recomputes its full context, exactly the pre-tier serving path;
//   * affinity — the tier on: retired turns publish their KV blocks to the
//     per-instance cache, dispatch reads every cache for the best holder,
//     and the hero router settles each follow-up as kHit (route to the
//     holder), kStream (move blocks over the fabric when estimate_path
//     says the stream beats the target's recompute rate), or kRecompute.
// The only difference between the columns is the tier.
//
// Reports p99 TTFT, total prefill tokens actually computed, hit/stream/
// recompute counts per cell, writes BENCH_prefix.json, and prints the
// verdict line CI asserts: wherever the trace offers >= 30% shareable
// prefixes, affinity routing must strictly beat prefix-blind serving on
// BOTH p99 TTFT and total prefill tokens computed. Fixed seed: reruns are
// byte-identical (the determinism gate diffs the JSON).
#include "bench_util.hpp"

namespace {

using namespace hero;

std::uint64_t g_seed = 31;
bool g_quick = false;

constexpr std::size_t kInstances = 4;
constexpr std::size_t kBlockTokens = 128;
constexpr double kShareableGate = 0.30;

struct Regime {
  std::string name;
  wl::Trace trace;
  wl::TraceStats stats;
  std::size_t input_tokens = 0;  ///< sum of input_tokens over the trace
};

Regime make_regime(const std::string& name, double multi_turn_fraction,
                   double mean_turns) {
  wl::MultiturnOptions opts;
  opts.base.rate = 2.0;
  opts.base.count = g_quick ? 240 : 480;
  opts.base.seed = g_seed;
  opts.base.lengths = wl::sharegpt_lengths();
  opts.multi_turn_fraction = multi_turn_fraction;
  opts.mean_turns = mean_turns;
  opts.think_mean = 45.0;
  // Keep accumulated contexts in planner-feasible territory: the planner
  // sizes prefill for the realized mean input, and 8k-token contexts at
  // chat rates push past what the 4-rack fabric can serve inside the SLA.
  opts.max_context_tokens = 4096;
  Regime r;
  r.name = name;
  r.trace = wl::generate_multiturn_trace(opts);
  r.stats = wl::summarize(r.trace);
  for (const wl::Request& q : r.trace) r.input_tokens += q.input_tokens;
  return r;
}

struct Cell {
  planner::FleetPlan plan;
  serve::FleetReport report;
  std::size_t prefill_tokens = 0;  ///< input tokens actually prefilled
  bool ok = false;
};

Cell run_cell(const Regime& regime, bool affinity) {
  ExperimentConfig cfg;
  topo::FleetClusterOptions fabric;
  fabric.racks = kInstances;
  cfg.topology = topo::make_fleet_cluster(fabric);
  cfg.serving.model = llm::opt_66b();
  cfg.serving.seed = g_seed;
  // Long-context SLA: follow-up turns legitimately carry multi-thousand-
  // token contexts, so the per-request prefill budget is looser than the
  // short-prompt benches' 2.5s.
  cfg.serving.sla_ttft = 6.0;
  cfg.serving.sla_tpot = 0.15;
  cfg.serving.prefix_block_tokens = affinity ? kBlockTokens : 0;
  // Planner sizing: accumulated contexts make multi-turn prefills several
  // times the per-turn ShareGPT lengths, so size for the realized mean.
  cfg.workload.rate = 2.0;
  cfg.workload.count = regime.trace.size();
  cfg.workload.lengths = wl::sharegpt_lengths();
  cfg.workload.seed = g_seed;
  cfg.fleet.instances = kInstances;
  cfg.fleet.policy = serve::RouterPolicy::kHeroServe;
  cfg.fleet.prefix_affinity = affinity;

  Cell cell;
  const FleetExperimentResult r =
      run_fleet_experiment(SystemKind::kHeroServe, cfg, regime.trace);
  cell.ok = r.ok();
  if (r.ok()) {
    cell.plan = r.plan;
    cell.report = r.report;
    cell.prefill_tokens =
        regime.input_tokens - r.report.prefix.reused_tokens;
  }
  return cell;
}

std::vector<Regime> g_regimes;
std::map<std::string, Cell> g_cells;

std::string cell_key(const std::string& regime, bool affinity) {
  return regime + "/" + (affinity ? "affinity" : "blind");
}

void Prefix_Cell(benchmark::State& state, std::size_t regime_idx,
                 bool affinity) {
  const Regime& regime = g_regimes[regime_idx];
  Cell cell;
  for (auto _ : state) cell = run_cell(regime, affinity);
  state.counters["ttft_p99_s"] = cell.report.aggregate.ttft.p99();
  state.counters["prefill_tokens"] =
      static_cast<double>(cell.prefill_tokens);
  state.counters["hit_rate"] =
      cell.report.prefix.lookups > 0
          ? static_cast<double>(cell.report.prefix.hits) /
                static_cast<double>(cell.report.prefix.lookups)
          : 0.0;
  g_cells[cell_key(regime.name, affinity)] = std::move(cell);
}

void register_cells() {
  for (std::size_t i = 0; i < g_regimes.size(); ++i) {
    for (const bool affinity : {false, true}) {
      benchmark::RegisterBenchmark(
          ("Prefix_Cell/" + cell_key(g_regimes[i].name, affinity)).c_str(),
          [i, affinity](benchmark::State& state) {
            Prefix_Cell(state, i, affinity);
          })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void print_tables() {
  for (const Regime& regime : g_regimes) {
    hero::bench::FigureTable table(
        "Prefix tier: " + regime.name + " regime (" +
            fmt_double(100.0 * regime.stats.shareable_fraction, 1) +
            "% shareable, " + std::to_string(regime.stats.sessions) +
            " sessions)",
        {"serving", "TTFT p50/p99 (s)", "SLA att.", "prefill Mtok",
         "hits/streams/recomputes", "stream GB"});
    for (const bool affinity : {false, true}) {
      const Cell& c = g_cells[cell_key(regime.name, affinity)];
      if (!c.ok) {
        table.add_row({affinity ? "affinity" : "blind", "plan-fail"});
        continue;
      }
      const serve::ServingReport& agg = c.report.aggregate;
      table.add_row(
          {affinity ? "affinity" : "blind",
           fmt_double(agg.ttft.median(), 2) + " / " +
               fmt_double(agg.ttft.p99(), 2),
           fmt_double(agg.sla_attainment, 3),
           fmt_double(static_cast<double>(c.prefill_tokens) / 1e6, 3),
           std::to_string(c.report.prefix.hits) + "/" +
               std::to_string(c.report.prefix_streams) + "/" +
               std::to_string(c.report.prefix.recomputes),
           fmt_double(raw(c.report.prefix_stream_bytes) / raw(units::GB),
                      3)});
    }
    table.print();
  }
}

void write_json() {
  hero::bench::JsonReport json("prefix");
  for (const Regime& regime : g_regimes) {
    for (const bool affinity : {false, true}) {
      const Cell& c = g_cells[cell_key(regime.name, affinity)];
      auto& row = json.add_row();
      row.str("regime", regime.name)
          .str("serving", affinity ? "affinity" : "blind")
          .num("shareable_fraction", regime.stats.shareable_fraction)
          .integer("sessions", regime.stats.sessions);
      if (!c.ok) {
        row.integer("feasible", 0);
        continue;
      }
      row.integer("feasible", 1);
      hero::bench::report_latency_fields(row, c.report.aggregate);
      row.integer("prefill_tokens", c.prefill_tokens)
          .integer("trace_input_tokens", regime.input_tokens)
          .integer("completed", c.report.aggregate.completed)
          .integer("gpus_used", c.plan.gpus_used)
          .integer("prefix_lookups", c.report.prefix.lookups)
          .integer("prefix_hits", c.report.prefix.hits)
          .integer("prefix_recomputes", c.report.prefix.recomputes)
          .integer("reused_tokens", c.report.prefix.reused_tokens)
          .integer("published_tokens", c.report.prefix.published_tokens)
          .integer("prefix_streams", c.report.prefix_streams)
          .num("prefix_stream_bytes", raw(c.report.prefix_stream_bytes));
    }
  }
  json.write("BENCH_prefix.json");
}

/// The headline claim this harness exists to demonstrate. CI greps for
/// "prefix verdict: affinity PASSES".
void print_verdict() {
  bool wins = true;
  bool gated_regime_seen = false;
  for (const Regime& regime : g_regimes) {
    const Cell& blind = g_cells[cell_key(regime.name, false)];
    const Cell& affinity = g_cells[cell_key(regime.name, true)];
    if (!blind.ok || !affinity.ok) {
      wins = false;
      std::printf("%s: missing cell (blind ok=%d affinity ok=%d)\n",
                  regime.name.c_str(), blind.ok ? 1 : 0,
                  affinity.ok ? 1 : 0);
      continue;
    }
    const double bp99 = blind.report.aggregate.ttft.p99();
    const double ap99 = affinity.report.aggregate.ttft.p99();
    if (regime.stats.shareable_fraction < kShareableGate) {
      std::printf("%s: %.1f%% shareable (below %.0f%% gate) — "
                  "p99 TTFT %.2fs vs %.2fs, informational only\n",
                  regime.name.c_str(),
                  100.0 * regime.stats.shareable_fraction,
                  100.0 * kShareableGate, ap99, bp99);
      continue;
    }
    gated_regime_seen = true;
    const bool regime_ok = ap99 < bp99 &&
                           affinity.prefill_tokens < blind.prefill_tokens;
    std::printf("%s: affinity p99 TTFT %.2fs vs blind %.2fs, prefill "
                "%.3fM vs %.3fM tokens (%.1f%% shareable) -> %s\n",
                regime.name.c_str(), ap99, bp99,
                static_cast<double>(affinity.prefill_tokens) / 1e6,
                static_cast<double>(blind.prefill_tokens) / 1e6,
                100.0 * regime.stats.shareable_fraction,
                regime_ok ? "ok" : "FAIL");
    if (!regime_ok) wins = false;
  }
  if (!gated_regime_seen) wins = false;
  std::printf("prefix verdict: affinity %s prefix-blind serving on p99 "
              "TTFT + prefill tokens at >= %.0f%% shareable prefixes\n",
              wins ? "PASSES, beating" : "FAILS to beat",
              100.0 * kShareableGate);
}

}  // namespace

int main(int argc, char** argv) {
  const hero::cli::Options opts = hero::bench::init(
      argc, argv,
      "bench_prefix [--seed N] [--quick] [google-benchmark flags]");
  if (opts.seed_given) g_seed = opts.seed;
  g_quick = opts.quick;
  g_regimes.push_back(make_regime("oneshot", 0.0, 1.0));
  g_regimes.push_back(make_regime("light", 0.45, 2.0));
  g_regimes.push_back(make_regime("chat", 1.0, 5.0));
  register_cells();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_tables();
  write_json();
  print_verdict();
  return 0;
}
