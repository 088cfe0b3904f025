// Quickstart: plan and serve a chatbot workload on the paper's testbed.
//
// Builds the Fig. 6 testbed (four 4-GPU workers, two programmable
// switches), plans an OPT-66B deployment with the offline planner, then
// serves a ShareGPT-like trace under HeroServe and the three baselines,
// printing TTFT/TPOT/SLA-attainment for each.
//
//   ./build/examples/quickstart [rate] [requests] [--seed N]
//                               [--trace out.json] [--faults plan.json]
//                               [--instances N] [--router rr|random|jsq|hero]
//
// With --trace, the HeroServe run records a Chrome trace (open in
// chrome://tracing or https://ui.perfetto.dev): request lifecycles,
// prefill/decode spans, KV transfers, every collective with its chosen
// policy and Eq. 16 cost, and controller ticks. With --faults, the JSON
// fault plan is replayed against every system's run (chaos comparison).
//
// With --instances N (N > 1) the run switches to fleet mode: the fleet
// planner packs N replicated OPT-66B instances onto a rack-scale cluster
// and the trace is served behind the chosen --router policy (default
// hero). The positional rate is fleet-wide.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "core/heroserve.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"

namespace {

/// Fleet mode (--instances N > 1): plan N replicas on a rack-scale fleet
/// cluster and serve the trace behind the configured router.
int run_fleet(const hero::cli::Options& opts, hero::ExperimentConfig cfg,
              double rate, std::size_t requests) {
  using namespace hero;
  cfg.fleet.instances = opts.instances;
  cfg.fleet.policy = serve::RouterPolicy::kHeroServe;
  if (!opts.router.empty()) {
    const auto policy = serve::parse_router_policy(opts.router);
    if (!policy) {
      std::fprintf(stderr, "unknown router policy: %s\n",
                   opts.router.c_str());
      return 1;
    }
    cfg.fleet.policy = *policy;
  }

  std::printf(
      "HeroServe quickstart (fleet): OPT-66B x %zu instances, router = %s\n",
      opts.instances, serve::to_string(cfg.fleet.policy));
  std::printf("rate = %.2f req/s fleet-wide, %zu requests, seed = %llu\n\n",
              rate, requests, static_cast<unsigned long long>(opts.seed));

  obs::EventTracer tracer;
  obs::MetricsRegistry metrics;
  if (!opts.trace_path.empty()) cfg.sink = obs::Sink(&tracer, &metrics);

  const FleetExperimentResult r =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  if (!r.ok()) {
    std::printf("fleet planner infeasible: %s\n",
                r.plan.infeasible_reason.c_str());
    return 1;
  }

  Table table({"instance", "plan (TPxPP pre|dec)", "dispatched",
               "TTFT p90 (s)", "TPOT p90 (s)", "SLA att.", "KV util avg"});
  for (std::size_t i = 0; i < r.report.per_instance.size(); ++i) {
    const planner::PlanResult& p = r.plan.instances[i];
    const serve::ServingReport& rep = r.report.per_instance[i];
    table.add_row(
        {strfmt("i{}", i),
         std::to_string(p.prefill.parallel.p_tens) + "x" +
             std::to_string(p.prefill.parallel.p_pipe) + " | " +
             std::to_string(p.decode.parallel.p_tens) + "x" +
             std::to_string(p.decode.parallel.p_pipe),
         std::to_string(r.report.dispatched[i]),
         fmt_double(rep.ttft.p90(), 3), fmt_double(rep.tpot.p90(), 4),
         fmt_double(rep.sla_attainment, 3),
         fmt_double(rep.kv_utilization_avg, 3)});
  }
  const serve::ServingReport& agg = r.report.aggregate;
  table.add_row({"fleet", std::to_string(r.plan.gpus_used) + " GPUs",
                 std::to_string(agg.submitted), fmt_double(agg.ttft.p90(), 3),
                 fmt_double(agg.tpot.p90(), 4),
                 fmt_double(agg.sla_attainment, 3),
                 fmt_double(agg.kv_utilization_avg, 3)});
  table.print();
  std::printf(
      "\nfleet goodput = %.3f req/s/GPU, dispatch imbalance = %.3f\n",
      raw(agg.per_gpu_goodput), r.report.dispatch_imbalance);

  if (!opts.trace_path.empty()) {
    if (tracer.write_chrome_trace_file(opts.trace_path.c_str())) {
      std::printf("wrote %zu trace events -> %s\n", tracer.event_count(),
                  std::filesystem::path(opts.trace_path).filename().c_str());
    }
    std::printf("%s", metrics.snapshot(0.0).to_string().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hero;
  const cli::Options opts = cli::parse_args(
      argc, argv,
      "quickstart [rate] [requests] [--seed N] [--trace out.json] "
      "[--faults plan.json] [--instances N] [--router rr|random|jsq|hero] "
      "[--full-solve]");
  const double rate = cli::positional_double(opts, 0, 2.0);
  const std::size_t requests = cli::positional_size(opts, 1, 80);
  if (!(rate > 0.0)) cli::bad_positional(opts, 0, "rate must be > 0");
  if (requests == 0) cli::bad_positional(opts, 1, "requests must be >= 1");

  ExperimentConfig cfg;
  // --full-solve swaps the incremental max-min engine for the whole-fabric
  // solve; output must be byte-identical (the determinism gate diffs them).
  cfg.netsim.full_solve = opts.full_solve;
  if (opts.instances > 1) {
    // Fleet mode serves on a rack-scale cluster. One rack per instance
    // (min 4) keeps the planner packing comfortable while leaving rack
    // uplinks oversubscribed enough to matter.
    topo::FleetClusterOptions fabric;
    fabric.racks = static_cast<std::int32_t>(
        opts.instances > 4 ? opts.instances : 4);
    cfg.topology = topo::make_fleet_cluster(fabric);
  } else {
    cfg.topology = topo::make_testbed();
  }
  cfg.serving.model = llm::opt_66b();
  cfg.workload.rate = rate;
  cfg.workload.count = requests;
  cfg.workload.lengths = wl::sharegpt_lengths();
  cfg.workload.seed = opts.seed;
  cfg.serving.seed = opts.seed;
  cfg.serving.sla_ttft = 2.5;  // chatbot SLA (SV)
  cfg.serving.sla_tpot = 0.15;
  if (!opts.faults_path.empty()) {
    cfg.fault_plan = cli::load_or_exit(
        [&] {
          return faults::load_fault_plan(opts.faults_path, cfg.topology);
        });
    std::printf("loaded fault plan %s (%zu events)\n",
                std::filesystem::path(opts.faults_path).filename().c_str(),
                cfg.fault_plan.events.size());
  }

  if (opts.instances > 1) return run_fleet(opts, cfg, rate, requests);

  std::printf("HeroServe quickstart: OPT-66B chatbot on the Fig. 6 testbed\n");
  std::printf("rate = %.2f req/s, %zu requests, seed = %llu\n\n", rate,
              requests, static_cast<unsigned long long>(opts.seed));

  obs::EventTracer tracer;
  obs::MetricsRegistry metrics;

  Table table({"system", "plan (TPxPP pre|dec)", "TTFT p90 (s)",
               "TPOT p90 (s)", "SLA att.", "req/s", "KV util avg"});
  for (SystemKind kind : kAllSystems) {
    // Trace the HeroServe run only: each system gets its own simulator
    // timeline, and overlaying four timelines in one file is unreadable.
    const bool traced =
        !opts.trace_path.empty() && kind == SystemKind::kHeroServe;
    cfg.sink = traced ? obs::Sink(&tracer, &metrics) : obs::Sink();
    const FleetExperimentResult r = run_fleet_experiment(kind, cfg);
    if (!r.ok()) {
      table.add_row({to_string(kind), "infeasible: " +
                                          r.plan.infeasible_reason});
      continue;
    }
    const planner::PlanResult& p = r.plan.instances.front();
    const serve::ServingReport& rep = r.report.aggregate;
    table.add_row(
        {to_string(kind),
         std::to_string(p.prefill.parallel.p_tens) + "x" +
             std::to_string(p.prefill.parallel.p_pipe) + " | " +
             std::to_string(p.decode.parallel.p_tens) + "x" +
             std::to_string(p.decode.parallel.p_pipe),
         fmt_double(rep.ttft.p90(), 3), fmt_double(rep.tpot.p90(), 4),
         fmt_double(rep.sla_attainment, 3),
         fmt_double(raw(rep.requests_per_second), 2),
         fmt_double(rep.kv_utilization_avg, 3)});
    if (traced && r.report.trace_checked) {
      std::printf(
          "trace cross-check: %llu collectives (engine) vs %llu (tracer) "
          "-> %s\n",
          static_cast<unsigned long long>(r.report.collectives),
          static_cast<unsigned long long>(r.report.trace_collectives),
          r.report.trace_consistent ? "consistent" : "MISMATCH");
    }
  }
  table.print();

  if (!opts.trace_path.empty()) {
    if (tracer.write_chrome_trace_file(opts.trace_path.c_str())) {
      std::printf("\nwrote %zu trace events -> %s (load in ui.perfetto.dev)\n",
                  tracer.event_count(),
                  std::filesystem::path(opts.trace_path).filename().c_str());
    }
    std::printf("%s", metrics.snapshot(0.0).to_string().c_str());
  }
  return 0;
}
