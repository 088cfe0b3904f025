// Trace replay: serve a recorded request trace from a CSV file, the way
// the paper's traffic host replays ShareGPT/LongBench captures.
//
//   ./build/examples/trace_replay [trace.csv] [rate] [--seed N]
//                                 [--trace out.json] [--faults plan.json]
//
// Without positional arguments, generates a demo trace, saves it next to
// the binary, and replays it at two rates — demonstrating the capture ->
// rescale -> replay loop (workload/trace_io.hpp). With --trace, the first
// replay records a Chrome trace_event JSON viewable in chrome://tracing or
// https://ui.perfetto.dev. With --faults, the plan is replayed against the
// first serve (faults/fault_plan.hpp).
#include <cstdio>
#include <filesystem>

#include "common/cli.hpp"
#include "core/heroserve.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "workload/trace_io.hpp"

using namespace hero;

namespace {

void serve_trace(const topo::Graph& topology, const wl::Trace& trace,
                 const char* label, obs::Sink sink,
                 faults::FaultPlan fault_plan = {}) {
  ExperimentConfig cfg;
  cfg.topology = topology;
  cfg.serving.model = llm::opt_66b();
  cfg.serving.sla_ttft = 2.5;
  cfg.serving.sla_tpot = 0.15;
  // The planner sizes the deployment for the trace's own mean rate.
  const wl::TraceStats stats = wl::summarize(trace);
  cfg.workload.rate = stats.mean_rate;
  cfg.sink = sink;
  cfg.fault_plan = std::move(fault_plan);
  const FleetExperimentResult r =
      run_fleet_experiment(SystemKind::kHeroServe, cfg, trace);
  if (!r.ok()) {
    std::printf("%s: planner infeasible: %s\n", label,
                r.plan.infeasible_reason.c_str());
    return;
  }

  const serve::FleetReport& fleet = r.report;
  const serve::ServingReport& report = fleet.aggregate;
  std::printf(
      "%s: %zu reqs @ %.2f req/s -> attainment %.3f, TTFT p90 %.2fs, "
      "TPOT p90 %.4fs\n",
      label, trace.size(), raw(stats.mean_rate), report.sla_attainment,
      report.ttft.p90(), report.tpot.p90());
  if (fleet.trace_checked) {
    std::printf(
        "%s: trace cross-check: collectives %llu/%llu fallbacks %llu/%llu "
        "(engine/tracer) -> %s\n",
        label, static_cast<unsigned long long>(fleet.collectives),
        static_cast<unsigned long long>(fleet.trace_collectives),
        static_cast<unsigned long long>(fleet.ina_fallbacks),
        static_cast<unsigned long long>(fleet.trace_ina_fallbacks),
        fleet.trace_consistent ? "consistent" : "MISMATCH");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Options opts = cli::parse_args(
      argc, argv,
      "trace_replay [trace.csv] [rate] [--seed N] [--trace out.json] "
      "[--faults plan.json]");

  wl::Trace trace;
  if (!opts.positional.empty()) {
    trace = cli::load_or_exit(
        [&] { return wl::load_trace_csv(opts.positional[0]); });
    if (!(wl::summarize(trace).mean_rate > 0.0)) {
      std::fprintf(stderr,
                   "error: %s: replay needs >= 2 requests spread in time\n",
                   opts.positional[0].c_str());
      return 1;
    }
    std::printf("loaded %zu requests from %s\n", trace.size(),
                std::filesystem::path(opts.positional[0]).filename().c_str());
  } else {
    wl::TraceOptions gen;
    gen.rate = 1.0;
    gen.count = 60;
    gen.lengths = wl::sharegpt_lengths();
    gen.seed = opts.seed;
    trace = wl::generate_trace(gen);
    wl::save_trace_csv("demo_trace.csv", trace);
    std::printf("generated demo trace -> demo_trace.csv (%zu requests)\n",
                trace.size());
  }

  if (opts.positional.size() > 1) {
    const double rate = cli::positional_double(opts, 1, 1.0);
    if (!(rate > 0.0)) cli::bad_positional(opts, 1, "rate must be > 0");
    trace = wl::rescale_rate(std::move(trace), rate);
  }

  const topo::Graph testbed = topo::make_testbed();
  faults::FaultPlan fault_plan;
  if (!opts.faults_path.empty()) {
    fault_plan = cli::load_or_exit(
        [&] { return faults::load_fault_plan(opts.faults_path, testbed); });
    std::printf("loaded fault plan %s (%zu events)\n",
                std::filesystem::path(opts.faults_path).filename().c_str(),
                fault_plan.events.size());
  }

  // Record the first replay only: each replay runs on a fresh simulator
  // whose clock restarts at zero, so a shared trace file would interleave.
  obs::EventTracer tracer;
  obs::MetricsRegistry metrics;
  serve_trace(testbed, trace, "as recorded",
              opts.trace_path.empty() ? obs::Sink()
                                      : obs::Sink(&tracer, &metrics),
              std::move(fault_plan));
  if (!opts.trace_path.empty()) {
    if (tracer.write_chrome_trace_file(opts.trace_path.c_str())) {
      std::printf("wrote %zu trace events -> %s (load in ui.perfetto.dev)\n",
                  tracer.event_count(),
                  std::filesystem::path(opts.trace_path).filename().c_str());
    }
  }
  serve_trace(testbed,
              wl::rescale_rate(trace, wl::summarize(trace).mean_rate * 2.0),
              "replayed at 2x rate", obs::Sink());
  return 0;
}
