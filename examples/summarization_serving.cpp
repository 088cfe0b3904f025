// Summarization serving scenario: OPT-175B on a 2tracks pod cluster of
// 4-GPU servers under a LongBench-like long-input workload (the paper's
// simulation setting, SLA 25 s TTFT / 0.2 s TPOT).
//
// This is the cross-server regime: a 350 GB model on 4-GPU/40 GB servers
// cannot keep tensor-parallel groups inside one NVLink domain, so the
// communication scheduling differences between the four systems surface.
//
//   ./build/examples/summarization_serving [rate] [requests] [--seed N]
//                                          [--faults plan.json]
#include <cstdio>
#include <filesystem>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/heroserve.hpp"

using namespace hero;

int main(int argc, char** argv) {
  const cli::Options opts = cli::parse_args(
      argc, argv,
      "summarization_serving [rate] [requests] [--seed N] "
      "[--faults plan.json]");
  const double rate = cli::positional_double(opts, 0, 0.4);
  const std::size_t requests = cli::positional_size(opts, 1, 60);
  if (!(rate > 0.0)) cli::bad_positional(opts, 0, "rate must be > 0");
  if (requests == 0) cli::bad_positional(opts, 1, "requests must be >= 1");

  topo::TracksOptions topts;
  topts.servers = 18;
  topts.tracks = 2;
  topts.servers_per_pod = 6;
  topts.core_switches = 3;
  topts.gpus_per_server = 4;

  ExperimentConfig cfg;
  cfg.topology = topo::make_tracks_cluster(topts);
  const auto ps = cfg.topology.add_server("ps");
  cfg.topology.add_edge(ps, cfg.topology.find("p0a0"),
                        topo::LinkKind::kEthernet, 100 * units::Gbps);
  cfg.topology.add_edge(ps, cfg.topology.find("p0a1"),
                        topo::LinkKind::kEthernet, 100 * units::Gbps);
  cfg.serving.model = llm::opt_175b();
  cfg.workload.rate = rate;
  cfg.workload.count = requests;
  cfg.workload.lengths = wl::longbench_lengths();
  cfg.workload.seed = opts.seed_given ? opts.seed : 29;
  if (opts.seed_given) cfg.serving.seed = opts.seed;
  cfg.serving.sla_ttft = 25.0;
  cfg.serving.sla_tpot = 0.2;
  if (!opts.faults_path.empty()) {
    cfg.fault_plan = cli::load_or_exit(
        [&] {
          return faults::load_fault_plan(opts.faults_path, cfg.topology);
        });
    std::printf("loaded fault plan %s (%zu events)\n",
                std::filesystem::path(opts.faults_path).filename().c_str(),
                cfg.fault_plan.events.size());
  }

  std::printf(
      "Summarization scenario: OPT-175B on a 2tracks cluster (18 x 4-GPU "
      "servers), LongBench-like inputs, rate %.2f req/s, %zu requests\n\n",
      rate, requests);

  Table table({"system", "plan (TPxPP pre|dec)", "SLA att.", "TTFT p90 (s)",
               "TPOT p90 (s)", "KV util avg", "req/s"});
  for (SystemKind kind : kAllSystems) {
    const FleetExperimentResult r = run_fleet_experiment(kind, cfg);
    if (!r.ok()) {
      table.add_row({to_string(kind),
                     "infeasible: " + r.plan.infeasible_reason});
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
         fmt_double(rep.sla_attainment, 3), fmt_double(rep.ttft.p90(), 2),
         fmt_double(rep.tpot.p90(), 4), fmt_double(rep.kv_utilization_avg, 3),
         fmt_double(raw(rep.requests_per_second), 3)});
  }
  table.print();
  return 0;
}
