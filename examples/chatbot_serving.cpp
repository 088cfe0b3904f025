// Chatbot serving scenario (the paper's SV-A testbed experiment, Fig. 7a/b):
// OPT-66B on the Fig. 6 testbed under a ShareGPT-like interactive workload,
// SLA 2.5 s TTFT / 0.15 s TPOT.
//
// Sweeps the arrival rate for every system and prints the attainment curve,
// then the per-GPU goodput at the 90% knee — the paper's scalability
// metric.
//
//   ./build/examples/chatbot_serving [requests] [--seed N]
//                                    [--faults plan.json]
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/heroserve.hpp"

using namespace hero;

int main(int argc, char** argv) {
  const cli::Options opts = cli::parse_args(
      argc, argv, "chatbot_serving [requests] [--seed N] [--faults plan.json]");
  const std::size_t requests = cli::positional_size(opts, 0, 100);
  if (requests == 0) cli::bad_positional(opts, 0, "requests must be >= 1");

  ExperimentConfig cfg;
  cfg.topology = topo::make_testbed();
  cfg.serving.model = llm::opt_66b();
  cfg.workload.count = requests;
  cfg.workload.lengths = wl::sharegpt_lengths();
  cfg.workload.seed = opts.seed_given ? opts.seed : 17;
  if (opts.seed_given) cfg.serving.seed = opts.seed;
  cfg.serving.sla_ttft = 2.5;
  cfg.serving.sla_tpot = 0.15;
  if (!opts.faults_path.empty()) {
    cfg.fault_plan = cli::load_or_exit(
        [&] { return faults::load_fault_plan(opts.faults_path); });
    std::printf("loaded fault plan %s (%zu events)\n",
                opts.faults_path.c_str(), cfg.fault_plan.events.size());
  }

  std::printf(
      "Chatbot scenario: OPT-66B, ShareGPT-like lengths, SLA 2.5s TTFT / "
      "0.15s TPOT, %zu requests per point\n\n",
      requests);

  // Attainment curve across a fixed rate grid.
  const double rates[] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  Table curve({"rate (req/s)", "HeroServe", "DistServe", "DS-ATP",
               "DS-SwitchML"});
  for (double rate : rates) {
    std::vector<std::string> row{fmt_double(rate, 1)};
    for (SystemKind kind : kAllSystems) {
      cfg.workload.rate = rate;
      const FleetExperimentResult r = run_fleet_experiment(kind, cfg);
      row.push_back(r.ok() ? fmt_double(r.report.aggregate.sla_attainment, 3)
                           : "plan-fail");
    }
    curve.add_row(row);
  }
  std::printf("SLA attainment vs arrival rate:\n");
  curve.print();

  // Knee search (the Fig. 7a metric).
  Table knee({"system", "max rate @90% (req/s)", "per-GPU goodput",
              "TTFT p90 (s)", "TPOT p90 (s)"});
  for (SystemKind kind : kAllSystems) {
    const RateSearchResult search = find_max_rate(kind, cfg, 0.2, 8.0, 0.9, 7);
    const serve::ServingReport& rep = search.at_max.report.aggregate;
    knee.add_row({to_string(kind), fmt_double(search.max_rate, 2),
                  fmt_double(rep.gpus_used
                                 ? search.max_rate / rep.gpus_used
                                 : 0.0,
                             4),
                  fmt_double(rep.ttft.p90(), 2),
                  fmt_double(rep.tpot.p90(), 4)});
  }
  std::printf("\nScalability (90%% SLA attainment knee):\n");
  knee.print();
  return 0;
}
