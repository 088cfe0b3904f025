// Planner explorer: run the scalability-oriented offline planner on a
// topology and dump the full Table-II output — parallelism, GPU placement,
// per-group communication scheme (alpha/beta), elected aggregation
// switches, and the latency/throughput estimates behind the choice.
//
//   ./build/examples/planner_explorer [testbed|tracks] [rate] [model]
//                                     [--seed N]
//     model: 66b (default) | 175b | 13b
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/heroserve.hpp"

using namespace hero;

namespace {

void dump_cluster(const char* name, const planner::ClusterPlan& cluster,
                  const topo::Graph& graph) {
  std::printf("\n%s cluster: TP=%zu x PP=%zu, T_n=%.2f ms, T_c=%.2f ms\n",
              name, cluster.parallel.p_tens, cluster.parallel.p_pipe,
              raw(cluster.t_net) * 1e3, raw(cluster.t_comp) * 1e3);
  Table table({"stage", "GPUs", "scheme", "INA switch", "step latency (us)"});
  for (std::size_t s = 0; s < cluster.stages.size(); ++s) {
    const planner::GroupPlan& g = cluster.stages[s];
    std::string gpus;
    for (topo::NodeId id : g.gpus) {
      if (!gpus.empty()) gpus += ",";
      gpus += graph.node(id).name;
    }
    table.add_row({std::to_string(s), gpus,
                   std::string(g.hierarchical ? "hier-" : "") +
                       coll::to_string(g.scheme),
                   g.ina_switch == topo::kInvalidNode
                       ? "-"
                       : graph.node(g.ina_switch).name,
                   fmt_double(g.step_latency / units::us, 1)});
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Options opts = cli::parse_args(
      argc, argv,
      "planner_explorer [testbed|tracks] [rate] [66b|175b|13b] [--seed N]");
  const std::string topo_name = cli::positional_str(opts, 0, "testbed");
  const double rate = cli::positional_double(opts, 1, 1.5);
  const std::string model_name = cli::positional_str(opts, 2, "66b");

  topo::Graph graph;
  if (topo_name == "tracks") {
    topo::TracksOptions topts;
    topts.servers = 12;
    topts.tracks = 2;
    topts.servers_per_pod = 6;
    topts.core_switches = 3;
    topts.gpus_per_server = 4;
    graph = topo::make_tracks_cluster(topts);
  } else {
    graph = topo::make_testbed();
  }
  llm::ModelConfig model = llm::opt_66b();
  if (model_name == "175b") model = llm::opt_175b();
  if (model_name == "13b") model = llm::opt_13b();

  std::printf("profiling %s on the reference A100 (Eq. 12-13 fit)...\n",
              model.name.c_str());
  const gpu::LatencyModel& latency = fitted_model(model);

  for (const bool heterogeneous : {true, false}) {
    planner::PlannerInputs in;
    in.graph = &graph;
    in.model = model;
    in.latency = &latency;
    in.batch_q = 8;
    in.k_in = 2500;
    in.k_in2 = 900000;
    in.k_out = 1500;
    in.arrival_rate = rate;
    in.t_sla_prefill = 2.5;
    in.t_sla_decode = 0.15;
    in.heterogeneous = heterogeneous;
    if (opts.seed_given) in.seed = opts.seed;

    planner::OfflinePlanner planner(in);
    const planner::PlanResult plan = planner.plan();

    std::printf("\n==== %s planning (%s, %s, lambda=%.2f req/s) ====\n",
                heterogeneous ? "HETEROGENEOUS (HeroServe)"
                              : "HOMOGENEOUS (baseline)",
                topo_name.c_str(), model.name.c_str(), rate);
    if (!plan.feasible) {
      std::printf("infeasible: %s (evaluated %zu candidates, %zu work units)\n",
                  plan.infeasible_reason.c_str(), plan.candidates_evaluated,
                  plan.solve_work_units);
      continue;
    }
    std::printf(
        "H=%.4f req/s | TTFT est %.3f s | TPOT est %.4f s | KV tail %.4f s "
        "| q_decode=%zu | mu=%.2f req/s\n",
        raw(plan.throughput_h), raw(plan.t_prefill), raw(plan.t_decode),
        raw(plan.t_kv), plan.q_decode, raw(plan.service_rate));
    std::printf("solved in %zu work units over %zu candidates (%zu swaps)\n",
                plan.solve_work_units, plan.candidates_evaluated,
                plan.perturbation_swaps);
    dump_cluster("prefill", plan.prefill, graph);
    dump_cluster("decode", plan.decode, graph);
  }
  return 0;
}
