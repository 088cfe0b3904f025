// Fig. 1 reproduction: prefill cost breakdown of LLaMA-3-70B with TP=4,
// batch of 8 requests x 1024 input tokens, NCCL ring all-reduce over
// cross-server 100 Gbps Ethernet.
//
// Paper: "the communication latency of all-reduce accounts for over 65% of
// the overall latency on L40 GPU, and the latency exceeds 75% on A100 due
// to its larger computation FLOPS."
//
// Compute comes from the roofline kernel model; communication executes a
// real ring all-reduce (per-layer sync volume, 2 syncs/layer) through the
// flow network on a 4-server Ethernet topology.
#include "bench_util.hpp"
#include "collectives/engine.hpp"
#include "gpusim/kernel_model.hpp"
#include "netsim/flownet.hpp"

namespace {

using namespace hero;

struct Breakdown {
  Time compute = 0;
  Time comm = 0;
  [[nodiscard]] double comm_share() const {
    return comm / (comm + compute);
  }
};

/// Four single-GPU servers behind one switch: TP=4 across servers, all
/// synchronization over Ethernet (the paper's cross-server setting).
topo::Graph cross_server_tp4() {
  topo::Graph g;
  const auto sw = g.add_switch("sw", topo::NodeKind::kAccessSwitch, 64);
  for (int i = 0; i < 4; ++i) {
    const auto gpu = g.add_gpu("g" + std::to_string(i),
                               topo::GpuModel::kL40_48, 48 * units::GB, i);
    g.add_edge(gpu, sw, topo::LinkKind::kEthernet, 100 * units::Gbps);
  }
  return g;
}

Breakdown run_breakdown(topo::GpuModel gpu_model) {
  const llm::ModelConfig model = llm::llama3_70b();
  constexpr std::size_t kBatch = 8;
  constexpr std::size_t kInputLen = 1024;
  constexpr std::size_t kKin = kBatch * kInputLen;
  constexpr std::size_t kKin2 = kBatch * kInputLen * kInputLen;
  constexpr std::size_t kTp = 4;

  Breakdown b;

  // Compute: one full prefill pass on the target GPU (noise-free).
  gpu::KernelModelOptions kopts;
  kopts.noise_sigma = 0.0;
  const gpu::KernelModel hw(gpu::spec_of(gpu_model), model, kopts);
  b.compute = hw.prefill_time(kKin, kKin2, model.layers, kTp);

  // Communication: ring all-reduce of the full iteration sync volume
  // (2 syncs/layer x L layers x K_in * h * 2B) across 4 Ethernet workers.
  const topo::Graph graph = cross_server_tp4();
  sim::Simulator simulator;
  net::FlowNetwork network(simulator, graph);
  sw::SwitchRegistry switches(simulator, graph);
  coll::CollectiveEngine engine(network, switches);
  const topo::Routes routes(graph);
  const coll::Router route = coll::shortest_path_router(routes);
  const Bytes volume = model.iteration_sync_volume(kKin, model.layers);
  engine.all_reduce(
      coll::make_ring_plan(graph.gpus(), volume, route),
      [&](const coll::AllReduceResult& r) { b.comm = r.latency(); });
  simulator.run();
  return b;
}

hero::bench::FigureTable g_table(
    "Fig. 1: LLaMA-3-70B prefill breakdown, TP=4 over 100GbE, batch 8x1024",
    {"GPU", "compute (s)", "all-reduce (s)", "comm share", "paper"});

Breakdown g_l40, g_a100;

void Fig1_L40(benchmark::State& state) {
  for (auto _ : state) g_l40 = run_breakdown(topo::GpuModel::kL40_48);
  state.counters["comm_share_pct"] = 100.0 * g_l40.comm_share();
}
BENCHMARK(Fig1_L40)->Iterations(1);

void Fig1_A100(benchmark::State& state) {
  for (auto _ : state) g_a100 = run_breakdown(topo::GpuModel::kA100_40);
  state.counters["comm_share_pct"] = 100.0 * g_a100.comm_share();
}
BENCHMARK(Fig1_A100)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  (void)hero::bench::init(argc, argv,
                          "bench_fig1_prefill_breakdown [--seed N] [google-benchmark flags]");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  g_table.add_row({"L40 FP16/FP16", fmt_double(raw(g_l40.compute), 3),
                   fmt_double(raw(g_l40.comm), 3),
                   fmt_double(100.0 * g_l40.comm_share(), 1) + "%",
                   ">65%"});
  g_table.add_row({"A100 FP16/FP16", fmt_double(raw(g_a100.compute), 3),
                   fmt_double(raw(g_a100.comm), 3),
                   fmt_double(100.0 * g_a100.comm_share(), 1) + "%",
                   ">75%"});
  g_table.print();

  hero::bench::JsonReport json("fig1_prefill_breakdown");
  for (const auto& [gpu, b] :
       {std::pair<const char*, const Breakdown&>{"L40", g_l40},
        {"A100", g_a100}}) {
    json.add_row()
        .str("gpu", gpu)
        .num("compute_s", raw(b.compute))
        .num("allreduce_s", raw(b.comm))
        .num("comm_share", b.comm_share());
  }
  json.write("BENCH_fig1_prefill_breakdown.json");
  return 0;
}
