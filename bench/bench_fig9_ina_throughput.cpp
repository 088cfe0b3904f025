// Fig. 9 reproduction: in-network aggregation throughput vs message size
// (4 MB - 64 MB), 2tracks configuration.
//
// Paper (SV-B): "in the 2tracks scenario, HeroServe improves throughput by
// 71.7%, 26%, and 20.1% over DistServe, DS-ATP, and DS-SwitchML".
//
// Setup: one 2tracks pod (6 servers x 8 A100s). Six TP=8 groups, each
// spanning a server pair (4 GPUs + 4 GPUs), run closed-loop all-reduces of
// the given message size for a fixed simulated window. Aggregation
// throughput = aggregate all-reduced payload bytes per second across
// groups. Slot pressure is real: 64 aggregator slots per switch, 32 per
// job, six concurrent jobs — the regime where synchronous INA queues,
// asynchronous INA falls back to the PS, and HeroServe reduces locally
// over NVLink before a two-leader inter-server exchange.
#include "baselines/static_scheduler.hpp"
#include "bench_util.hpp"
#include "online/scheduler.hpp"

namespace {

using namespace hero;

constexpr double kWindowSeconds = 0.5;
constexpr std::size_t kGroups = 6;

topo::Graph make_pod() {
  topo::TracksOptions opts;
  opts.servers = 6;
  opts.tracks = 2;
  opts.servers_per_pod = 6;
  opts.core_switches = 2;
  topo::Graph g = topo::make_tracks_cluster(opts);
  const auto ps = g.add_server("ps");
  g.add_edge(ps, g.find("p0a0"), topo::LinkKind::kEthernet,
             100 * units::Gbps);
  g.add_edge(ps, g.find("p0a1"), topo::LinkKind::kEthernet,
             100 * units::Gbps);
  return g;
}

/// Aggregate all-reduce goodput (bytes of reduced payload per second).
double run_throughput(SystemKind kind, Bytes message) {
  const topo::Graph graph = make_pod();
  sim::Simulator simulator;
  net::FlowNetwork network(simulator, graph);
  sw::SwitchRegistry switches(simulator, graph);
  coll::CollectiveEngine engine(network, switches);

  std::unique_ptr<coll::CommScheduler> scheduler;
  switch (kind) {
    case SystemKind::kHeroServe:
      scheduler = std::make_unique<online::HeroCommScheduler>(network);
      break;
    case SystemKind::kDistServe:
      scheduler = std::make_unique<baselines::StaticCommScheduler>(
          network, baselines::BaselineKind::kDistServe);
      break;
    case SystemKind::kDsAtp:
      scheduler = std::make_unique<baselines::StaticCommScheduler>(
          network, baselines::BaselineKind::kAtp);
      break;
    case SystemKind::kDsSwitchMl:
      scheduler = std::make_unique<baselines::StaticCommScheduler>(
          network, baselines::BaselineKind::kSwitchMl);
      break;
  }

  // Groups span server pairs: group j = first 4 GPUs of server j plus
  // first 4 GPUs of server (j+1) mod 6, so every all-reduce mixes NVLink
  // locality with mandatory inter-server traffic.
  const auto by_server = graph.gpus_by_server();
  std::vector<coll::GroupId> groups;
  for (std::size_t j = 0; j < kGroups; ++j) {
    std::vector<topo::NodeId> members;
    for (std::size_t i = 0; i < 4; ++i) members.push_back(by_server[j][i]);
    for (std::size_t i = 0; i < 4; ++i) {
      members.push_back(by_server[(j + 1) % by_server.size()][i]);
    }
    groups.push_back(scheduler->register_group(members));
  }
  scheduler->start();

  // Closed loop: each group re-issues its all-reduce on completion.
  std::uint64_t completed = 0;
  std::function<void(std::size_t)> launch = [&](std::size_t g) {
    coll::AllReducePlan plan = scheduler->all_reduce_plan(groups[g], message);
    engine.all_reduce(std::move(plan), [&, g](const coll::AllReduceResult&) {
      ++completed;
      if (simulator.now() < kWindowSeconds) launch(g);
    });
  };
  for (std::size_t g = 0; g < kGroups; ++g) launch(g);
  simulator.run_until(kWindowSeconds * 1.5);

  return static_cast<double>(completed) * raw(message) / kWindowSeconds;
}

std::map<std::string, double> g_throughput;  // "size/system" -> bytes/s
const Bytes kSizes[] = {4 * units::MB, 8 * units::MB, 16 * units::MB,
                        32 * units::MB, 64 * units::MB};

void Fig9_Cell(benchmark::State& state, SystemKind kind, Bytes message) {
  double tput = 0;
  for (auto _ : state) tput = run_throughput(kind, message);
  g_throughput[fmt_double(message / units::MB, 0) + "/" + to_string(kind)] =
      tput;
  state.counters["agg_GBps"] = tput / 1e9;
}

#define FIG9(system)                                                    \
  BENCHMARK_CAPTURE(Fig9_Cell, system##_4MB, SystemKind::k##system,     \
                    4 * units::MB)->Iterations(1);                      \
  BENCHMARK_CAPTURE(Fig9_Cell, system##_8MB, SystemKind::k##system,     \
                    8 * units::MB)->Iterations(1);                      \
  BENCHMARK_CAPTURE(Fig9_Cell, system##_16MB, SystemKind::k##system,    \
                    16 * units::MB)->Iterations(1);                     \
  BENCHMARK_CAPTURE(Fig9_Cell, system##_32MB, SystemKind::k##system,    \
                    32 * units::MB)->Iterations(1);                     \
  BENCHMARK_CAPTURE(Fig9_Cell, system##_64MB, SystemKind::k##system,    \
                    64 * units::MB)->Iterations(1)

FIG9(HeroServe);
FIG9(DistServe);
FIG9(DsAtp);
FIG9(DsSwitchMl);

}  // namespace

int main(int argc, char** argv) {
  (void)hero::bench::init(argc, argv,
                          "bench_fig9_ina_throughput [--seed N] [google-benchmark flags]");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  hero::bench::FigureTable table(
      "Fig. 9: aggregation throughput (GB/s of reduced payload), 2tracks "
      "pod, 6 concurrent TP8 groups",
      {"system", "4MB", "8MB", "16MB", "32MB", "64MB", "mean vs Hero"});
  double hero_mean = 0;
  for (SystemKind kind : kAllSystems) {
    std::vector<std::string> row{to_string(kind)};
    double mean = 0;
    for (Bytes size : kSizes) {
      const double t = g_throughput[fmt_double(size / units::MB, 0) + "/" +
                                    to_string(kind)];
      row.push_back(fmt_double(t / 1e9, 2));
      mean += t / 1e9;
    }
    mean /= std::size(kSizes);
    if (kind == SystemKind::kHeroServe) hero_mean = mean;
    row.push_back(kind == SystemKind::kHeroServe
                      ? "-"
                      : strfmt("+{}% for Hero",
                               fmt_double(100.0 * (hero_mean / mean - 1.0),
                                          1)));
    table.add_row(row);
  }
  table.print();
  std::printf(
      "paper (2tracks): Hero +71.7%% / +26%% / +20.1%% over DistServe / "
      "DS-ATP / DS-SwitchML\n");

  hero::bench::JsonReport json("fig9_ina_throughput");
  for (SystemKind kind : kAllSystems) {
    for (Bytes size : kSizes) {
      const double t = g_throughput[fmt_double(size / units::MB, 0) + "/" +
                                    to_string(kind)];
      json.add_row()
          .str("system", to_string(kind))
          .num("message_mb", size / units::MB)
          .num("agg_gbps", t / 1e9);
    }
  }
  json.write("BENCH_fig9_ina_throughput.json");
  return 0;
}
