// Collective-scheme crossover study: ring vs INA vs their hierarchical
// (NVLink-local) variants as message size and group size vary.
//
// This is the design-space map behind Alg. 2's per-group alpha/beta choice
// and the online scheduler's policy set: where flat INA beats flat ring,
// and how much NVLink-local reduction buys on the testbed.
#include "bench_util.hpp"
#include "collectives/engine.hpp"
#include "netsim/flownet.hpp"

namespace {

using namespace hero;

enum class Variant { kFlatRing, kFlatIna, kHierRing, kHierIna };

const char* name_of(Variant v) {
  switch (v) {
    case Variant::kFlatRing: return "flat ring (Ethernet)";
    case Variant::kFlatIna: return "flat INA";
    case Variant::kHierRing: return "hier ring (NVLink+Eth)";
    case Variant::kHierIna: return "hier INA (NVLink+Eth)";
  }
  return "?";
}

/// All-reduce over 8 GPUs (two testbed servers) with the given scheme.
Time run_collective(Variant variant, Bytes bytes,
                    topo::IntraLink intra = topo::IntraLink::kNvLink) {
  topo::TestbedOptions topts;
  topts.links.intra_link = intra;
  const topo::Graph graph = topo::make_testbed(topts);
  sim::Simulator simulator;
  net::FlowNetwork network(simulator, graph);
  sw::SwitchRegistry switches(simulator, graph);
  coll::CollectiveEngine engine(network, switches);

  const auto by_server = graph.gpus_by_server();
  std::vector<topo::NodeId> members;
  members.insert(members.end(), by_server[0].begin(), by_server[0].end());
  members.insert(members.end(), by_server[1].begin(), by_server[1].end());

  const bool hier =
      variant == Variant::kHierRing || variant == Variant::kHierIna;
  const bool ina =
      variant == Variant::kFlatIna || variant == Variant::kHierIna;
  const topo::Routes routes(
      graph, topo::PathOptions{.constraints = {.allow_nvlink = hier}});
  const coll::Router route = coll::shortest_path_router(routes);
  const auto ranked = coll::rank_aggregation_switches(routes, members, 1);

  coll::AllReducePlan plan;
  if (hier) {
    plan = coll::make_hierarchical_plan(
        graph, members, bytes,
        ina ? coll::Scheme::kInaSync : coll::Scheme::kRing, route,
        ina ? ranked.front() : topo::kInvalidNode);
  } else if (ina) {
    plan = coll::make_ina_plan(members, bytes, ranked.front(),
                               coll::Scheme::kInaSync, route);
  } else {
    plan = coll::make_ring_plan(members, bytes, route);
  }

  Time latency = 0;
  engine.all_reduce(std::move(plan), [&](const coll::AllReduceResult& r) {
    latency = r.latency();
  });
  simulator.run();
  return latency;
}

const Bytes kSizes[] = {256 * units::KiB, 1 * units::MB, 4 * units::MB,
                        16 * units::MB, 64 * units::MB};

std::map<std::string, Time> g_latency;

void Coll_Case(benchmark::State& state, Variant variant, Bytes bytes) {
  Time latency = 0;
  for (auto _ : state) {
    latency = run_collective(variant, bytes);
    benchmark::DoNotOptimize(latency);
  }
  g_latency[std::string(name_of(variant)) + "/" +
            fmt_double(bytes / units::MB, 2)] = latency;
  state.counters["latency_us"] = latency / units::us;
  // Algorithmic bandwidth: payload per member / latency.
  state.counters["algbw_GBps"] = raw(bytes / latency) / 1e9;
}

#define COLL(variant, tag)                                                  \
  BENCHMARK_CAPTURE(Coll_Case, tag##_256KiB, Variant::k##variant,           \
                    256 * units::KiB)->Iterations(1);                       \
  BENCHMARK_CAPTURE(Coll_Case, tag##_1MB, Variant::k##variant,              \
                    1 * units::MB)->Iterations(1);                          \
  BENCHMARK_CAPTURE(Coll_Case, tag##_4MB, Variant::k##variant,              \
                    4 * units::MB)->Iterations(1);                          \
  BENCHMARK_CAPTURE(Coll_Case, tag##_16MB, Variant::k##variant,             \
                    16 * units::MB)->Iterations(1);                         \
  BENCHMARK_CAPTURE(Coll_Case, tag##_64MB, Variant::k##variant,             \
                    64 * units::MB)->Iterations(1)

COLL(FlatRing, flat_ring);
COLL(FlatIna, flat_ina);
COLL(HierRing, hier_ring);
COLL(HierIna, hier_ina);

}  // namespace

void Coll_PcieCase(benchmark::State& state, Variant variant, Bytes bytes) {
  // SVII future work: the hierarchical schemes on PCIe-only servers
  // (cross-NUMA penalties included).
  Time latency = 0;
  for (auto _ : state) {
    latency = run_collective(variant, bytes, topo::IntraLink::kPcie);
  }
  g_latency[std::string(name_of(variant)) + "+pcie/" +
            fmt_double(bytes / units::MB, 2)] = latency;
  state.counters["latency_us"] = latency / units::us;
}

BENCHMARK_CAPTURE(Coll_PcieCase, pcie_hier_ring_16MB, Variant::kHierRing,
                  16 * units::MB)->Iterations(1);
BENCHMARK_CAPTURE(Coll_PcieCase, pcie_hier_ina_16MB, Variant::kHierIna,
                  16 * units::MB)->Iterations(1);

int main(int argc, char** argv) {
  (void)hero::bench::init(argc, argv,
                          "bench_collectives [--seed N] [google-benchmark flags]");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  hero::bench::FigureTable table(
      "All-reduce latency (ms), 8 GPUs across 2 testbed servers",
      {"scheme", "256KiB", "1MB", "4MB", "16MB", "64MB"});
  for (Variant v : {Variant::kFlatRing, Variant::kFlatIna,
                    Variant::kHierRing, Variant::kHierIna}) {
    std::vector<std::string> row{name_of(v)};
    for (Bytes size : kSizes) {
      row.push_back(fmt_double(
          g_latency[std::string(name_of(v)) + "/" +
                    fmt_double(size / units::MB, 2)] /
              units::ms,
          3));
    }
    table.add_row(row);
  }
  table.print();
  std::printf(
      "\nPCIe future-work mode (16MB): hier ring %.3f ms, hier INA %.3f ms "
      "(NVLink: %.3f / %.3f ms)\n",
      g_latency["hier ring (NVLink+Eth)+pcie/16.00"] / units::ms,
      g_latency["hier INA (NVLink+Eth)+pcie/16.00"] / units::ms,
      g_latency["hier ring (NVLink+Eth)/16.00"] / units::ms,
      g_latency["hier INA (NVLink+Eth)/16.00"] / units::ms);

  hero::bench::JsonReport json("collectives");
  for (Variant v : {Variant::kFlatRing, Variant::kFlatIna,
                    Variant::kHierRing, Variant::kHierIna}) {
    for (Bytes size : kSizes) {
      const Time latency = g_latency[std::string(name_of(v)) + "/" +
                                     fmt_double(size / units::MB, 2)];
      json.add_row()
          .str("scheme", name_of(v))
          .num("message_mb", size / units::MB)
          .num("latency_ms", latency / units::ms);
    }
  }
  for (const char* scheme :
       {"hier ring (NVLink+Eth)", "hier INA (NVLink+Eth)"}) {
    json.add_row()
        .str("scheme", std::string(scheme) + "+pcie")
        .num("message_mb", 16.0)
        .num("latency_ms",
             g_latency[std::string(scheme) + "+pcie/16.00"] / units::ms);
  }
  json.write("BENCH_collectives.json");
  return 0;
}
