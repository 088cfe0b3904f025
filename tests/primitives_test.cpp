// Tests for the extra collective primitives (all-gather, reduce-scatter,
// broadcast), communication-precision support, diurnal workloads, and the
// extended GPU presets.
#include <gtest/gtest.h>

#include <cmath>

#include "collectives/primitives.hpp"
#include "gpusim/gpu_spec.hpp"
#include "llm/model.hpp"
#include "netsim/flownet.hpp"
#include "topology/builders.hpp"
#include "workload/trace.hpp"

namespace hero {
namespace {

using coll::PrimitiveKind;

struct Fixture {
  topo::Graph graph;
  sim::Simulator simulator;
  std::unique_ptr<net::FlowNetwork> network;
  std::unique_ptr<sw::SwitchRegistry> switches;
  std::unique_ptr<coll::CollectiveEngine> engine;

  Fixture() : graph(make_star(4)) {
    network = std::make_unique<net::FlowNetwork>(simulator, graph);
    switches = std::make_unique<sw::SwitchRegistry>(simulator, graph);
    engine = std::make_unique<coll::CollectiveEngine>(*network, *switches);
  }

  static topo::Graph make_star(int n) {
    topo::Graph g;
    const auto sw = g.add_switch("sw", topo::NodeKind::kAccessSwitch, 64);
    for (int i = 0; i < n; ++i) {
      const auto gpu = g.add_gpu("g" + std::to_string(i),
                                 topo::GpuModel::kA100_40, 40 * units::GB, i);
      g.add_edge(gpu, sw, topo::LinkKind::kEthernet, 100 * units::Gbps, 0.0);
    }
    return g;
  }
};

TEST(Primitives, AllGatherRingTiming) {
  Fixture f;
  const topo::Routes routes(f.graph);
  const coll::Router route = coll::shortest_path_router(routes);
  auto plan = coll::make_ring_primitive(PrimitiveKind::kAllGather,
                                        f.graph.gpus(), 4.0 * units::MB,
                                        route);
  Time latency = -1;
  coll::run_primitive(*f.engine, std::move(plan), [&](Time t) {
    latency = t;
  });
  f.simulator.run();
  // (P-1)=3 steps of 1MB chunks over 2-hop star paths: 3 * 2 * 80us.
  EXPECT_NEAR(raw(latency),
              raw(3.0 * 2.0 * 80.0 * units::us),
              raw(2.0 * units::us));
}

TEST(Primitives, ReduceScatterEqualsAllGatherOnWire) {
  Fixture f;
  const topo::Routes routes(f.graph);
  const coll::Router route = coll::shortest_path_router(routes);
  Time ag = -1, rs = -1;
  coll::run_primitive(
      *f.engine,
      coll::make_ring_primitive(PrimitiveKind::kAllGather, f.graph.gpus(),
                                4.0 * units::MB, route),
      [&](Time t) { ag = t; });
  f.simulator.run();
  coll::run_primitive(
      *f.engine,
      coll::make_ring_primitive(PrimitiveKind::kReduceScatter,
                                f.graph.gpus(), 4.0 * units::MB, route),
      [&](Time t) { rs = t; });
  f.simulator.run();
  EXPECT_NEAR(raw(ag), raw(rs), 1e-9);
}

TEST(Primitives, BroadcastWaitsForSlowestReceiver) {
  Fixture f;
  const topo::Routes routes(f.graph);
  const coll::Router route = coll::shortest_path_router(routes);
  auto plan = coll::make_broadcast_plan(f.graph.gpus(), 1.0 * units::MB,
                                        route);
  Time latency = -1;
  coll::run_primitive(*f.engine, std::move(plan), [&](Time t) {
    latency = t;
  });
  f.simulator.run();
  // Three concurrent 1MB sends share the root's uplink: first hop 3x80us,
  // then distinct downlinks.
  EXPECT_GT(latency, 160.0 * units::us);
}

TEST(Primitives, DegenerateCasesCompleteImmediately) {
  Fixture f;
  const topo::Routes routes(f.graph);
  const coll::Router route = coll::shortest_path_router(routes);
  Time latency = -1;
  coll::run_primitive(
      *f.engine,
      coll::make_ring_primitive(PrimitiveKind::kAllGather,
                                {f.graph.gpus()[0]}, units::MB, route),
      [&](Time t) { latency = t; });
  f.simulator.run();
  EXPECT_DOUBLE_EQ(raw(latency), raw(0.0));
}

TEST(Primitives, RingBuilderRejectsBroadcast) {
  Fixture f;
  const topo::Routes routes(f.graph);
  const coll::Router route = coll::shortest_path_router(routes);
  EXPECT_THROW(coll::make_ring_primitive(PrimitiveKind::kBroadcast,
                                         f.graph.gpus(), 1.0, route),
               std::invalid_argument);
}

TEST(Primitives, CostModels) {
  // All-gather: (P-1) * (bytes/P) / B.
  EXPECT_NEAR(raw(coll::all_gather_latency(4, 8.0 * units::MB, 100.0 * units::Gbps)),
              raw(3.0 * 2.0 * units::MB / 12.5e9),
              1e-12);
  EXPECT_DOUBLE_EQ(raw(coll::all_gather_latency(1, units::MB, 1e9)), raw(0.0));
  // Sequence-parallel pair == all-reduce wire cost (Eq. 11 equivalence).
  const Time pair = coll::sequence_parallel_pair_latency(
      4, 8.0 * units::MB, 100.0 * units::Gbps);
  const Time ar = coll::ring_all_reduce_latency(4, 8.0 * units::MB,
                                                100.0 * units::Gbps);
  EXPECT_NEAR(raw(pair), raw(ar), 1e-12);
}

TEST(Primitives, KindNames) {
  EXPECT_STREQ(coll::to_string(PrimitiveKind::kAllGather), "all-gather");
  EXPECT_STREQ(coll::to_string(PrimitiveKind::kBroadcast), "broadcast");
}

// --- communication precision ---

TEST(CommPrecision, Int8HalvesSyncVolume) {
  const llm::ModelConfig fp16 = llm::opt_66b();
  const llm::ModelConfig int8 = fp16.with_int8_comm();
  EXPECT_DOUBLE_EQ(raw(int8.sync_volume_per_step(1000)),
                   raw(0.5 * fp16.sync_volume_per_step(1000)));
  // Weights and KV cache stay at the compute precision.
  EXPECT_DOUBLE_EQ(raw(int8.param_bytes()), raw(fp16.param_bytes()));
  EXPECT_DOUBLE_EQ(raw(int8.kv_bytes_per_token()),
                   raw(fp16.kv_bytes_per_token()));
}

// --- GPU presets ---

TEST(GpuPresets, H100AndL4) {
  const gpu::GpuSpec h100 = gpu::spec_of(topo::GpuModel::kH100_80);
  EXPECT_EQ(h100.name, "H100-80GB");
  EXPECT_GT(h100.flops(), gpu::spec_of(topo::GpuModel::kA100_80).flops());
  const gpu::GpuSpec l4 = gpu::spec_of(topo::GpuModel::kL4_24);
  EXPECT_DOUBLE_EQ(raw(l4.memory), raw(24.0 * units::GB));
  EXPECT_STREQ(topo::to_string(topo::GpuModel::kH100_80), "H100-80GB");
}

// --- diurnal workload ---

TEST(Diurnal, PreservesMeanRate) {
  wl::DiurnalOptions opts;
  opts.base.rate = 10.0;
  opts.base.count = 8000;
  opts.period = 100.0;
  opts.amplitude = 0.6;
  const wl::Trace t = wl::generate_diurnal_trace(opts);
  EXPECT_NEAR(raw(wl::summarize(t).mean_rate), raw(10.0), 1.0);
}

TEST(Diurnal, RateOscillatesWithPeriod) {
  wl::DiurnalOptions opts;
  opts.base.rate = 50.0;
  opts.base.count = 20000;
  opts.period = 100.0;
  opts.amplitude = 0.8;
  const wl::Trace t = wl::generate_diurnal_trace(opts);
  // Count arrivals in the first vs second half of each cycle: the sine's
  // positive half must carry clearly more traffic.
  std::size_t first_half = 0, second_half = 0;
  for (const wl::Request& r : t) {
    const double phase =
        std::fmod(raw(r.arrival), raw(opts.period)) / raw(opts.period);
    (phase < 0.5 ? first_half : second_half) += 1;
  }
  EXPECT_GT(first_half, second_half * 1.5);
}

TEST(Diurnal, Validation) {
  wl::DiurnalOptions opts;
  opts.amplitude = 1.5;
  EXPECT_THROW(wl::generate_diurnal_trace(opts), std::invalid_argument);
  opts.amplitude = 0.5;
  opts.period = 0.0;
  EXPECT_THROW(wl::generate_diurnal_trace(opts), std::invalid_argument);
}

TEST(Diurnal, DeterministicForSeed) {
  wl::DiurnalOptions opts;
  opts.base.count = 100;
  const wl::Trace a = wl::generate_diurnal_trace(opts);
  const wl::Trace b = wl::generate_diurnal_trace(opts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(raw(a[i].arrival), raw(b[i].arrival));
  }
}

}  // namespace
}  // namespace hero
