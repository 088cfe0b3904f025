// Equivalence gate for the incremental max-min engine: the dirty-set solve
// must be *bitwise* identical to the whole-fabric solve — completion times,
// event counts, delivered bytes, serving reports — across seeds, fault
// plans, and fleet scale. Also exercises the HERO_VALIDATE-style cross-check
// (set_solve_validation) end to end: zero mismatches on a stressed run.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/heroserve.hpp"
#include "netsim/flownet.hpp"
#include "topology/builders.hpp"

namespace hero {
namespace {

using net::FlowNetwork;
using net::TransferId;
using net::TransferOptions;

/// One scripted flow workload on the testbed: staggered starts, mixed
/// store-and-forward / pipelined / weighted flows, mid-run cancels and a
/// link degradation. Scripted up front so both engines replay the exact
/// same byte stream.
struct FlowScript {
  struct Entry {
    Time at = 0.0;
    topo::Path path;
    Bytes bytes = 0.0;
    bool pipelined = false;
    double weight = 1.0;
  };
  std::vector<Entry> entries;
  std::vector<std::pair<Time, std::size_t>> cancels;  // (time, entry index)
};

FlowScript make_script(const topo::Graph& g, std::uint64_t seed) {
  FlowScript script;
  const auto gpus = g.gpus();
  Rng rng(seed);
  const topo::Routes routes(g);
  for (int i = 0; i < 40; ++i) {
    const topo::NodeId src = gpus[rng.uniform_int(gpus.size())];
    topo::NodeId dst = gpus[rng.uniform_int(gpus.size())];
    if (src == dst) continue;
    auto p = routes.path(src, dst);
    if (!p || p->empty()) continue;
    FlowScript::Entry e;
    e.at = rng.uniform(0.0, raw(200.0 * units::us));
    e.path = *p;
    e.bytes = rng.uniform(0.05, 4.0) * units::MB;
    e.pipelined = rng.uniform(0.0, 1.0) < 0.3;
    e.weight = rng.uniform(0.0, 1.0) < 0.2 ? 2.0 : 1.0;
    script.entries.push_back(std::move(e));
  }
  // Cancel every 7th entry shortly after its start.
  for (std::size_t i = 3; i < script.entries.size(); i += 7) {
    script.cancels.emplace_back(script.entries[i].at + 20.0 * units::us, i);
  }
  return script;
}

struct Replay {
  std::vector<std::pair<TransferId, Time>> completions;
  std::vector<Bytes> delivered;  // per directed link
  std::uint64_t executed = 0;
  std::uint64_t scheduled = 0;
  net::FlowNetStats stats;
};

Replay replay(const topo::Graph& g, const FlowScript& script,
              bool full_solve, bool validate = false) {
  sim::Simulator simulator;
  FlowNetwork netw(simulator, g);
  netw.set_full_solve(full_solve);
  if (validate) netw.set_solve_validation(true);

  Replay out;
  std::vector<TransferId> started(script.entries.size(),
                                  net::kInvalidTransfer);
  for (std::size_t i = 0; i < script.entries.size(); ++i) {
    const FlowScript::Entry& e = script.entries[i];
    simulator.schedule(e.at, [&, i] {
      TransferOptions opts;
      opts.pipelined = script.entries[i].pipelined;
      opts.weight = script.entries[i].weight;
      opts.on_complete = [&](TransferId id) {
        out.completions.emplace_back(id, simulator.now());
      };
      started[i] = netw.start_transfer(script.entries[i].path,
                                       script.entries[i].bytes,
                                       std::move(opts));
    });
  }
  for (const auto& [at, idx] : script.cancels) {
    simulator.schedule(at, [&, idx = idx] {
      if (started[idx] != net::kInvalidTransfer) {
        netw.cancel_transfer(started[idx]);
      }
    });
  }
  // Halve one edge mid-run, restore later: stresses forced refreshes.
  simulator.schedule(150.0 * units::us,
                     [&] { netw.set_link_degradation(0, 0.5); });
  simulator.schedule(400.0 * units::us,
                     [&] { netw.set_link_degradation(0, 1.0); });
  simulator.run();

  for (topo::EdgeId e = 0; e < g.edge_count(); ++e) {
    for (bool fwd : {true, false}) {
      out.delivered.push_back(
          netw.delivered_bytes(net::DirectedLink{e, fwd}));
    }
  }
  out.executed = simulator.executed_events();
  out.scheduled = simulator.scheduled_events();
  out.stats = netw.stats();
  EXPECT_EQ(netw.active_transfers(), 0u);
  return out;
}

class EngineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineEquivalence, FlowLevelBitwiseIdentical) {
  const topo::Graph g = topo::make_testbed();
  const FlowScript script = make_script(g, GetParam());
  ASSERT_GT(script.entries.size(), 20u);
  const Replay inc = replay(g, script, /*full_solve=*/false);
  const Replay full = replay(g, script, /*full_solve=*/true);

  // Completion order, ids, and times must match bit for bit — the
  // progress/reschedule-only-on-rate-change rule makes the two modes emit
  // identical event streams, not merely close ones.
  ASSERT_EQ(inc.completions.size(), full.completions.size());
  for (std::size_t i = 0; i < inc.completions.size(); ++i) {
    EXPECT_EQ(inc.completions[i].first, full.completions[i].first);
    EXPECT_EQ(inc.completions[i].second, full.completions[i].second)
        << "completion " << i << " diverged";
  }
  EXPECT_EQ(inc.delivered, full.delivered);
  EXPECT_EQ(inc.executed, full.executed);
  EXPECT_EQ(inc.scheduled, full.scheduled);
  // The incremental engine must actually be incremental: strictly fewer
  // per-flow solves than the full engine on the same run.
  EXPECT_LT(inc.stats.flows_solved, full.stats.flows_solved);
  EXPECT_EQ(inc.stats.flows_active, full.stats.flows_active);
}

TEST_P(EngineEquivalence, ValidationModeFindsNoMismatches) {
  const topo::Graph g = topo::make_testbed();
  const FlowScript script = make_script(g, GetParam());
  const Replay r =
      replay(g, script, /*full_solve=*/false, /*validate=*/true);
  EXPECT_GT(r.stats.validations, 0u);
  EXPECT_EQ(r.stats.mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalence,
                         ::testing::Values(1u, 2u, 3u));

ExperimentConfig experiment_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.topology = topo::make_testbed();
  cfg.serving.model = llm::opt_66b();
  cfg.workload.rate = 2.0;
  cfg.workload.count = 24;
  cfg.workload.lengths = wl::sharegpt_lengths();
  cfg.workload.seed = seed;
  cfg.serving.seed = seed;
  cfg.serving.sla_ttft = 2.5;
  cfg.serving.sla_tpot = 0.15;
  return cfg;
}

void expect_percentiles_identical(const Percentiles& a,
                                  const Percentiles& b) {
  ASSERT_EQ(a.count(), b.count());
  // EXPECT_EQ on doubles is exact comparison — bitwise, not approximate.
  EXPECT_EQ(a.median(), b.median());
  EXPECT_EQ(a.p90(), b.p90());
  EXPECT_EQ(a.p99(), b.p99());
  EXPECT_EQ(a.mean(), b.mean());
}

void expect_reports_identical(const serve::ServingReport& a,
                              const serve::ServingReport& b) {
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  expect_percentiles_identical(a.ttft, b.ttft);
  expect_percentiles_identical(a.tpot, b.tpot);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.sla_attainment, b.sla_attainment);
  EXPECT_EQ(a.kv_utilization_avg, b.kv_utilization_avg);
}

class ExperimentEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ExperimentEquivalence, ServingRunBitwiseIdentical) {
  ExperimentConfig cfg = experiment_config(GetParam());
  cfg.netsim.full_solve = false;
  const FleetExperimentResult inc =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  cfg.netsim.full_solve = true;
  const FleetExperimentResult full =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(full.ok());
  expect_reports_identical(inc.report.aggregate, full.report.aggregate);
  EXPECT_EQ(inc.sim_stats.events_executed, full.sim_stats.events_executed);
  EXPECT_EQ(inc.sim_stats.events_scheduled, full.sim_stats.events_scheduled);
  EXPECT_EQ(inc.sim_stats.sim_seconds, full.sim_stats.sim_seconds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExperimentEquivalence,
                         ::testing::Values(1u, 2u, 3u));

TEST(EngineEquivalenceChaos, FaultedRunBitwiseIdentical) {
  ExperimentConfig cfg = experiment_config(17);
  cfg.min_p_tens = 8;
  faults::FaultEvent ev;
  ev.kind = faults::FaultKind::kLinkFlap;
  ev.at = 2.0;
  ev.period = 4.0;
  ev.duration = 2.0;
  ev.count = 5;
  ev.target = "w0g1-sw1";
  ev.magnitude = 0.05;
  cfg.fault_plan.events.push_back(ev);

  cfg.netsim.full_solve = false;
  const FleetExperimentResult inc =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  cfg.netsim.full_solve = true;
  const FleetExperimentResult full =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(full.ok());
  expect_reports_identical(inc.report.aggregate, full.report.aggregate);
  EXPECT_EQ(inc.sim_stats.events_executed, full.sim_stats.events_executed);
}

TEST(EngineEquivalenceFleet, FleetRunBitwiseIdentical) {
  ExperimentConfig cfg = experiment_config(11);
  cfg.topology = topo::make_fleet_cluster();
  cfg.fleet.instances = 2;
  cfg.fleet.policy = serve::RouterPolicy::kHeroServe;

  cfg.netsim.full_solve = false;
  const FleetExperimentResult inc =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  cfg.netsim.full_solve = true;
  const FleetExperimentResult full =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(inc.report.dispatched, full.report.dispatched);
  expect_reports_identical(inc.report.aggregate, full.report.aggregate);
  EXPECT_EQ(inc.sim_stats.events_executed, full.sim_stats.events_executed);
  EXPECT_EQ(inc.sim_stats.events_scheduled,
            full.sim_stats.events_scheduled);
}

}  // namespace
}  // namespace hero
