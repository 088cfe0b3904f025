// End-to-end integration tests through the HeroServe facade: all four
// systems plan and serve; the paper's qualitative claims hold on small
// deterministic runs; failure injection behaves sanely.
#include <gtest/gtest.h>

#include "core/heroserve.hpp"

namespace hero {
namespace {

ExperimentConfig chatbot_config(double rate, std::size_t count) {
  ExperimentConfig cfg;
  cfg.topology = topo::make_testbed();
  cfg.serving.model = llm::opt_66b();
  cfg.workload.rate = rate;
  cfg.workload.count = count;
  cfg.workload.lengths = wl::sharegpt_lengths();
  cfg.workload.seed = 11;
  cfg.serving.sla_ttft = 2.5;
  cfg.serving.sla_tpot = 0.15;
  return cfg;
}

TEST(Experiment, AllSystemsServeTheTrace) {
  // Loose SLAs: this test is about end-to-end mechanics, not the knee.
  ExperimentConfig cfg = chatbot_config(1.0, 20);
  cfg.serving.sla_ttft = 5.0;
  cfg.serving.sla_tpot = 0.3;
  for (SystemKind kind : kAllSystems) {
    const FleetExperimentResult r = run_fleet_experiment(kind, cfg);
    ASSERT_TRUE(r.ok()) << to_string(kind) << ": "
                        << r.plan.infeasible_reason;
    EXPECT_EQ(r.report.aggregate.completed, 20u) << to_string(kind);
    EXPECT_GT(r.report.aggregate.sla_attainment, 0.5) << to_string(kind);
  }
}

TEST(Experiment, DeterministicForSeed) {
  const ExperimentConfig cfg = chatbot_config(1.0, 15);
  const serve::ServingReport a =
      run_fleet_experiment(SystemKind::kHeroServe, cfg).report.aggregate;
  const serve::ServingReport b =
      run_fleet_experiment(SystemKind::kHeroServe, cfg).report.aggregate;
  EXPECT_DOUBLE_EQ(raw(a.makespan), raw(b.makespan));
  EXPECT_DOUBLE_EQ(a.ttft.p90(), b.ttft.p90());
  EXPECT_EQ(a.collectives, b.collectives);
}

TEST(Experiment, HeroBeatsDistServeUnderLoad) {
  // The paper's gap shows where deployments must cross servers: OPT-175B
  // on 4-GPU servers (the Fig. 8 regime). On the 16-GPU testbed the
  // chatbot scenario admits stage-intra-server placements where all four
  // systems honestly tie; see EXPERIMENTS.md.
  topo::TracksOptions tracks;
  tracks.servers = 18;
  tracks.tracks = 2;
  tracks.servers_per_pod = 6;
  tracks.core_switches = 3;
  tracks.gpus_per_server = 4;
  ExperimentConfig cfg;
  cfg.topology = topo::make_tracks_cluster(tracks);
  cfg.serving.model = llm::opt_175b();
  cfg.workload.rate = 3.0;
  cfg.workload.count = 60;
  cfg.workload.lengths = wl::sharegpt_lengths();
  cfg.workload.seed = 23;
  cfg.serving.sla_ttft = 4.0;
  cfg.serving.sla_tpot = 0.2;
  // The paper's deployment premise (SII-B, Fig. 1): instances span servers.
  cfg.min_p_tens = 8;
  const FleetExperimentResult hero =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  const FleetExperimentResult dist =
      run_fleet_experiment(SystemKind::kDistServe, cfg);
  ASSERT_TRUE(hero.ok());
  ASSERT_TRUE(dist.ok());
  const serve::ServingReport& h = hero.report.aggregate;
  const serve::ServingReport& d = dist.report.aggregate;
  EXPECT_GT(h.sla_attainment, d.sla_attainment);
  EXPECT_LT(h.ttft.p90(), d.ttft.p90());
  EXPECT_LT(h.tpot.p90(), d.tpot.p90());
}

TEST(Experiment, HeroKeepsKvMemoryLower) {
  // Paper Fig. 10 mechanism: faster token turnaround drains KV sooner.
  const ExperimentConfig cfg = chatbot_config(4.0, 60);
  const FleetExperimentResult hero =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  const FleetExperimentResult dist =
      run_fleet_experiment(SystemKind::kDistServe, cfg);
  ASSERT_TRUE(hero.ok() && dist.ok());
  EXPECT_LT(hero.report.aggregate.kv_utilization_avg,
            dist.report.aggregate.kv_utilization_avg * 1.05);
}

TEST(Experiment, InfeasibleSlaYieldsNotOk) {
  ExperimentConfig cfg = chatbot_config(1.0, 10);
  cfg.serving.sla_ttft = 1e-6;
  const FleetExperimentResult r =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.report.aggregate.completed, 0u);
}

TEST(FindMaxRate, BracketsAttainmentTarget) {
  ExperimentConfig cfg = chatbot_config(1.0, 40);
  const RateSearchResult search =
      find_max_rate(SystemKind::kHeroServe, cfg, 0.25, 8.0, 0.9, 4);
  EXPECT_GT(search.max_rate, 0.0);
  EXPECT_LT(search.max_rate, 8.0);
  EXPECT_GE(search.at_max.report.aggregate.sla_attainment, 0.9);
  EXPECT_GE(search.samples.size(), 2u);
}

TEST(FindMaxRate, ZeroWhenLowerBoundFails) {
  ExperimentConfig cfg = chatbot_config(1.0, 30);
  cfg.serving.sla_tpot = 1e-5;  // unattainable
  const RateSearchResult search =
      find_max_rate(SystemKind::kHeroServe, cfg, 0.25, 4.0, 0.9, 3);
  EXPECT_DOUBLE_EQ(search.max_rate, 0.0);
}

TEST(FailureInjection, DegradedUplinksHurtDistServeMoreThanHero) {
  // Halving a couple of Ethernet uplinks is routed around by HeroServe's
  // heterogeneous paths; DistServe's static Ethernet ring eats the loss.
  ExperimentConfig cfg = chatbot_config(2.0, 40);
  cfg.serving.sla_ttft = 5.0;  // headroom so every system still deploys
  // Degrade the first two GPU uplink edges (Ethernet).
  int degraded = 0;
  for (topo::EdgeId e = 0; e < cfg.topology.edge_count() && degraded < 2;
       ++e) {
    if (cfg.topology.edge(e).kind == topo::LinkKind::kEthernet &&
        cfg.topology.is_gpu(cfg.topology.edge(e).a)) {
      cfg.topology.edge(e).capacity *= 0.25;
      ++degraded;
    }
  }
  ASSERT_EQ(degraded, 2);
  const FleetExperimentResult hero =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  const FleetExperimentResult dist =
      run_fleet_experiment(SystemKind::kDistServe, cfg);
  ASSERT_TRUE(hero.ok() && dist.ok());
  EXPECT_GE(hero.report.aggregate.sla_attainment,
            dist.report.aggregate.sla_attainment);
}

TEST(FittedModel, CachedPerModel) {
  const gpu::LatencyModel& a = fitted_model(llm::opt_66b());
  const gpu::LatencyModel& b = fitted_model(llm::opt_66b());
  EXPECT_EQ(&a, &b);
  const gpu::LatencyModel& c = fitted_model(llm::opt_13b());
  EXPECT_NE(&a, &c);
}

TEST(SystemKind, Names) {
  EXPECT_STREQ(to_string(SystemKind::kHeroServe), "HeroServe");
  EXPECT_STREQ(to_string(SystemKind::kDistServe), "DistServe");
  EXPECT_STREQ(to_string(SystemKind::kDsAtp), "DS-ATP");
  EXPECT_STREQ(to_string(SystemKind::kDsSwitchMl), "DS-SwitchML");
}

}  // namespace
}  // namespace hero
