// Fleet serving tests: the fleet planner packs disjoint replicas, the
// router is deterministic with stable lowest-id tie-breaking, and the
// fleet pipeline serves whole traces reproducibly.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/heroserve.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hero {
namespace {

planner::PlannerInputs base_inputs(const topo::Graph& graph,
                                   const llm::ModelConfig& model) {
  planner::PlannerInputs in;
  in.graph = &graph;
  in.model = model;
  in.latency = &fitted_model(model);
  in.k_in = 256;
  in.k_in2 = 256 * 256 * 2;
  in.k_out = 200;
  in.arrival_rate = 2.0;
  in.seed = 5;
  return in;
}

std::vector<topo::NodeId> instance_gpus(const planner::PlanResult& plan) {
  std::vector<topo::NodeId> gpus = plan.prefill.all_gpus();
  const std::vector<topo::NodeId> dec = plan.decode.all_gpus();
  gpus.insert(gpus.end(), dec.begin(), dec.end());
  return gpus;
}

TEST(FleetPlanner, PacksDisjointInstances) {
  const topo::Graph graph = topo::make_fleet_cluster();
  planner::FleetPlannerInputs in;
  in.base = base_inputs(graph, llm::opt_66b());
  in.instances = 4;
  in.fleet_arrival_rate = 2.0;
  planner::FleetPlanner fleet(in);
  const planner::FleetPlan plan = fleet.plan();
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
  ASSERT_EQ(plan.instances.size(), 4u);

  std::set<topo::NodeId> claimed;
  std::size_t total = 0;
  for (const planner::PlanResult& p : plan.instances) {
    ASSERT_TRUE(p.feasible);
    for (topo::NodeId g : instance_gpus(p)) {
      EXPECT_TRUE(claimed.insert(g).second)
          << "GPU " << g << " claimed by two instances";
      ++total;
    }
  }
  EXPECT_EQ(plan.gpus_used, total);
  EXPECT_GT(plan.service_rate_prefill, 0.0);
  EXPECT_GT(plan.service_rate_decode, 0.0);
  EXPECT_DOUBLE_EQ(raw(plan.service_rate),
                   raw(plan.instances[0].service_rate + plan.instances[1].service_rate + plan.instances[2].service_rate + plan.instances[3].service_rate));
}

TEST(FleetPlanner, ReportsWhichInstanceFailed) {
  // Two racks x one 8-GPU server cannot hold 64 replicas.
  topo::FleetClusterOptions opts;
  opts.racks = 2;
  opts.servers_per_rack = 1;
  const topo::Graph graph = topo::make_fleet_cluster(opts);
  planner::FleetPlannerInputs in;
  in.base = base_inputs(graph, llm::opt_66b());
  in.instances = 64;
  in.fleet_arrival_rate = 2.0;
  planner::FleetPlanner fleet(in);
  const planner::FleetPlan plan = fleet.plan();
  EXPECT_FALSE(plan.feasible);
  EXPECT_NE(plan.infeasible_reason.find("instance"), std::string::npos);
  EXPECT_LT(plan.instances.size(), 64u);
}

TEST(FleetPlanner, DeterministicForSeed) {
  const topo::Graph graph = topo::make_fleet_cluster();
  planner::FleetPlannerInputs in;
  in.base = base_inputs(graph, llm::opt_66b());
  in.instances = 3;
  in.fleet_arrival_rate = 2.0;
  const planner::FleetPlan a = planner::FleetPlanner(in).plan();
  const planner::FleetPlan b = planner::FleetPlanner(in).plan();
  ASSERT_TRUE(a.feasible);
  ASSERT_TRUE(b.feasible);
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(instance_gpus(a.instances[i]), instance_gpus(b.instances[i]));
  }
}

TEST(RouterPolicy, ParseRoundTrips) {
  using serve::RouterPolicy;
  for (RouterPolicy p :
       {RouterPolicy::kRoundRobin, RouterPolicy::kRandom,
        RouterPolicy::kShortestQueue, RouterPolicy::kHeroServe}) {
    const auto parsed = serve::parse_router_policy(serve::to_string(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(serve::parse_router_policy("nonsense").has_value());
}

/// Two idle single-server instances (one per rack). Greedy packing hands
/// instance 0 the larger decode pool (6 GPUs vs 4) — every other plan
/// dimension matches — so with the decode-completion term zeroed every
/// policy cost ties and the router must break toward the lowest instance
/// id, and keep doing so until load differentiates the instances.
class RouterTieBreak : public ::testing::Test {
 protected:
  void SetUp() override { build(2); }

  /// One single-server instance per rack, `racks` of them.
  void build(std::size_t racks) {
    scheduler_.reset();
    engine_.reset();
    switches_.reset();
    network_.reset();
    simulator_.reset();
    topo::FleetClusterOptions opts;
    opts.racks = racks;
    opts.servers_per_rack = 1;
    graph_ = topo::make_fleet_cluster(opts);
    planner::FleetPlannerInputs in;
    in.base = base_inputs(graph_, llm::opt_66b());
    in.instances = racks;
    in.fleet_arrival_rate = 2.0;
    planner::FleetPlan plan = planner::FleetPlanner(in).plan();
    ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
    plan_ = std::move(plan);

    simulator_ = std::make_unique<sim::Simulator>();
    network_ = std::make_unique<net::FlowNetwork>(*simulator_, graph_);
    switches_ = std::make_unique<sw::SwitchRegistry>(*simulator_, graph_);
    engine_ = std::make_unique<coll::CollectiveEngine>(
        *network_, *switches_, coll::EngineConfig{});
    scheduler_ = std::make_unique<baselines::StaticCommScheduler>(
        *network_, baselines::BaselineKind::kDistServe);
  }

  std::unique_ptr<serve::FleetSim> make_fleet(
      serve::RouterPolicy policy,
      std::optional<double> completion_weight = std::nullopt,
      std::size_t prefix_block_tokens = 0) {
    serve::FleetConfig fc;
    fc.policy = policy;
    if (completion_weight) fc.completion_weight = *completion_weight;
    serve::ServingOptions opts;
    opts.model = llm::opt_66b();
    opts.prefix_block_tokens = prefix_block_tokens;
    auto fleet = std::make_unique<serve::FleetSim>(*network_, *engine_,
                                                   *scheduler_, fc, opts);
    for (const planner::PlanResult& p : plan_.instances) {
      fleet->add_instance(p);
    }
    return fleet;
  }

  static wl::Request request() {
    wl::Request r;
    r.id = 0;
    r.arrival = 0.0;
    r.input_tokens = 256;
    r.output_tokens = 64;
    return r;
  }

  topo::Graph graph_;
  planner::FleetPlan plan_;
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<net::FlowNetwork> network_;
  std::unique_ptr<sw::SwitchRegistry> switches_;
  std::unique_ptr<coll::CollectiveEngine> engine_;
  std::unique_ptr<baselines::StaticCommScheduler> scheduler_;
};

TEST_F(RouterTieBreak, HeroCostTiesResolveToLowestId) {
  // The decode-completion term alone tells the idle instances apart (their
  // planned TPOTs differ); zero it to force a genuine tie across every
  // remaining cost term.
  const auto fleet = make_fleet(serve::RouterPolicy::kHeroServe,
                                /*completion_weight=*/0.0);
  const wl::Request r = request();
  const serve::ArrivalContext ctx = fleet->router().make_context(r);
  EXPECT_DOUBLE_EQ(fleet->router().cost(0, ctx), fleet->router().cost(1, ctx));
  // Idle fleet: every route is a tie and must stick to instance 0.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(fleet->router().route(fleet->router().make_context(r)).instance,
              0u);
  }
}

TEST_F(RouterTieBreak, HeroPrefersFasterDecodePlanWhenIdle) {
  // With the default completion weight, the idle cost prices the request's
  // predicted decode residence: instance 0's larger decode pool steps
  // faster, so it wins outright rather than by tie-break.
  const auto fleet = make_fleet(serve::RouterPolicy::kHeroServe);
  const wl::Request r = request();
  const serve::ArrivalContext ctx = fleet->router().make_context(r);
  EXPECT_LT(fleet->router().cost(0, ctx), fleet->router().cost(1, ctx));
  EXPECT_EQ(fleet->router().route(ctx).instance, 0u);
}

TEST_F(RouterTieBreak, ShortestQueueTiesResolveToLowestId) {
  const auto fleet = make_fleet(serve::RouterPolicy::kShortestQueue);
  const wl::Request r = request();
  EXPECT_EQ(fleet->router().route(fleet->router().make_context(r)).instance,
            0u);
  // Loading instance 0 breaks the tie the other way.
  fleet->instance(0).begin();
  fleet->instance(1).begin();
  fleet->instance(0).submit(r);
  EXPECT_EQ(fleet->router().route(fleet->router().make_context(r)).instance,
            1u);
}

TEST_F(RouterTieBreak, RoundRobinRotates) {
  const auto fleet = make_fleet(serve::RouterPolicy::kRoundRobin);
  const wl::Request r = request();
  EXPECT_EQ(fleet->router().route(fleet->router().make_context(r)).instance,
            0u);
  EXPECT_EQ(fleet->router().route(fleet->router().make_context(r)).instance,
            1u);
  EXPECT_EQ(fleet->router().route(fleet->router().make_context(r)).instance,
            0u);
  EXPECT_EQ(fleet->router().dispatched()[0], 2u);
  EXPECT_EQ(fleet->router().dispatched()[1], 1u);
}

// --- arrival calendar ---

/// Request ids in the order the fleet routed them (the "route" instants).
std::vector<std::uint64_t> routed_ids(const obs::EventTracer& tracer) {
  std::vector<std::uint64_t> ids;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.name != "route") continue;
    for (const obs::TraceArg& a : e.args) {
      if (a.key == "req") ids.push_back(std::stoull(a.value));
    }
  }
  return ids;
}

TEST_F(RouterTieBreak, UnsortedTraceDispatchesInArrivalThenIndexOrder) {
  obs::EventTracer tracer;
  simulator_->attach(obs::Sink(&tracer, nullptr));
  const auto fleet = make_fleet(serve::RouterPolicy::kRoundRobin);
  // Out of order, with duplicate timestamps: dispatch follows arrival
  // time, and trace position among equal times — the order the calendar
  // gave when every arrival was scheduled up front in trace order.
  const double arrivals[] = {0.3, 0.1, 0.3, 0.1, 0.2, 0.0, 0.1};
  wl::Trace trace;
  for (std::size_t i = 0; i < std::size(arrivals); ++i) {
    wl::Request r = request();
    r.id = 10 + i;
    r.arrival = arrivals[i];
    trace.push_back(r);
  }
  const serve::FleetReport report = fleet->run(trace);
  EXPECT_EQ(report.aggregate.completed, trace.size());
  EXPECT_EQ(routed_ids(tracer),
            (std::vector<std::uint64_t>{15, 11, 13, 16, 14, 10, 12}));
  // Only one arrival is ever pending, whatever the trace length.
  EXPECT_LT(simulator_->peak_pending_events(), trace.size() + 64);
}

TEST_F(RouterTieBreak, RunCutOffByMaxSimTimeDropsPendingArrivals) {
  serve::FleetConfig fc;
  fc.policy = serve::RouterPolicy::kRoundRobin;
  serve::ServingOptions opts;
  opts.model = llm::opt_66b();
  opts.max_sim_time = 1.0;
  serve::FleetSim fleet(*network_, *engine_, *scheduler_, fc, opts);
  for (const planner::PlanResult& p : plan_.instances) fleet.add_instance(p);
  {
    wl::Trace trace;
    for (const double at : {0.0, 0.5, 5.0, 6.0, 7.0}) {
      wl::Request r = request();
      r.id = trace.size();
      r.arrival = at;
      trace.push_back(r);
    }
    const serve::FleetReport report = fleet.run(trace);
    EXPECT_LT(report.aggregate.completed, trace.size());
  }  // the trace is gone; nothing on the calendar may still refer to it
  const std::vector<std::uint64_t> before = fleet.router().dispatched();
  EXPECT_EQ(before[0] + before[1], 2u);
  simulator_->run_until(20.0);
  EXPECT_EQ(fleet.router().dispatched(), before);
}

// --- prefix/KV tier at fleet level ---

TEST_F(RouterTieBreak, AffinityRoutesFollowUpToTheHolder) {
  const auto fleet = make_fleet(serve::RouterPolicy::kHeroServe,
                                std::nullopt, /*prefix_block_tokens=*/128);
  fleet->instance(0).begin();
  fleet->instance(1).begin();
  // Instance 1 holds almost all of session 7's context; the affinity-aware
  // hero cost must prefer it even though instance 0 wins on an idle fleet.
  fleet->instance(1).adopt_prefix(7, 1920);
  ASSERT_EQ(fleet->instance(1).cached_prefix_tokens(7), 1920u);
  wl::Request r = request();
  r.session_id = 7;
  r.input_tokens = 2048;
  r.prefix_tokens = 1920;
  fleet->dispatch(r);
  EXPECT_EQ(fleet->router().dispatched()[0], 0u);
  EXPECT_EQ(fleet->router().dispatched()[1], 1u);
  EXPECT_EQ(fleet->instance(1).prefix_stats().hits, 1u);
  EXPECT_EQ(fleet->instance(1).prefix_stats().reused_tokens, 1920u);
}

TEST_F(RouterTieBreak, QueueAndKvGaugesArePerInstance) {
  // Each instance writes its own i<id>. gauges; a gauge both instances
  // shared would mix their queues in one average and peak.
  obs::MetricsRegistry metrics;
  simulator_->attach(obs::Sink(nullptr, &metrics));
  const auto fleet = make_fleet(serve::RouterPolicy::kHeroServe,
                                std::nullopt, /*prefix_block_tokens=*/128);
  fleet->instance(0).begin();
  fleet->instance(1).begin();
  fleet->instance(1).adopt_prefix(7, 1920);
  wl::Request hit = request();
  hit.session_id = 7;
  hit.input_tokens = 2048;
  hit.prefix_tokens = 1920;
  fleet->dispatch(hit);
  wl::Request other = request();
  other.id = 1;
  fleet->dispatch(other);
  simulator_->run();
  for (const char* name : {"serve.prefill_queue", "serve.decoding",
                           "serve.kv_utilization", "serve.decode_wait"}) {
    for (const char* instance : {"i0.", "i1."}) {
      EXPECT_NE(metrics.find_gauge(std::string(instance) + name), nullptr)
          << instance << name;
    }
  }
  const obs::Gauge* hit_rate = metrics.find_gauge("i1.kv.hit_rate");
  ASSERT_NE(hit_rate, nullptr);
  EXPECT_DOUBLE_EQ(hit_rate->current(), 1.0);
  for (const char* shared :
       {"serve.prefill_queue", "serve.decoding", "kv.hit_rate"}) {
    EXPECT_EQ(metrics.find_gauge(shared), nullptr) << shared;
  }
  simulator_->attach(obs::Sink());
}

TEST_F(RouterTieBreak, DrainedInstanceNeverStreamsAfterRelease) {
  const auto fleet = make_fleet(serve::RouterPolicy::kHeroServe,
                                std::nullopt, /*prefix_block_tokens=*/128);
  fleet->instance(0).begin();
  fleet->instance(1).begin();
  fleet->instance(0).adopt_prefix(7, 256);
  fleet->instance(1).adopt_prefix(7, 128);

  // Drain and release instance 0 the way the controller does: its cache
  // must be empty the moment its GPUs could be handed back.
  fleet->router().drain_instance(0);
  ASSERT_EQ(fleet->stream_busy(0), 0u);
  fleet->mark_released(0);
  EXPECT_DOUBLE_EQ(raw(fleet->instance(0).kv().cached), 0.0);
  EXPECT_EQ(fleet->instance(0).cached_prefix_tokens(7), 0u);
  // The retired cache refuses new coverage, so no stale re-publication can
  // turn the released instance back into a holder.
  fleet->instance(0).adopt_prefix(7, 256);
  EXPECT_EQ(fleet->instance(0).cached_prefix_tokens(7), 0u);

  // The next turn of session 7 reuses instance 1's blocks in place and
  // never streams from instance 0.
  wl::Request r = request();
  r.session_id = 7;
  r.prefix_tokens = 256;
  fleet->dispatch(r);
  EXPECT_EQ(fleet->stream_busy(0), 0u);
  EXPECT_EQ(fleet->stream_busy(1), 0u);
  EXPECT_EQ(fleet->router().dispatched()[1], 1u);
  EXPECT_EQ(fleet->instance(1).prefix_stats().hits, 1u);
  EXPECT_EQ(fleet->instance(1).prefix_stats().reused_tokens, 128u);
}

TEST_F(RouterTieBreak, StreamSourceIsTheLongestRawHolder) {
  build(3);
  const auto fleet = make_fleet(serve::RouterPolicy::kHeroServe,
                                std::nullopt, /*prefix_block_tokens=*/128);
  for (std::size_t i = 0; i < 3; ++i) fleet->instance(i).begin();
  // Both holders cover the whole usable prefix (512 tokens); instance 1
  // caches more of the session, so it is the holder even though the
  // clamped coverages tie and instance 0 has the lower id.
  fleet->instance(0).adopt_prefix(7, 512);
  fleet->instance(1).adopt_prefix(7, 1024);
  ASSERT_EQ(fleet->instance(0).cached_prefix_tokens(7), 512u);
  ASSERT_EQ(fleet->instance(1).cached_prefix_tokens(7), 1024u);
  // Queue prefill work on both holders so the idle instance 2 wins.
  wl::Request load = request();
  load.input_tokens = 4096;
  for (std::uint64_t k = 0; k < 8; ++k) {
    load.id = 100 + k;
    fleet->instance(0).submit(load);
    fleet->instance(1).submit(load);
  }

  wl::Request r = request();
  r.session_id = 7;
  r.input_tokens = 2048;
  r.prefix_tokens = 512;
  fleet->dispatch(r);
  EXPECT_EQ(fleet->router().dispatched()[2], 1u);
  // The stream pins its source and marks both ends busy.
  EXPECT_EQ(fleet->stream_busy(0), 0u);
  EXPECT_EQ(fleet->stream_busy(1), 1u);
  EXPECT_EQ(fleet->stream_busy(2), 1u);
}

ExperimentConfig fleet_config(std::size_t instances,
                              serve::RouterPolicy policy) {
  ExperimentConfig cfg;
  cfg.topology = topo::make_fleet_cluster();
  cfg.serving.model = llm::opt_66b();
  cfg.workload.rate = 2.0;
  cfg.workload.count = 24;
  cfg.workload.lengths = wl::sharegpt_lengths();
  cfg.workload.seed = 11;
  cfg.serving.sla_ttft = 2.5;
  cfg.serving.sla_tpot = 0.15;
  cfg.fleet.instances = instances;
  cfg.fleet.policy = policy;
  return cfg;
}

TEST(FleetExperiment, ServesWholeTraceAcrossInstances) {
  const ExperimentConfig cfg =
      fleet_config(2, serve::RouterPolicy::kHeroServe);
  const FleetExperimentResult r =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  ASSERT_TRUE(r.ok()) << r.plan.infeasible_reason;
  EXPECT_EQ(r.report.aggregate.submitted, 24u);
  EXPECT_EQ(r.report.aggregate.completed, 24u);
  ASSERT_EQ(r.report.per_instance.size(), 2u);
  ASSERT_EQ(r.report.dispatched.size(), 2u);
  EXPECT_EQ(r.report.dispatched[0] + r.report.dispatched[1], 24u);
  std::size_t per_instance_completed = 0;
  for (const serve::ServingReport& rep : r.report.per_instance) {
    per_instance_completed += rep.completed;
  }
  EXPECT_EQ(per_instance_completed, 24u);
}

TEST(FleetExperiment, DeterministicForSeed) {
  for (serve::RouterPolicy policy :
       {serve::RouterPolicy::kRandom, serve::RouterPolicy::kHeroServe}) {
    const ExperimentConfig cfg = fleet_config(2, policy);
    const FleetExperimentResult a =
        run_fleet_experiment(SystemKind::kHeroServe, cfg);
    const FleetExperimentResult b =
        run_fleet_experiment(SystemKind::kHeroServe, cfg);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.report.dispatched, b.report.dispatched);
    EXPECT_DOUBLE_EQ(raw(a.report.aggregate.makespan),
                     raw(b.report.aggregate.makespan));
    EXPECT_DOUBLE_EQ(a.report.aggregate.ttft.p90(),
                     b.report.aggregate.ttft.p90());
  }
}

TEST(FleetExperiment, SimultaneousBurstDoesNotHerdToOneInstance) {
  // Regression: estimate_path on a saturated link used to report zero
  // admissible bandwidth for everyone, collapsing the hero cost to the
  // same infinity on every instance — and the tie-break then herded an
  // entire arrival burst onto instance 0. The post-admission fair share
  // (cap / (n + 1)) keeps the KV term finite and the queue terms rank the
  // instances apart.
  ExperimentConfig cfg = fleet_config(2, serve::RouterPolicy::kHeroServe);
  cfg.workload.rate = 5000.0;  // the whole trace lands near-simultaneously
  cfg.workload.count = 16;
  const FleetExperimentResult r =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  ASSERT_TRUE(r.ok()) << r.plan.infeasible_reason;
  ASSERT_EQ(r.report.dispatched.size(), 2u);
  EXPECT_EQ(r.report.dispatched[0] + r.report.dispatched[1], 16u);
  EXPECT_LT(r.report.dispatched[0], 16u)
      << "burst herded onto instance 0";
  EXPECT_GT(r.report.dispatched[0], 0u);
}

TEST(FleetExperiment, RoundRobinDispatchIsEven) {
  const ExperimentConfig cfg =
      fleet_config(2, serve::RouterPolicy::kRoundRobin);
  const FleetExperimentResult r =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.report.dispatched[0], 12u);
  EXPECT_EQ(r.report.dispatched[1], 12u);
  EXPECT_DOUBLE_EQ(r.report.dispatch_imbalance, 0.0);
}

TEST(FleetOfOne, AggregateEqualsInstanceReport) {
  // A single instance is served as a fleet of one, so the fleet aggregate
  // must reproduce the instance's own report bit for bit — including the
  // budget-weighted KV average, whose weight must be exactly 1.0. The
  // engine counters (collectives, fallbacks) are fleet-wide only and are
  // left zero in per-instance reports.
  for (std::uint64_t seed : {8u, 11u, 24u, 29u, 35u}) {
    ExperimentConfig cfg;
    cfg.topology = topo::make_testbed();
    cfg.serving.model = llm::opt_66b();
    cfg.workload.rate = 1.0;
    cfg.workload.count = 15;
    cfg.workload.lengths = wl::sharegpt_lengths();
    cfg.workload.seed = seed;
    cfg.serving.seed = seed;
    const FleetExperimentResult r =
        run_fleet_experiment(SystemKind::kHeroServe, cfg);
    ASSERT_TRUE(r.ok()) << r.plan.infeasible_reason;
    ASSERT_EQ(r.report.per_instance.size(), 1u);
    const serve::ServingReport& agg = r.report.aggregate;
    const serve::ServingReport& one = r.report.per_instance.front();
    SCOPED_TRACE(seed);
    EXPECT_EQ(agg.submitted, one.submitted);
    EXPECT_EQ(agg.completed, one.completed);
    EXPECT_EQ(agg.gpus_used, one.gpus_used);
    EXPECT_EQ(agg.sla_attainment, one.sla_attainment);
    EXPECT_EQ(agg.makespan, one.makespan);
    EXPECT_EQ(agg.requests_per_second, one.requests_per_second);
    EXPECT_EQ(agg.per_gpu_goodput, one.per_gpu_goodput);
    EXPECT_EQ(agg.kv_utilization_avg, one.kv_utilization_avg);
    EXPECT_EQ(agg.kv_utilization_peak, one.kv_utilization_peak);
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(agg.ttft.quantile(q), one.ttft.quantile(q));
      EXPECT_EQ(agg.tpot.quantile(q), one.tpot.quantile(q));
    }
    EXPECT_EQ(agg.ttft.mean(), one.ttft.mean());
    EXPECT_EQ(agg.tpot.mean(), one.tpot.mean());
  }
}

}  // namespace
}  // namespace hero
