// Tests for the observability subsystem: span bookkeeping, Chrome
// trace-event JSON schema, metrics determinism across identical seeded
// runs, and the ServingReport-vs-tracer cross-check.
#include <gtest/gtest.h>

#include <memory>

#include "core/heroserve.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"

namespace hero::obs {
namespace {

TEST(EventTracer, SpansNestAndBalancePerTrack) {
  EventTracer tr;
  const TrackId prefill = tr.track("prefill");
  const TrackId decode = tr.track("decode");
  EXPECT_NE(prefill, decode);
  EXPECT_EQ(tr.track("prefill"), prefill);  // find-or-create is idempotent

  tr.begin_span(0.0, prefill, "prefill", "batch");
  tr.begin_span(0.1, prefill, "prefill", "stage0");
  EXPECT_EQ(tr.open_spans(prefill), 2u);
  EXPECT_EQ(tr.open_spans(decode), 0u);
  tr.end_span(0.2, prefill);
  tr.end_span(0.3, prefill);
  EXPECT_EQ(tr.open_spans(prefill), 0u);

  // Events come out in recording order with matched B/E phases.
  ASSERT_EQ(tr.event_count(), 4u);
  const auto& ev = tr.events();
  EXPECT_EQ(ev[0].phase, Phase::kSpanBegin);
  EXPECT_EQ(ev[1].phase, Phase::kSpanBegin);
  EXPECT_EQ(ev[2].phase, Phase::kSpanEnd);
  EXPECT_EQ(ev[3].phase, Phase::kSpanEnd);
  EXPECT_EQ(ev[1].name, "stage0");
  EXPECT_LE(ev[0].time, ev[1].time);
}

TEST(EventTracer, CountsByCategoryAndPhase) {
  EventTracer tr;
  const std::uint64_t a = tr.next_async_id();
  const std::uint64_t b = tr.next_async_id();
  EXPECT_NE(a, b);
  tr.async_begin(1.0, a, "collective", "ring");
  tr.async_begin(1.5, b, "collective", "ina");
  tr.async_end(2.0, a, "collective", "ring");
  tr.instant(2.5, 0, "ina_fallback", "switch-reject->host-ps");
  EXPECT_EQ(tr.count("collective", Phase::kAsyncBegin), 2u);
  EXPECT_EQ(tr.count("collective", Phase::kAsyncEnd), 1u);
  EXPECT_EQ(tr.count("ina_fallback", Phase::kInstant), 1u);
  EXPECT_EQ(tr.count("nope", Phase::kInstant), 0u);
}

TEST(EventTracer, ChromeTraceJsonSchema) {
  EventTracer tr;
  const TrackId t = tr.track("prefill");
  tr.begin_span(0.001, t, "prefill", "batch",
                {arg("requests", std::size_t{3}), arg("note", "a\"b")});
  tr.end_span(0.002, t);
  tr.async_begin(0.001, 7, "net.flow", "w0g0->sw0");
  tr.async_end(0.003, 7, "net.flow", "w0g0->sw0");
  tr.instant(0.002, t, "controller", "tick");
  tr.counter(0.004, "coll.inflight", 2.0);
  const std::string json = tr.chrome_trace_json();

  // Golden schema fragments: envelope, metadata thread names, phases,
  // microsecond timestamps, async correlation ids, instant scope, escaping.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"prefill\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000.000"), std::string::npos);  // 1 ms -> us
  EXPECT_NE(json.find("\"id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"requests\":3"), std::string::npos);  // numeric arg
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);          // escaped quote
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.rfind("]}\n"), json.size() - 3);  // closed envelope
}

TEST(Metrics, GaugeTracksTimeWeightedStats) {
  Gauge g;
  g.set(0.0, 1.0);
  g.set(1.0, 3.0);
  g.set(3.0, 0.0);
  EXPECT_DOUBLE_EQ(g.current(), 0.0);
  EXPECT_DOUBLE_EQ(g.peak(), 3.0);
  // 1.0 for 1s, then 3.0 for 2s => average 7/3 over 3s.
  EXPECT_NEAR(g.average(), 7.0 / 3.0, 1e-12);
  EXPECT_EQ(g.timeline().size(), 3u);
}

TEST(Metrics, SnapshotIsSortedAndStable) {
  MetricsRegistry m;
  m.counter("z.last").add(2);
  m.counter("a.first").add(1);
  m.gauge("mid").set(0.0, 5.0);
  const MetricsSnapshot snap = m.snapshot(1.0);
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.first");
  EXPECT_EQ(snap.counters[1].first, "z.last");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].name, "mid");
  EXPECT_FALSE(snap.to_string().empty());
}

/// A ready-to-serve HeroServe deployment on the testbed with observability
/// attached (mirrors serving_test's fixture).
struct ObsServeFixture {
  topo::Graph graph = topo::make_testbed();
  llm::ModelConfig model = llm::opt_66b();
  planner::PlanResult plan;
  sim::Simulator simulator;
  EventTracer tracer;
  MetricsRegistry metrics;
  std::unique_ptr<net::FlowNetwork> network;
  std::unique_ptr<sw::SwitchRegistry> switches;
  std::unique_ptr<coll::CollectiveEngine> engine;
  std::unique_ptr<coll::CommScheduler> scheduler;

  ObsServeFixture() {
    planner::PlannerInputs in;
    in.graph = &graph;
    in.model = model;
    in.latency = &fitted_model(model);
    in.batch_q = 8;
    in.k_in = 2000;
    in.k_in2 = 600000;
    in.k_out = 1200;
    in.arrival_rate = 1.0;
    in.t_sla_prefill = 2.5;
    in.t_sla_decode = 0.15;
    in.heterogeneous = true;
    plan = planner::OfflinePlanner(in).plan();
    EXPECT_TRUE(plan.feasible) << plan.infeasible_reason;

    simulator.attach(obs::Sink(&tracer, &metrics));
    network = std::make_unique<net::FlowNetwork>(simulator, graph);
    switches = std::make_unique<sw::SwitchRegistry>(simulator, graph);
    engine = std::make_unique<coll::CollectiveEngine>(*network, *switches);
    scheduler = std::make_unique<online::HeroCommScheduler>(*network);
  }

  serve::FleetReport run(double rate, std::size_t count) {
    serve::ServingOptions opts;
    opts.model = model;
    wl::TraceOptions w;
    w.rate = rate;
    w.count = count;
    w.lengths = wl::sharegpt_lengths();
    w.seed = 3;
    serve::FleetSim fleet(*network, *engine, *scheduler, serve::FleetConfig{},
                          opts);
    fleet.add_instance(plan);
    scheduler->start();
    return fleet.run(wl::generate_trace(w));
  }
};

TEST(ObsServing, ReportCrossChecksAgainstTracer) {
  ObsServeFixture f;
  const serve::FleetReport report = f.run(0.5, 10);
  EXPECT_EQ(report.aggregate.completed, 10u);
  ASSERT_TRUE(report.trace_checked);
  EXPECT_TRUE(report.trace_consistent);
  EXPECT_GT(report.collectives, 0u);
  EXPECT_EQ(report.trace_collectives, report.collectives);
  EXPECT_EQ(report.trace_ina_fallbacks, report.ina_fallbacks);

  // The tentpole's span inventory: request lifecycles, prefill batches,
  // decode iterations, KV transfers, net flows, policy decisions, ticks.
  EXPECT_EQ(f.tracer.count("request", Phase::kAsyncEnd), 10u);
  EXPECT_GT(f.tracer.count("prefill", Phase::kSpanBegin), 0u);
  EXPECT_GT(f.tracer.count("decode", Phase::kSpanBegin), 0u);
  EXPECT_GT(f.tracer.count("kv", Phase::kAsyncEnd), 0u);
  EXPECT_GT(f.tracer.count("net.flow", Phase::kAsyncEnd), 0u);
  EXPECT_EQ(f.tracer.count("policy_decision", Phase::kInstant),
            report.collectives);
  EXPECT_GT(f.tracer.count("controller", Phase::kInstant), 0u);

  // Every nested span closed once the run drained.
  EXPECT_EQ(f.tracer.open_spans(f.tracer.track("prefill")), 0u);
  EXPECT_EQ(f.tracer.open_spans(f.tracer.track("decode")), 0u);

  // The metrics side sees the same counts as the tracer and the engine.
  const Counter* ops = f.metrics.find_counter("coll.ops");
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(ops->value(), report.collectives);
  EXPECT_NE(f.metrics.find_gauge("serve.kv_utilization"), nullptr);
  EXPECT_NE(f.metrics.find_counter("serve.arrivals"), nullptr);
}

TEST(ObsServing, IdenticalSeededRunsProduceIdenticalSnapshots) {
  auto run_once = [] {
    ObsServeFixture f;
    const serve::FleetReport report = f.run(0.8, 12);
    EXPECT_GT(report.aggregate.completed, 0u);
    return std::make_pair(f.metrics.snapshot(0.0).to_string(),
                          f.tracer.chrome_trace_json());
  };
  const auto [metrics_a, trace_a] = run_once();
  const auto [metrics_b, trace_b] = run_once();
  EXPECT_EQ(metrics_a, metrics_b);
  EXPECT_EQ(trace_a, trace_b);
}

TEST(ObsServing, ExperimentConfigWiresTracerThrough) {
  ExperimentConfig cfg;
  cfg.topology = topo::make_testbed();
  cfg.serving.model = llm::opt_66b();
  cfg.workload.rate = 0.5;
  cfg.workload.count = 6;
  cfg.workload.lengths = wl::sharegpt_lengths();
  cfg.workload.seed = 5;

  EventTracer tracer;
  MetricsRegistry metrics;
  cfg.sink = Sink(&tracer, &metrics);
  const FleetExperimentResult r =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.report.trace_checked);
  EXPECT_TRUE(r.report.trace_consistent);
  EXPECT_GT(tracer.event_count(), 0u);
  EXPECT_GT(metrics.size(), 0u);

  // Null sink = tracing off; the same experiment records nothing.
  cfg.sink = Sink();
  const FleetExperimentResult quiet =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  ASSERT_TRUE(quiet.ok());
  EXPECT_FALSE(quiet.report.trace_checked);
  EXPECT_EQ(quiet.report.collectives, r.report.collectives);
}

}  // namespace
}  // namespace hero::obs
