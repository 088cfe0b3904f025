// Tests for the deterministic fault-injection subsystem: plan parsing,
// each injector failure domain (links, switch slots, GPUs, controller
// sync), the adaptive INA -> ring fallback + re-promotion loop, and
// byte-level determinism of chaos runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/heroserve.hpp"
#include "faults/injector.hpp"
#include "obs/trace.hpp"
#include "online/scheduler.hpp"
#include "topology/builders.hpp"

namespace hero::faults {
namespace {

using topo::NodeId;

NodeId node_named(const topo::Graph& g, const std::string& name) {
  for (NodeId id = 0; id < static_cast<NodeId>(g.node_count()); ++id) {
    if (g.node(id).name == name) return id;
  }
  ADD_FAILURE() << "no node named " << name;
  return topo::kInvalidNode;
}

// --- plan parsing ---

TEST(FaultPlanParse, ParsesEveryField) {
  const FaultPlan plan = parse_fault_plan(R"({"events": [
    {"kind": "link_flap", "at": 2.5, "duration": 1.0, "target": "w0g1-sw1",
     "magnitude": 0.05, "count": 4, "period": 3.0},
    {"kind": "slot_exhaust", "at": 1.0, "target": "sw0", "magnitude": 8}
  ]})");
  ASSERT_EQ(plan.events.size(), 2u);
  const FaultEvent& flap = plan.events[0];
  EXPECT_EQ(flap.kind, FaultKind::kLinkFlap);
  EXPECT_DOUBLE_EQ(raw(flap.at), raw(2.5));
  EXPECT_DOUBLE_EQ(raw(flap.duration), raw(1.0));
  EXPECT_EQ(flap.target, "w0g1-sw1");
  EXPECT_DOUBLE_EQ(flap.magnitude, 0.05);
  EXPECT_EQ(flap.count, 4u);
  EXPECT_DOUBLE_EQ(raw(flap.period), raw(3.0));
  const FaultEvent& slots = plan.events[1];
  EXPECT_EQ(slots.kind, FaultKind::kSlotExhaust);
  EXPECT_DOUBLE_EQ(raw(slots.duration), 0.0);  // default: permanent
  EXPECT_EQ(slots.count, 1u);
}

TEST(FaultPlanParse, EmptyEventsIsEmptyPlan) {
  EXPECT_TRUE(parse_fault_plan(R"({"events": []})").empty());
}

TEST(FaultPlanParse, RejectsMalformedPlans) {
  // Unknown top-level key.
  EXPECT_THROW(parse_fault_plan(R"({"bogus": []})"), std::runtime_error);
  // Unknown event key.
  EXPECT_THROW(
      parse_fault_plan(R"({"events": [{"kind": "gpu_slow", "when": 1}]})"),
      std::runtime_error);
  // Unknown kind.
  EXPECT_THROW(
      parse_fault_plan(R"({"events": [{"kind": "meteor_strike"}]})"),
      std::runtime_error);
  // Event without a kind.
  EXPECT_THROW(parse_fault_plan(R"({"events": [{"at": 1.0}]})"),
               std::runtime_error);
  // No events array at all.
  EXPECT_THROW(parse_fault_plan("{}"), std::runtime_error);
  // Trailing garbage.
  EXPECT_THROW(parse_fault_plan(R"({"events": []} extra)"),
               std::runtime_error);
}

TEST(FaultPlanParse, RejectsOutOfRangeEvents) {
  // One shape per rule validate() enforces; each must throw, never run.
  const char* bad[] = {
      R"({"kind": "sync_drop", "at": -1})",
      R"({"kind": "sync_drop", "at": 1e999})",
      R"({"kind": "sync_drop", "duration": -0.5})",
      R"({"kind": "link_degrade", "target": "w0g1-sw1", "magnitude": 0})",
      R"({"kind": "link_degrade", "target": "w0g1-sw1", "magnitude": 1.5})",
      R"({"kind": "link_flap", "target": "w0g1-sw1", "magnitude": 0.5,
          "period": 1, "count": -1})",
      R"({"kind": "link_flap", "target": "w0g1-sw1", "magnitude": 0.5,
          "period": 1, "count": 0})",
      R"({"kind": "link_flap", "target": "w0g1-sw1", "magnitude": 0.5,
          "period": 1, "count": 2.5})",
      R"({"kind": "link_flap", "target": "w0g1-sw1", "magnitude": 0.5,
          "period": 1, "count": 1000001})",
      R"({"kind": "link_flap", "target": "w0g1-sw1", "magnitude": 0.5,
          "period": 0, "count": 2})",
      R"({"kind": "link_flap", "target": "w0g1-sw1", "magnitude": 0.5,
          "period": 1, "duration": 2, "count": 2})",
      R"({"kind": "slot_exhaust", "target": "sw0", "magnitude": -5})",
      R"({"kind": "slot_exhaust", "target": "sw0", "magnitude": 2.5})",
      R"({"kind": "gpu_slow", "target": "w0g0", "magnitude": 0.5})",
      R"({"kind": "sync_delay", "magnitude": -0.1})",
      R"({"kind": "gpu_slow", "magnitude": 2})",
      R"({"kind": "link_degrade", "magnitude": 0.5})",
  };
  for (const char* ev : bad) {
    EXPECT_ANY_THROW(
        (void)parse_fault_plan(std::string(R"({"events": [)") + ev + "]}"))
        << ev;
  }
  // The count is range-checked before its integer conversion.
  EXPECT_THROW((void)parse_fault_plan(R"({"events": [{"kind": "link_flap",
      "target": "w0g1-sw1", "magnitude": 0.5, "period": 1,
      "count": -1}]})"),
               std::runtime_error);
  // Ranges reject as invalid_argument naming the kind and target.
  try {
    (void)parse_fault_plan(R"({"events": [{"kind": "gpu_slow",
        "target": "w0g0", "magnitude": 0.5}]})");
    ADD_FAILURE() << "gpu_slow 0.5 parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("gpu_slow on \"w0g0\""),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultPlanParse, AcceptsTheShippedPlans) {
  for (const char* name : {"link_flap.json", "switch_chaos.json"}) {
    EXPECT_FALSE(
        load_fault_plan(std::string(FAULT_PLAN_DIR) + "/" + name,
                        topo::make_testbed())
            .empty())
        << name;
  }
}

TEST(FaultPlanTargets, UnknownOrMiskindedTargetsThrow) {
  const topo::Graph testbed = topo::make_testbed();
  const auto check = [&](const char* ev) {
    check_targets(
        parse_fault_plan(std::string(R"({"events": [)") + ev + "]}"),
        testbed);
  };
  EXPECT_NO_THROW(
      check(R"({"kind": "link_degrade", "target": "w0g1-sw1",
                "magnitude": 0.5})"));
  EXPECT_NO_THROW(check(R"({"kind": "switch_restart", "target": "sw0"})"));
  EXPECT_NO_THROW(
      check(R"({"kind": "gpu_slow", "target": "w0g0", "magnitude": 2})"));
  EXPECT_THROW(
      check(R"({"kind": "gpu_slow", "target": "nope", "magnitude": 2})"),
      std::invalid_argument);
  EXPECT_THROW(
      check(R"({"kind": "link_degrade", "target": "w0g1-nope",
                "magnitude": 0.5})"),
      std::invalid_argument);
  EXPECT_THROW(
      check(R"({"kind": "link_degrade", "target": "w0g1",
                "magnitude": 0.5})"),
      std::invalid_argument);
  // Nodes of the wrong kind: a switch slowed like a GPU, a GPU restarted
  // like a switch.
  EXPECT_THROW(
      check(R"({"kind": "gpu_slow", "target": "sw0", "magnitude": 2})"),
      std::invalid_argument);
  EXPECT_THROW(check(R"({"kind": "switch_restart", "target": "w0g0"})"),
               std::invalid_argument);
  // A testbed name is unknown on the fleet cluster quickstart
  // --instances N serves on.
  EXPECT_THROW(
      check_targets(parse_fault_plan(R"({"events": [{"kind": "gpu_slow",
                        "target": "w0g0", "magnitude": 2}]})"),
                    topo::make_fleet_cluster({})),
      std::invalid_argument);
}

// --- injector failure domains ---

struct InjectorFixture {
  topo::Graph graph = topo::make_testbed();
  sim::Simulator simulator;
  net::FlowNetwork network{simulator, graph};
  sw::SwitchRegistry switches{simulator, graph};

  FaultEvent event(FaultKind kind, Time at, Time duration,
                   const std::string& target, double magnitude = 1.0) {
    FaultEvent ev;
    ev.kind = kind;
    ev.at = at;
    ev.duration = duration;
    ev.target = target;
    ev.magnitude = magnitude;
    return ev;
  }
};

TEST(FaultInjector, UnknownTargetThrowsOnArm) {
  InjectorFixture f;
  FaultPlan plan;
  plan.events.push_back(
      f.event(FaultKind::kGpuSlow, 0.0, 1.0, "no-such-gpu", 2.0));
  FaultInjector injector(f.network, plan, {});
  EXPECT_THROW(injector.arm(), std::invalid_argument);
}

TEST(FaultInjector, LinkFlapCyclesDegradation) {
  InjectorFixture f;
  const topo::EdgeId edge = [&] {
    const NodeId a = node_named(f.graph, "w0g1");
    const NodeId b = node_named(f.graph, "sw1");
    for (const topo::Adjacency& adj : f.graph.neighbors(a)) {
      if (adj.peer == b) return adj.edge;
    }
    return topo::kInvalidEdge;
  }();
  FaultPlan plan;
  FaultEvent ev =
      f.event(FaultKind::kLinkFlap, 1.0 * units::ms, 1.0 * units::ms,
              "w0g1-sw1", 0.25);
  ev.count = 3;
  ev.period = 2.0 * units::ms;
  plan.events.push_back(ev);
  FaultInjector injector(f.network, plan, {});
  injector.arm();

  EXPECT_DOUBLE_EQ(f.network.link_degradation(edge), 1.0);
  f.simulator.run_until(1.5 * units::ms);  // inside first down window
  EXPECT_DOUBLE_EQ(f.network.link_degradation(edge), 0.25);
  f.simulator.run_until(2.5 * units::ms);  // recovered half of the cycle
  EXPECT_DOUBLE_EQ(f.network.link_degradation(edge), 1.0);
  f.simulator.run_until(3.5 * units::ms);  // second down window
  EXPECT_DOUBLE_EQ(f.network.link_degradation(edge), 0.25);
  f.simulator.run_until(10.0 * units::ms);
  EXPECT_DOUBLE_EQ(f.network.link_degradation(edge), 1.0);
  EXPECT_EQ(injector.injected(), 3u);
  EXPECT_EQ(injector.recovered(), 3u);
}

/// Flap cycles go on the calendar one at a time, but must fire at exactly
/// the times (and, among equal times, in exactly the order) of the old
/// arm(), which scheduled every cycle up front with schedule_in(start) and
/// schedule_in(start + down).
TEST(FaultInjector, ChainedFlapCyclesKeepTheEagerTimes) {
  InjectorFixture f;
  obs::EventTracer tracer;
  f.simulator.attach(obs::Sink(&tracer, nullptr));
  f.simulator.schedule(3.0, [] {});
  f.simulator.run();  // arm at t = 3: arm time + offset must not drift
  const Time t_arm = f.simulator.now();

  FaultPlan plan;
  // Two links flapping in lockstep (their injects tie), periods and
  // offsets that are not exact binary fractions.
  for (const char* target : {"w0g1-sw1", "w1g1-sw1"}) {
    FaultEvent ev = f.event(FaultKind::kLinkFlap, 0.1, 0.3, target, 0.25);
    ev.count = 6;
    ev.period = 0.7;
    plan.events.push_back(ev);
  }
  FaultEvent slow = f.event(FaultKind::kLinkFlap, 0.8, 0.0, "w0g1-sw1", 0.5);
  slow.count = 3;
  slow.period = 1.4;  // down = period / 2
  plan.events.push_back(slow);

  struct Expected {
    Time at = 0.0;
    std::uint64_t key = 0;  ///< the eager schedule's insertion order
    std::string what;
  };
  std::vector<Expected> want;
  std::uint64_t key = 0;
  for (const FaultEvent& ev : plan.events) {
    const Time down = ev.duration > 0.0 ? ev.duration : ev.period / 2.0;
    for (std::uint32_t k = 0; k < ev.count; ++k) {
      const Time start = ev.at + static_cast<double>(k) * ev.period;
      want.push_back({t_arm + start, key++, ev.target + " inject"});
      want.push_back({t_arm + (start + down), key++, ev.target + " recover"});
    }
  }
  std::sort(want.begin(), want.end(),
            [](const Expected& a, const Expected& b) {
              if (a.at < b.at) return true;
              if (b.at < a.at) return false;
              return a.key < b.key;
            });

  FaultInjector injector(f.network, plan, {});
  injector.arm();
  EXPECT_LE(f.simulator.pending_events(), 2u * plan.events.size());
  f.simulator.run();

  std::vector<Expected> got;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.category != "fault") continue;
    std::string target;
    for (const obs::TraceArg& a : e.args) {
      if (a.key == "target") target = a.value;
    }
    const bool inject = e.name == "link_flap:inject";
    got.push_back({e.time, 0, target + (inject ? " inject" : " recover")});
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(raw(got[i].at), raw(want[i].at)) << "event " << i;
    EXPECT_EQ(got[i].what, want[i].what) << "event " << i;
  }
  EXPECT_EQ(injector.injected(), 15u);
  EXPECT_EQ(injector.recovered(), 15u);
}

TEST(FaultInjector, SlotExhaustSeizesAndReleasesPool) {
  InjectorFixture f;
  sw::SwitchAgent& agent = f.switches.agent(node_named(f.graph, "sw0"));
  ASSERT_GE(agent.slots_total(), 4u);
  FaultPlan plan;
  plan.events.push_back(f.event(FaultKind::kSlotExhaust, 1.0 * units::ms,
                                5.0 * units::ms, "sw0", 4.0));
  FaultInjector::Hooks hooks;
  hooks.switches = &f.switches;
  FaultInjector injector(f.network, plan, hooks);
  injector.arm();

  EXPECT_EQ(agent.slots_in_use(), 0u);
  f.simulator.run_until(2.0 * units::ms);
  EXPECT_EQ(agent.slots_in_use(), 4u);
  f.simulator.run_until(10.0 * units::ms);
  EXPECT_EQ(agent.slots_in_use(), 0u);
  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_EQ(injector.recovered(), 1u);
}

TEST(FaultInjector, SwitchRestartHoldsWholePool) {
  InjectorFixture f;
  sw::SwitchAgent& agent = f.switches.agent(node_named(f.graph, "sw1"));
  FaultPlan plan;
  plan.events.push_back(f.event(FaultKind::kSwitchRestart, 1.0 * units::ms,
                                5.0 * units::ms, "sw1"));
  FaultInjector::Hooks hooks;
  hooks.switches = &f.switches;
  FaultInjector injector(f.network, plan, hooks);
  injector.arm();

  f.simulator.run_until(2.0 * units::ms);  // idle pool drains immediately
  EXPECT_EQ(agent.slots_in_use(), agent.slots_total());
  f.simulator.run_until(10.0 * units::ms);
  EXPECT_EQ(agent.slots_in_use(), 0u);
}

TEST(FaultInjector, GpuStragglerScaleFollowsWindow) {
  InjectorFixture f;
  const NodeId gpu = node_named(f.graph, "w0g0");
  FaultPlan plan;
  plan.events.push_back(f.event(FaultKind::kGpuSlow, 1.0 * units::ms,
                                5.0 * units::ms, "w0g0", 2.5));
  FaultInjector injector(f.network, plan, {});
  injector.arm();

  EXPECT_DOUBLE_EQ(injector.compute_scale(gpu), 1.0);
  f.simulator.run_until(2.0 * units::ms);
  EXPECT_DOUBLE_EQ(injector.compute_scale(gpu), 2.5);
  f.simulator.run_until(10.0 * units::ms);
  EXPECT_DOUBLE_EQ(injector.compute_scale(gpu), 1.0);
}

TEST(FaultInjector, OverlappingStragglersStrongestWins) {
  InjectorFixture f;
  const NodeId gpu = node_named(f.graph, "w1g2");
  FaultPlan plan;
  plan.events.push_back(f.event(FaultKind::kGpuSlow, 1.0 * units::ms,
                                9.0 * units::ms, "w1g2", 1.5));
  plan.events.push_back(f.event(FaultKind::kGpuSlow, 2.0 * units::ms,
                                2.0 * units::ms, "w1g2", 4.0));
  FaultInjector injector(f.network, plan, {});
  injector.arm();

  f.simulator.run_until(3.0 * units::ms);
  EXPECT_DOUBLE_EQ(injector.compute_scale(gpu), 4.0);
  f.simulator.run_until(5.0 * units::ms);  // strong one recovered
  EXPECT_DOUBLE_EQ(injector.compute_scale(gpu), 1.5);
  f.simulator.run_until(15.0 * units::ms);
  EXPECT_DOUBLE_EQ(injector.compute_scale(gpu), 1.0);
}

// --- adaptive reaction: INA -> ring fallback and re-promotion ---

struct AdaptiveFixture : InjectorFixture {
  online::OnlineConfig config;
  std::vector<NodeId> members;

  AdaptiveFixture() {
    config.sync_period = 10.0 * units::ms;
    const auto by_server = graph.gpus_by_server();
    members.insert(members.end(), by_server[0].begin(), by_server[0].end());
    members.insert(members.end(), by_server[1].begin(), by_server[1].end());
  }
};

TEST(AdaptiveReaction, SlotExhaustionFallsBackToRingThenRepromotes) {
  AdaptiveFixture f;
  online::OnlineScheduler sched(f.network, f.config);
  const online::GroupId gid = sched.register_group(
      "tp", online::build_policies(topo::Routes(f.graph), f.members, {}));
  sched.attach_switches(&f.switches);

  // The cross-server group must have both INA and ring candidates.
  const online::PolicyTable& table = sched.table(gid);
  std::vector<std::size_t> ina;
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table.policy(i).plan.switch_node != topo::kInvalidNode) {
      ina.push_back(i);
    }
  }
  ASSERT_FALSE(ina.empty());
  ASSERT_LT(ina.size(), table.size());  // at least one non-INA alternative

  const Bytes bytes = 16 * units::MB;
  const std::size_t baseline = table.select(bytes, sched.config());

  // Seize every aggregation pool for 50 ms starting at t = 5 ms.
  FaultPlan plan;
  for (const char* sw : {"sw0", "sw1"}) {
    plan.events.push_back(f.event(FaultKind::kSlotExhaust, 5.0 * units::ms,
                                  50.0 * units::ms, sw, 4096.0));
  }
  FaultInjector::Hooks hooks;
  hooks.switches = &f.switches;
  hooks.online = &sched;
  FaultInjector injector(f.network, plan, hooks);
  injector.arm();
  sched.start();

  // During the window: every INA policy is surcharged out of Eq. 16 (cost
  // >= 1.0 decisively loses to any healthy policy) and selection lands on
  // a non-INA scheme.
  f.simulator.run_until(6.0 * units::ms);
  for (const std::size_t i : ina) {
    EXPECT_GE(table.policy(i).cost, 1.0) << table.policy(i).name;
  }
  const std::size_t during = table.select(bytes, sched.config());
  EXPECT_EQ(table.policy(during).plan.switch_node, topo::kInvalidNode);

  // After recovery the next controller tick re-syncs costs from (idle)
  // link measurements and the original choice is re-promoted.
  f.simulator.run_until(100.0 * units::ms);
  for (const std::size_t i : ina) {
    EXPECT_LT(table.policy(i).cost, 1.0) << table.policy(i).name;
  }
  EXPECT_EQ(table.select(bytes, sched.config()), baseline);
  EXPECT_EQ(injector.injected(), 2u);
  EXPECT_EQ(injector.recovered(), 2u);
}

TEST(AdaptiveReaction, StaggeredSeizureLeavesHealthySwitchSelectable) {
  AdaptiveFixture f;
  online::OnlineScheduler sched(f.network, f.config);
  const online::GroupId gid = sched.register_group(
      "tp", online::build_policies(topo::Routes(f.graph), f.members, {}));
  sched.attach_switches(&f.switches);
  const online::PolicyTable& table = sched.table(gid);

  const NodeId sw0 = node_named(f.graph, "sw0");
  FaultPlan plan;
  plan.events.push_back(f.event(FaultKind::kSlotExhaust, 5.0 * units::ms,
                                50.0 * units::ms, "sw0", 4096.0));
  FaultInjector::Hooks hooks;
  hooks.switches = &f.switches;
  hooks.online = &sched;
  FaultInjector injector(f.network, plan, hooks);
  injector.arm();
  sched.start();

  f.simulator.run_until(6.0 * units::ms);
  bool healthy_ina_cheap = false;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const online::Policy& p = table.policy(i);
    if (p.plan.switch_node == sw0) {
      EXPECT_GE(p.cost, 1.0) << p.name;  // seized switch surcharged
    } else if (p.plan.switch_node != topo::kInvalidNode) {
      healthy_ina_cheap = healthy_ina_cheap || p.cost < 1.0;
    }
  }
  // The other switch's INA policy stays viable: adaptation can keep
  // in-network aggregation instead of paying the ring detour.
  EXPECT_TRUE(healthy_ina_cheap);
  const std::size_t during = table.select(16 * units::MB, sched.config());
  EXPECT_NE(table.policy(during).plan.switch_node, sw0);
}

// --- controller sync loss with exponential backoff ---

TEST(AdaptiveReaction, SyncLossBacksOffThenRecovers) {
  AdaptiveFixture f;
  online::OnlineScheduler sched(f.network, f.config);  // 10 ms period
  (void)sched.register_group(
      "tp", online::build_policies(topo::Routes(f.graph), f.members, {}));

  FaultPlan plan;
  plan.events.push_back(f.event(FaultKind::kSyncDrop, 25.0 * units::ms,
                                150.0 * units::ms, ""));
  FaultInjector::Hooks hooks;
  hooks.online = &sched;
  FaultInjector injector(f.network, plan, hooks);
  injector.arm();
  sched.start();

  // Healthy prefix: ticks at 0, 10, and 20 ms land before the drop at
  // 25 ms.
  f.simulator.run_until(22.0 * units::ms);
  const std::uint64_t healthy_ticks = sched.controller_ticks();
  EXPECT_EQ(healthy_ticks, 3u);
  EXPECT_EQ(sched.missed_syncs(), 0u);

  // While the channel is down the retries space out exponentially
  // (10 * 2^k ms), so only a handful of sync attempts fail.
  f.simulator.run_until(200.0 * units::ms);
  const std::uint64_t missed = sched.missed_syncs();
  EXPECT_GE(missed, 3u);
  EXPECT_LE(missed, 6u);

  // After recovery (t = 175 ms) the next retry succeeds and the regular
  // cadence resumes; no further syncs are missed.
  f.simulator.run_until(500.0 * units::ms);
  EXPECT_EQ(sched.missed_syncs(), missed);
  EXPECT_GT(sched.controller_ticks(), healthy_ticks + 10);
}

TEST(AdaptiveReaction, SyncFaultsNoOpWithoutOnlineScheduler) {
  // Static baselines have no sync channel; the events land (and count)
  // without any scheduler to disrupt.
  InjectorFixture f;
  FaultPlan plan;
  plan.events.push_back(f.event(FaultKind::kSyncDrop, 1.0 * units::ms,
                                2.0 * units::ms, ""));
  plan.events.push_back(f.event(FaultKind::kSyncDelay, 1.0 * units::ms,
                                2.0 * units::ms, "", 0.005));
  FaultInjector injector(f.network, plan, {});
  injector.arm();
  f.simulator.run_until(10.0 * units::ms);
  EXPECT_EQ(injector.injected(), 2u);
  EXPECT_EQ(injector.recovered(), 2u);
}

// --- end-to-end chaos determinism ---

TEST(ChaosDeterminism, SameSeedSamePlanSameReport) {
  ExperimentConfig cfg;
  cfg.topology = topo::make_testbed();
  cfg.serving.model = llm::opt_66b();
  cfg.workload.rate = 2.0;
  cfg.workload.count = 15;
  cfg.workload.lengths = wl::sharegpt_lengths();
  cfg.workload.seed = 23;
  cfg.serving.seed = 23;
  cfg.min_p_tens = 8;
  FaultEvent flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.at = 1.0;
  flap.period = 2.0;
  flap.duration = 1.0;
  flap.count = 3;
  flap.target = "w0g1-sw1";
  flap.magnitude = 0.1;
  cfg.fault_plan.events.push_back(flap);

  const FleetExperimentResult ra =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  const FleetExperimentResult rb =
      run_fleet_experiment(SystemKind::kHeroServe, cfg);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  const serve::ServingReport& a = ra.report.aggregate;
  const serve::ServingReport& b = rb.report.aggregate;
  EXPECT_GT(a.completed, 0u);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(raw(a.requests_per_second), raw(b.requests_per_second));
  EXPECT_DOUBLE_EQ(a.ttft.p99(), b.ttft.p99());
  EXPECT_DOUBLE_EQ(a.tpot.p99(), b.tpot.p99());
  EXPECT_EQ(ra.report.ina_fallbacks, rb.report.ina_fallbacks);
}

}  // namespace
}  // namespace hero::faults
