// Online rebalancing demo: watch the load-aware scheduler's policy cost
// table (paper Fig. 5) react to congestion and a link failure.
//
// One TP=8 group spanning two testbed servers runs a steady stream of
// all-reduces. Midway, a background bulk flow congests the primary access
// switch; later, one leader uplink degrades to 10%. The demo prints the
// policy cost table each interval and which policy the scheduler selects —
// showing the Eq. 16 selection and Eq. 17/18 cost propagation at work.
//
//   ./build/examples/online_rebalance [--seed N] [--faults plan.json]
//
// The link failure is injected through the faults subsystem: without
// --faults a built-in plan degrades the w0g0->sw0 uplink to 10% at
// t = 0.4 s; pass your own plan to script different chaos.
#include <cstdio>

#include "collectives/engine.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "faults/injector.hpp"
#include "online/scheduler.hpp"
#include "topology/builders.hpp"

using namespace hero;

int main(int argc, char** argv) {
  const cli::Options cli_opts = cli::parse_args(
      argc, argv, "online_rebalance [--seed N] [--faults plan.json]");
  const topo::Graph graph = topo::make_testbed();
  sim::Simulator simulator;
  net::FlowNetwork network(simulator, graph);
  sw::SwitchRegistry switches(simulator, graph);
  coll::CollectiveEngine engine(network, switches);
  online::HeroCommScheduler scheduler(network);

  // One TP=8 group across servers w0 and w1.
  const auto by_server = graph.gpus_by_server();
  std::vector<topo::NodeId> members;
  members.insert(members.end(), by_server[0].begin(), by_server[0].end());
  members.insert(members.end(), by_server[1].begin(), by_server[1].end());
  const coll::GroupId group = scheduler.register_group(members);
  scheduler.start();

  const online::PolicyTable& table = scheduler.online().table(group);
  std::printf("registered group with %zu candidate policies:\n",
              table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    std::printf("  policy %zu: %s (%zu edges)\n", i,
                table.policy(i).name.c_str(), table.policy(i).edges.size());
  }

  // Closed-loop all-reduces of 16 MB.
  std::uint64_t ops = 0;
  std::function<void()> launch = [&] {
    coll::AllReducePlan plan =
        scheduler.all_reduce_plan(group, 16.0 * units::MB);
    engine.all_reduce(std::move(plan), [&](const coll::AllReduceResult&) {
      ++ops;
      if (simulator.now() < 0.6) launch();
    });
  };
  launch();

  // t = 0.2 s: bulk background traffic congests sw0 (traffic host -> w1g0).
  simulator.schedule(0.2, [&] {
    std::printf("\n[t=0.20s] background bulk flow starts through sw0\n");
    auto path = topo::Routes(graph).path(graph.find("traffic"),
                                         graph.find("w1g0"));
    net::TransferOptions opts;
    opts.pipelined = true;
    network.start_transfer(*path, 2.0 * units::GB, std::move(opts));
  });

  // t = 0.4 s: the leader uplink w0g0 -> sw0 degrades to 10%, via the
  // fault injector (with the online scheduler hooked up so cost overrides
  // land immediately instead of at the next controller tick).
  faults::FaultPlan fault_plan;
  if (!cli_opts.faults_path.empty()) {
    fault_plan = faults::load_fault_plan(cli_opts.faults_path);
    std::printf("loaded fault plan %s (%zu events)\n",
                cli_opts.faults_path.c_str(), fault_plan.events.size());
  } else {
    faults::FaultEvent degrade;
    degrade.kind = faults::FaultKind::kLinkDegrade;
    degrade.at = 0.4;
    degrade.target = "w0g0-sw0";
    degrade.magnitude = 0.1;
    fault_plan.events.push_back(degrade);
  }
  faults::FaultInjector::Hooks hooks;
  hooks.switches = &switches;
  hooks.online = &scheduler.online();
  scheduler.online().attach_switches(&switches);
  faults::FaultInjector injector(network, fault_plan, hooks);
  injector.arm();

  // Periodic report of the policy cost table.
  std::function<void()> report = [&] {
    std::printf("[t=%.2fs] ops=%llu | policy costs:", simulator.now(),
                static_cast<unsigned long long>(ops));
    for (std::size_t i = 0; i < table.size(); ++i) {
      std::printf("  %s b=%.3f sel=%llu", table.policy(i).name.c_str(),
                  table.policy(i).cost,
                  static_cast<unsigned long long>(
                      table.policy(i).times_selected));
    }
    std::printf("\n");
    if (simulator.now() < 0.6) simulator.schedule_in(0.05, report);
  };
  simulator.schedule(0.05, report);

  simulator.run_until(0.7);
  std::printf("\ncompleted %llu all-reduce ops in 0.6 s of simulated time "
              "(%llu faults injected, %llu recovered)\n",
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(injector.injected()),
              static_cast<unsigned long long>(injector.recovered()));
  return 0;
}
