// Arrival-driven fleet autoscaler (ROADMAP item 1; Taming-the-Chaos /
// HexGen-2 style coordinated scaling for disaggregated serving).
//
// The controller runs on a simulator timer inside a FleetSim run. Each
// tick it:
//   1. observes the fleet arrival rate from the router's dispatch counter
//      (requests dispatched this tick / tick period) and EWMA-smooths it;
//   2. reaps drained replicas whose last in-flight request retired —
//      releasing them from the fleet (FleetSim::mark_released) and their
//      GPUs back to the spare pool (planner::release_plan against a
//      pristine copy of the topology);
//   3. compares smoothed demand against the live fleet's aggregate
//      service rate: above the scale-up threshold it plans ONE new replica
//      from the spare pool (planner::plan_replica — heterogeneous pools
//      give the replica the stage shape its silicon supports), claims the
//      GPUs immediately, and deploys after a configurable warm-up delay;
//      below the scale-down threshold (hysteresis band) it drains the
//      active replica with the fewest in-flight requests (ties: highest
//      id, so the newest replica goes first);
//   4. records a "fleet.live_instances" gauge point and scale_up / drain /
//      release trace instants.
//
// Everything is driven by simulator time and router counters — no wall
// clock, no ambient randomness — so autoscaled runs are byte-identical
// across reruns (a CI gate).
#pragma once

#include <vector>

#include "planner/fleet.hpp"
#include "serving/fleet_sim.hpp"

namespace hero::serve {

class FleetController {
 public:
  /// `replica_inputs` is the planning template for scale-up replicas; its
  /// graph/arrival_rate/seed are overwritten per replan, and its latency
  /// model must outlive the controller. The FleetSim must already hold the
  /// statically deployed starting instances — the controller claims their
  /// GPUs out of its spare pool at construction. Reads every knob from
  /// fleet.config().autoscale.
  FleetController(FleetSim& fleet, planner::PlannerInputs replica_inputs);

  FleetController(const FleetController&) = delete;
  FleetController& operator=(const FleetController&) = delete;

  /// Schedule the first tick (config.autoscale.tick_period from now).
  /// Ticks reschedule themselves; FleetSim::run's count-driven exit
  /// condition ends the run with the next tick still pending.
  void start();

  [[nodiscard]] const AutoscaleStats& stats() const { return stats_; }
  /// GPUs currently in the spare pool (unclaimed by any live replica or
  /// pending warm-up); exposed for the drain-accounting tests.
  [[nodiscard]] std::size_t spare_gpu_count() const;
  /// Instances draining right now (removed from dispatch, not yet reaped).
  [[nodiscard]] std::size_t draining_count() const {
    return draining_.size();
  }

 private:
  FleetSim* fleet_;
  planner::PlannerInputs base_inputs_;
  /// The topology exactly as handed over — release restores from here.
  topo::Graph pristine_;
  /// Free pool: live/warming replicas' GPUs have memory_free == 0.
  topo::Graph spare_;
  AutoscaleStats stats_;
  double rate_ewma_ = 0.0;
  bool ewma_primed_ = false;
  std::uint64_t last_dispatched_ = 0;
  /// Time of the last scaling decision (hysteresis cooldown anchor);
  /// negative infinity substitute so the first tick may act.
  Time last_action_ = -1.0e18 * units::sec;
  std::vector<std::size_t> draining_;
  /// Service capacity already bought but still warming up; counted toward
  /// fleet capacity so one burst doesn't trigger a scale-up every tick of
  /// the warm-up window.
  Rate pending_capacity_ = 0.0;
  std::size_t pending_deploys_ = 0;

  void tick();
  void reap_drained();
  /// Aggregate service rate of dispatchable replicas (active, not
  /// draining) plus warming-up capacity.
  [[nodiscard]] Rate live_capacity() const;
  [[nodiscard]] std::size_t live_count() const;
  void scale_up(Time now);
  void scale_down(Time now);
  void observe_gauge(Time now);
};

}  // namespace hero::serve
