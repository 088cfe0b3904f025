#include "serving/fleet_controller.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hero::serve {
namespace {

/// Upper bound on live instances; a scale-up past it is never planned.
constexpr std::size_t kMaxInstances = 64;

}  // namespace

FleetController::FleetController(FleetSim& fleet,
                                 planner::PlannerInputs replica_inputs)
    : fleet_(&fleet), base_inputs_(std::move(replica_inputs)),
      pristine_(fleet.network().graph()), spare_(fleet.network().graph()) {
  HERO_REQUIRE(base_inputs_.latency != nullptr,
               "FleetController: replica_inputs.latency required");
  const AutoscaleConfig& cfg = fleet_->config().autoscale;
  HERO_REQUIRE(cfg.tick_period > 0.0, "autoscale tick_period must be > 0");
  HERO_REQUIRE(cfg.ewma_alpha > 0.0 && cfg.ewma_alpha <= 1.0,
               "autoscale ewma_alpha must be in (0, 1]");
  HERO_REQUIRE(cfg.min_instances >= 1, "autoscale min_instances must be >= 1");
  // The starting fleet owns its GPUs: take them out of the spare pool so a
  // scale-up replica can only claim genuinely free hardware.
  for (std::size_t i = 0; i < fleet_->instance_count(); ++i) {
    planner::claim_plan(spare_, fleet_->instance(i).plan());
  }
  stats_.peak_instances = fleet_->instance_count();
}

void FleetController::start() {
  sim::Simulator& sim = fleet_->network().simulator();
  observe_gauge(sim.now());
  sim.schedule_in(fleet_->config().autoscale.tick_period,
                  [this] { tick(); });
}

std::size_t FleetController::spare_gpu_count() const {
  std::size_t n = 0;
  for (topo::NodeId g : spare_.gpus()) {
    if (spare_.node(g).gpu.memory_free > 0.0) ++n;
  }
  return n;
}

Rate FleetController::live_capacity() const {
  Rate capacity = pending_capacity_;
  const Router& router = fleet_->router();
  for (std::size_t i = 0; i < fleet_->instance_count(); ++i) {
    if (router.is_active(i)) {
      capacity += fleet_->instance(i).plan().service_rate;
    }
  }
  return capacity;
}

std::size_t FleetController::live_count() const {
  return fleet_->router().active_count() + pending_deploys_;
}

void FleetController::observe_gauge(Time now) {
  if (obs::MetricsRegistry* m = fleet_->network().simulator().metrics()) {
    m->gauge("fleet.live_instances")
        .set(now, static_cast<double>(fleet_->router().active_count()));
  }
}

void FleetController::reap_drained() {
  sim::Simulator& sim = fleet_->network().simulator();
  std::vector<std::size_t> still_draining;
  still_draining.reserve(draining_.size());
  for (std::size_t id : draining_) {
    // A victim is reapable only once its last in-flight request retired
    // AND no cross-instance prefix stream still reads from (or writes to)
    // its KV memory.
    if (fleet_->instance(id).load().in_flight > 0 ||
        fleet_->stream_busy(id) > 0) {
      still_draining.push_back(id);
      continue;
    }
    // mark_released retires the replica's prefix cache BEFORE release_plan
    // returns the GPUs to the spare pool (tier drain-consistency ordering).
    fleet_->mark_released(id);
    planner::release_plan(spare_, pristine_, fleet_->instance(id).plan());
    ++stats_.releases;
    if (obs::EventTracer* tr = sim.tracer()) {
      tr->instant(sim.now(), tr->track("fleet"), "fleet", "release",
                  {obs::arg("instance", id)});
    }
    log::debug("t={} autoscale release instance {}", sim.now(), id);
  }
  draining_ = std::move(still_draining);
}

void FleetController::scale_up(Time now) {
  const AutoscaleConfig& cfg = fleet_->config().autoscale;
  sim::Simulator& sim = fleet_->network().simulator();

  // Size the replica for its share of smoothed demand once it has joined.
  planner::PlannerInputs inputs = base_inputs_;
  inputs.graph = &spare_;
  inputs.arrival_rate =
      std::max(rate_ewma_ / static_cast<double>(live_count() + 1), 1e-6);
  inputs.seed = base_inputs_.seed + fleet_->instance_count();
  planner::PlanResult plan = planner::plan_replica(
      inputs, fleet_->config().uniform_hardware_pools);
  if (!plan.feasible) {
    ++stats_.plan_failures;
    log::debug("t={} autoscale plan failure: {}", now,
               plan.infeasible_reason);
    return;
  }

  // Claim immediately — the GPUs are committed the moment the scale-up is
  // decided, and the warm-up window bills to gpu_hours via the deploy time.
  planner::claim_plan(spare_, plan);
  pending_capacity_ += plan.service_rate;
  ++pending_deploys_;
  last_action_ = now;
  sim.schedule_in(cfg.warmup_delay, [this, plan = std::move(plan)] {
    sim::Simulator& s = fleet_->network().simulator();
    pending_capacity_ -= plan.service_rate;
    HERO_INVARIANT(pending_deploys_ > 0, "deploy without pending slot");
    --pending_deploys_;
    fleet_->add_instance(plan);
    ++stats_.scale_ups;
    stats_.peak_instances =
        std::max(stats_.peak_instances, fleet_->router().active_count());
    if (obs::EventTracer* tr = s.tracer()) {
      tr->instant(s.now(), tr->track("fleet"), "fleet", "scale_up",
                  {obs::arg("instance", fleet_->instance_count() - 1),
                   obs::arg("gpus", plan.prefill.all_gpus().size() +
                                        plan.decode.all_gpus().size())});
    }
    observe_gauge(s.now());
    log::debug("t={} autoscale deploy instance {}", s.now(),
               fleet_->instance_count() - 1);
  });
}

void FleetController::scale_down(Time now) {
  const Router& router = fleet_->router();
  // Victim: the active replica with the fewest in-flight requests (least
  // work to drain); ties go to the HIGHEST id so the newest replica
  // retires first and the starting fleet is the last to shrink.
  std::size_t victim = fleet_->instance_count();
  std::size_t best = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < fleet_->instance_count(); ++i) {
    if (!router.is_active(i)) continue;
    const std::size_t in_flight = fleet_->instance(i).load().in_flight;
    if (in_flight <= best) {
      best = in_flight;
      victim = i;
    }
  }
  if (victim == fleet_->instance_count()) return;

  fleet_->router().drain_instance(victim);
  draining_.push_back(victim);
  ++stats_.drains;
  last_action_ = now;
  sim::Simulator& sim = fleet_->network().simulator();
  if (obs::EventTracer* tr = sim.tracer()) {
    tr->instant(now, tr->track("fleet"), "fleet", "drain",
                {obs::arg("instance", victim),
                 obs::arg("in_flight", best)});
  }
  observe_gauge(now);
  log::debug("t={} autoscale drain instance {} (in_flight={})", now, victim,
             best);
}

void FleetController::tick() {
  const AutoscaleConfig& cfg = fleet_->config().autoscale;
  sim::Simulator& sim = fleet_->network().simulator();
  const Time now = sim.now();
  ++stats_.ticks;

  // 1. Arrival-rate observation: dispatches since the previous tick.
  const std::uint64_t dispatched = fleet_->router().dispatched_total();
  const double observed =
      static_cast<double>(dispatched - last_dispatched_) /
      raw(cfg.tick_period);
  last_dispatched_ = dispatched;
  if (!ewma_primed_) {
    rate_ewma_ = observed;
    ewma_primed_ = true;
  } else {
    rate_ewma_ =
        cfg.ewma_alpha * observed + (1.0 - cfg.ewma_alpha) * rate_ewma_;
  }
  stats_.rate_estimate = rate_ewma_;

  // 2. Finish any drains whose last request retired.
  reap_drained();

  // 3. Scaling decision inside the hysteresis band, rate-limited by the
  // cooldown so one burst maps to one action, not one per tick.
  const bool cooled = now - last_action_ >= cfg.cooldown;
  const Rate capacity = live_capacity();
  const std::size_t live = live_count();
  const double target = cfg.target_utilization;
  if (cooled && live < kMaxInstances &&
      rate_ewma_ > target * raw(capacity)) {
    scale_up(now);
  } else if (cooled && live > cfg.min_instances && draining_.empty() &&
             pending_deploys_ == 0) {
    // Only shrink when the post-removal fleet would still run comfortably
    // under target — the gap to the scale-up threshold is the hysteresis
    // band that keeps a flat trace action-free.
    std::size_t cheapest = fleet_->instance_count();
    Rate cheapest_rate = 0.0;
    for (std::size_t i = 0; i < fleet_->instance_count(); ++i) {
      if (!fleet_->router().is_active(i)) continue;
      const Rate r = fleet_->instance(i).plan().service_rate;
      if (cheapest == fleet_->instance_count() || r < cheapest_rate) {
        cheapest = i;
        cheapest_rate = r;
      }
    }
    const Rate after = capacity - cheapest_rate;
    if (cheapest != fleet_->instance_count() && after > 0.0 &&
        rate_ewma_ <
            cfg.scale_down_threshold * target * raw(after)) {
      scale_down(now);
    }
  }

  observe_gauge(now);
  sim.schedule_in(cfg.tick_period, [this] { tick(); });
}

}  // namespace hero::serve
