// Consolidated fleet configuration: one struct describes the whole
// multi-instance serving deployment — fleet shape, dispatch policy, router
// cost weights, and the elastic-autoscaling controller knobs.
//
// This is the single user-facing fleet API (ExperimentConfig::fleet): it
// subsumes what used to be spread over planner::FleetPlannerInputs
// (instances, balance_stage_rates), serve::RouterConfig (policy, seed, cost
// weights) and the per-instance ServingOptions copies the fleet pipeline
// hand-rolled. The planner-facing FleetPlannerInputs still exists — the
// planner layer cannot depend on serving — but the core pipeline derives it
// from this struct, so every knob lives exactly once.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/units.hpp"

namespace hero::serve {

enum class RouterPolicy : std::uint8_t {
  kRoundRobin,
  kRandom,
  kShortestQueue,
  kHeroServe,
};

[[nodiscard]] const char* to_string(RouterPolicy policy);
/// Parse "rr" / "random" / "jsq" / "hero" (long names accepted too).
[[nodiscard]] std::optional<RouterPolicy> parse_router_policy(
    std::string_view name);

/// Knobs of the arrival-driven autoscaler (serve::FleetController). The
/// controller runs on a simulator timer: it EWMA-smooths the fleet arrival
/// rate observed at the router, compares demand against the live fleet's
/// aggregate service rate, and scales the instance count up (plan a replica
/// from the spare GPU pool, deploy after a warm-up delay) or down (drain a
/// victim, release its GPUs once the last in-flight request retires).
struct AutoscaleConfig {
  bool enabled = false;
  /// Controller tick period (simulated seconds).
  Time tick_period = 5.0;
  /// EWMA smoothing of the per-tick arrival-rate observation in (0, 1];
  /// 1 = trust the newest tick only.
  double ewma_alpha = 0.35;
  /// Plan so demand stays at this fraction of fleet service capacity —
  /// the SLA headroom a replica keeps for bursts within one tick.
  double target_utilization = 0.65;
  /// Hysteresis band: scale up when demand exceeds
  /// `target_utilization * capacity`; scale down only when the
  /// post-removal fleet would still sit below
  /// `scale_down_threshold * target_utilization * (capacity - victim)`.
  /// The gap between the two is what keeps a flat trace action-free.
  double scale_down_threshold = 0.7;
  /// Replica spin-up delay between planning a scale-up and the instance
  /// accepting traffic (model load + KV-cache allocation, simulated).
  Time warmup_delay = 15.0;
  /// Minimum simulated time between scaling decisions (either direction).
  Time cooldown = 10.0;
  std::size_t min_instances = 1;
};

/// Controller activity totals, reported in FleetReport::autoscale (all
/// zero when autoscaling is off). Deterministic for a given seed.
struct AutoscaleStats {
  std::uint64_t ticks = 0;
  std::uint64_t scale_ups = 0;      ///< replicas deployed after warm-up
  std::uint64_t drains = 0;         ///< victims taken out of dispatch
  std::uint64_t releases = 0;       ///< drained replicas' GPU pools returned
  std::uint64_t plan_failures = 0;  ///< spare pool could not fit a replica
  double rate_estimate = 0.0;       ///< final EWMA fleet arrival rate (req/s)
  std::size_t peak_instances = 0;   ///< max simultaneously live instances
};

struct FleetConfig {
  // --- fleet shape ------------------------------------------------------
  /// Replicas packed before serving starts (the static fleet size, and the
  /// elastic fleet's starting point).
  std::size_t instances = 1;
  /// Cap the overprovisioned stage of later replicas so spare GPUs flow to
  /// the lagging stage (planner::FleetPlannerInputs::balance_stage_rates).
  bool balance_stage_rates = true;
  /// Prefer packing each replica onto a single GPU hardware class (mixed
  /// A100/V100/L40 pools), so every replica gets the stage shape its
  /// silicon supports instead of cloning one plan
  /// (planner::FleetPlannerInputs::uniform_hardware_pools).
  bool uniform_hardware_pools = true;

  // --- router (formerly serve::RouterConfig) ----------------------------
  RouterPolicy policy = RouterPolicy::kRoundRobin;
  /// Seed of the router's own RNG (the `random` policy's only state).
  std::uint64_t router_seed = 1;
  /// Fraction of the request's predicted decode residence (output tokens x
  /// the instance's planned TPOT) charged to the cost. Tilts long-output
  /// requests toward fast-decode plans when queue signals are flat — the
  /// drain-tail regime — without overriding backlog under load.
  double completion_weight = 0.01;
  /// Fold the prefix/KV tier into hero dispatch: probe the per-instance
  /// caches for the best holder, discount holders' cost by the reused
  /// work, and stream blocks across the fabric when that beats
  /// recomputing them. Off = prefix-blind dispatch (instances still reuse
  /// whatever happens to be cached locally). Irrelevant when the tier
  /// itself is disabled (ServingOptions::prefix_block_tokens == 0).
  bool prefix_affinity = true;

  // --- elastic autoscaling ----------------------------------------------
  AutoscaleConfig autoscale;
};

}  // namespace hero::serve
