// Declarative fault plans for chaos experiments.
//
// A FaultPlan is a deterministic schedule of infrastructure faults — link
// degradation/flapping, switch slot-pool exhaustion and restarts, GPU
// stragglers, controller sync-channel loss — that the FaultInjector replays
// against a running simulation. Plans are plain data: build them in code
// (benchmarks, tests) or load them from a small JSON file (`--faults
// plan.json` on every example/bench binary). The same plan + the same seed
// reproduces the same run byte-for-byte.
//
// Every event must satisfy the ranges documented on FaultKind below, with
// `at` and `duration` finite and >= 0. validate() checks them and throws,
// in every build; parse_fault_plan() and FaultInjector::arm() both call
// it. check_targets() resolves each target against a topology.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "topology/graph.hpp"

namespace hero::faults {

/// Most flap cycles one event may ask for (each cycle is two simulator
/// events, all scheduled when the plan is armed).
inline constexpr std::uint32_t kMaxFlapCount = 1'000'000;

enum class FaultKind : std::uint8_t {
  /// Scale edge `target` ("nodeA-nodeB") capacity by `magnitude` (factor in
  /// (0,1]) at `at`, restore to 1.0 after `duration`.
  kLinkDegrade,
  /// `count` (whole, in [1, kMaxFlapCount]) degrade/restore cycles of edge
  /// `target` starting at `at`, one cycle every `period` (> 0); each cycle
  /// degrades to `magnitude` (in (0,1]) for `duration` (default period/2,
  /// at most `period`).
  kLinkFlap,
  /// Seize `magnitude` (a whole slot count >= 1) aggregator slots on
  /// switch `target` (capped at the free pool) for `duration` — models
  /// tenant jobs hogging the pool.
  kSlotExhaust,
  /// Control-plane restart of switch `target`: queue a whole-pool
  /// reservation so the pool drains, then hold every slot for `duration`.
  kSwitchRestart,
  /// Multiply compute time of GPU `target` by `magnitude` (finite, >= 1)
  /// for `duration` — thermal throttling / noisy neighbour.
  kGpuSlow,
  /// Delay each controller sync's table recalibration by `magnitude`
  /// (finite, >= 0) seconds for `duration`.
  kSyncDelay,
  /// Sever the controller sync channel for `duration`; the scheduler
  /// retries with exponential backoff and serves from stale costs.
  kSyncDrop,
};

[[nodiscard]] const char* to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kLinkDegrade;
  Time at = 0.0;        ///< injection time (simulated seconds)
  Time duration = 0.0;  ///< time until recovery (0 = permanent)
  /// Edge "nodeA-nodeB" (link faults) or node name (switch/GPU faults);
  /// unused for sync faults.
  std::string target;
  /// Kind-dependent: capacity factor (link), slot count (slot exhaust),
  /// compute multiplier (GPU), extra delay seconds (sync delay).
  double magnitude = 1.0;
  std::uint32_t count = 1;  ///< flap cycles (kLinkFlap only)
  Time period = 0.0;        ///< flap cycle length (kLinkFlap only)
};

struct FaultPlan {
  std::vector<FaultEvent> events;
  [[nodiscard]] bool empty() const { return events.empty(); }
};

/// Throw std::invalid_argument, naming the event, when it breaks a range
/// documented on FaultKind or lacks a target its kind needs.
void validate(const FaultEvent& ev);

/// The node a switch or GPU fault names, or the edge a link fault names.
/// Throw std::invalid_argument when `topology` has no such node or edge,
/// or the node is of the wrong kind (a switch for slot_exhaust and
/// switch_restart, a GPU for gpu_slow).
[[nodiscard]] topo::NodeId target_node(const topo::Graph& topology,
                                       const FaultEvent& ev);
[[nodiscard]] topo::EdgeId target_edge(const topo::Graph& topology,
                                       const FaultEvent& ev);

/// Resolve every event's target against `topology` (the topology the run
/// serves on); throws like target_node/target_edge.
void check_targets(const FaultPlan& plan, const topo::Graph& topology);

/// Parse a plan from JSON text. Schema:
///   {"events": [{"kind": "link_flap", "at": 0.2, "duration": 0.025,
///                "period": 0.05, "count": 6, "target": "w0g1-sw1",
///                "magnitude": 0.05}, ...]}
/// Unknown keys are rejected; kinds are the snake_case enum names. Throws
/// std::runtime_error with a position on malformed input, and
/// std::invalid_argument from validate() on an out-of-range event.
[[nodiscard]] FaultPlan parse_fault_plan(std::string_view json);

/// Read + parse a JSON plan file and check its targets against
/// `topology` (throws on I/O, parse, range or target error).
[[nodiscard]] FaultPlan load_fault_plan(const std::string& path,
                                        const topo::Graph& topology);

}  // namespace hero::faults
