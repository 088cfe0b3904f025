// HeroServe public facade.
//
// One-call experiment driver used by the examples and every benchmark
// harness: configure a topology + model + workload, pick a system
// (HeroServe or one of the paper's baselines), and run
//     plan (fleet planner) -> deploy -> serve trace -> report.
// A single instance is a fleet of one: the same pipeline serves it.
// Also provides the max-rate search that implements the paper's
// scalability metric ("the maximum per-GPU rate that the system can handle
// while satisfying the latency requirements for over 90% of requests").
#pragma once

#include <array>
#include <utility>
#include <vector>

#include "baselines/static_scheduler.hpp"
#include "faults/fault_plan.hpp"
#include "obs/sink.hpp"
#include "online/scheduler.hpp"
#include "planner/fleet.hpp"
#include "planner/planner.hpp"
#include "serving/cluster_sim.hpp"
#include "serving/fleet_sim.hpp"
#include "topology/builders.hpp"
#include "workload/trace.hpp"

namespace hero {

enum class SystemKind : std::uint8_t {
  kHeroServe,
  kDistServe,
  kDsAtp,
  kDsSwitchMl,
};

[[nodiscard]] const char* to_string(SystemKind kind);

inline constexpr std::array<SystemKind, 4> kAllSystems{
    SystemKind::kHeroServe, SystemKind::kDistServe, SystemKind::kDsAtp,
    SystemKind::kDsSwitchMl};

struct ExperimentConfig {
  topo::Graph topology;
  wl::TraceOptions workload;

  /// Everything the serving simulator consumes — model, SLAs, batching
  /// limits, KV memory fraction, kernel noise, seed — lives here exactly
  /// once; the planner derives its inputs from the same fields. One twist:
  /// `serving.max_sim_time` is a *drain budget* counted from the last
  /// arrival (run_fleet_experiment adds the arrival horizon before
  /// serving), so low-rate long traces are not cut off by a fixed wall.
  serve::ServingOptions serving = [] {
    serve::ServingOptions s;
    s.seed = 7;  // experiment-level default, distinct from ClusterSim's 1
    return s;
  }();

  /// Minimum tensor-parallel width (planner::PlannerInputs::min_p_tens).
  std::size_t min_p_tens = 1;
  std::size_t max_candi = 20;
  std::size_t batch_q = 8;  ///< planner's assumed batch size Q

  online::OnlineConfig online;  ///< HeroServe's scheduler knobs
  coll::EngineConfig engine;    ///< T_agg, fallback host bandwidth

  /// Observability sink, attached to the run's simulator for the whole
  /// plan->deploy->serve pipeline. Default-constructed = tracing off (zero
  /// cost).
  obs::Sink sink;

  /// Chaos schedule replayed against the run (empty = no fault injection,
  /// byte-identical to a plain run). HeroServe additionally gets switch
  /// slot-health feedback and immediate cost overrides wired into its
  /// online scheduler; baselines only feel the raw faults.
  faults::FaultPlan fault_plan;

  /// Fleet shape (run_fleet_experiment): the consolidated
  /// serve::FleetConfig — instance count, router policy + cost weights, and
  /// the elastic-autoscaling knobs — lives here exactly once. The default
  /// instances == 1 serves the paper's single instance as a fleet of one.
  serve::FleetConfig fleet;

  /// Flow-network engine knobs (equivalence gates).
  struct NetsimOptions {
    /// Whole-fabric max-min solve every round instead of the incremental
    /// dirty-set solve. Output is byte-identical; only speed differs.
    bool full_solve = false;
  };
  NetsimOptions netsim;
};

/// Engine-side totals of one run: how much simulated time one wall-second
/// buys is bench_simspeed's headline, and the flownet counters show how much
/// max-min work the incremental engine avoided. Deterministic for a given
/// config (wall-clock time is deliberately *not* in here).
struct SimStats {
  Time sim_seconds = 0.0;
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  net::FlowNetStats flownet;
};

/// Fitted Eq. 12-13 latency model for `model` on the reference A100
/// (process-lifetime cache; profiling runs once per model).
[[nodiscard]] const gpu::LatencyModel& fitted_model(
    const llm::ModelConfig& model);

struct FleetExperimentResult {
  planner::FleetPlan plan;
  serve::FleetReport report;
  SimStats sim_stats;
  [[nodiscard]] bool ok() const { return plan.feasible; }
};

/// The serving pipeline: FleetPlanner packs cfg.fleet.instances replicas
/// onto cfg.topology, then FleetSim serves a wl::generate_trace(cfg.workload)
/// trace behind the configured router — one shared
/// simulator/flownet/engine/scheduler (per-instance policy-table prefixes on
/// HeroServe) with the fault plan armed against it. With
/// cfg.fleet.autoscale.enabled a FleetController ticks alongside the run,
/// scaling the instance count against the observed arrival rate
/// (report.autoscale carries its stats). ok() is false when not every
/// starting instance fits; the report is then empty.
[[nodiscard]] FleetExperimentResult run_fleet_experiment(
    SystemKind kind, const ExperimentConfig& cfg);

/// Same pipeline over a caller-supplied trace (diurnal / flash-crowd
/// generators) instead of wl::generate_trace(cfg.workload). The planner is
/// still sized from cfg.workload.rate — the *expected* fleet rate — while
/// the trace drives what actually arrives.
[[nodiscard]] FleetExperimentResult run_fleet_experiment(
    SystemKind kind, const ExperimentConfig& cfg, const wl::Trace& trace);

struct RateSearchResult {
  double max_rate = 0.0;  ///< highest rate meeting the attainment target
  std::vector<std::pair<double, double>> samples;  ///< (rate, attainment)
  FleetExperimentResult at_max;  ///< full result at max_rate
};

/// Binary-search the Poisson arrival rate for the highest load at which SLA
/// attainment stays >= `target` (paper: 90%). `lo`..`hi` bound the search.
[[nodiscard]] RateSearchResult find_max_rate(SystemKind kind,
                                             ExperimentConfig cfg,
                                             double lo, double hi,
                                             double target = 0.9,
                                             int iterations = 6);

}  // namespace hero
