// Multi-instance serving simulator: N replicated (prefill, decode)
// ClusterSim instances behind one Router, all driven by the one shared
// sim::Simulator. Instances share the flow network (so cross-instance KV
// and collective traffic genuinely contend on rack uplinks), the obs sink,
// the collective engine, and — through the simulator — the fault injector.
//
// FleetSim owns the dispatch loop: each trace arrival is routed at its
// arrival instant against the fleet's *current* state, then submitted to
// the chosen instance. The fleet is elastic — instances can be deployed
// mid-run (FleetController scale-up) and drained/released; FleetSim tracks
// each instance's deploy/release lifetime so reports can integrate
// GPU-hours, the autoscaling bench's cost metric. Reports aggregate the
// per-instance distributions (pooled percentiles, fleet goodput) next to
// each instance's own numbers.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "serving/cluster_sim.hpp"
#include "serving/router.hpp"

namespace hero::serve {

/// Deploy/release window of one instance (simulated seconds).
struct InstanceLifetime {
  Time deployed = 0.0;
  Time released = -1.0;  ///< -1 = still live when the run ended
  std::size_t gpus = 0;
};

struct FleetReport {
  ServingReport aggregate;  ///< pooled over all instances
  std::vector<ServingReport> per_instance;
  std::vector<std::uint64_t> dispatched;  ///< router decisions per instance
  /// max/mean - 1 over per-instance dispatch counts (0 = perfectly even).
  double dispatch_imbalance = 0.0;
  /// Integral of (live GPUs) dt over the run, in GPU-hours — what an
  /// elastic fleet saves by releasing drained replicas' GPUs.
  double gpu_hours = 0.0;
  std::vector<InstanceLifetime> lifetimes;
  /// Every retired request fleet-wide, sorted by (arrival, id) — windowed
  /// latency analysis (flash-crowd recovery) reads these.
  std::vector<RetiredSample> samples;
  /// Controller activity (all zero when autoscaling is off); filled in by
  /// the caller that owns the FleetController.
  AutoscaleStats autoscale;
  /// Prefix/KV tier totals (all zero when the tier is disabled).
  PrefixStats prefix;                  ///< summed over instances
  std::uint64_t prefix_streams = 0;    ///< cross-instance block streams
  Bytes prefix_stream_bytes = 0.0;     ///< bytes those streams moved
  /// Collective-engine counters over the run. The engine is shared by
  /// every instance, so only the fleet can attribute them.
  std::uint64_t collectives = 0;
  std::uint64_t ina_fallbacks = 0;
  /// Cross-check against the attached EventTracer: when a tracer is
  /// attached, `collectives`/`ina_fallbacks` (counted by the engine) must
  /// equal the number of collective spans / fallback instants the tracer
  /// recorded during this run.
  bool trace_checked = false;      ///< a tracer was attached to the run
  bool trace_consistent = true;    ///< engine counters == tracer totals
  std::uint64_t trace_collectives = 0;
  std::uint64_t trace_ina_fallbacks = 0;
};

class FleetSim {
 public:
  /// All instances share `scheduler` (per-instance group tables) and derive
  /// their ServingOptions from `base_serving` (per-instance seeds are
  /// decorrelated internally) — the per-instance options duplication the
  /// FleetConfig consolidation deleted.
  FleetSim(net::FlowNetwork& network, coll::CollectiveEngine& engine,
           coll::CommScheduler& scheduler, FleetConfig config,
           ServingOptions base_serving);

  FleetSim(const FleetSim&) = delete;
  FleetSim& operator=(const FleetSim&) = delete;

  /// Bracket every instance deployment: `before(id)` runs just ahead of the
  /// ClusterSim construction (heroserve scopes hero-scheduler group names
  /// per instance there), `after(id)` once the instance is registered.
  /// Applies to mid-run scale-ups too.
  void set_deploy_hooks(std::function<void(std::size_t)> before,
                        std::function<void(std::size_t)> after);

  /// Deploy one planned instance and add it to the dispatch set. Callable
  /// mid-run: the instance joins at the current simulated time and its
  /// lifetime starts there.
  ClusterSim& add_instance(planner::PlanResult plan);

  /// Release a drained instance: the one call that takes `id` out of the
  /// fleet. Requires that the router already drains it and that no prefix
  /// stream touches it. Retires its prefix cache (so no later dispatch
  /// streams from it) and closes its lifetime for the GPU-hours integral.
  /// The FleetController calls this once the instance's last in-flight
  /// request retired, before planner::release_plan hands the GPUs back.
  void mark_released(std::size_t id);

  /// Route + serve the whole trace on the shared simulator.
  [[nodiscard]] FleetReport run(const wl::Trace& trace);

  [[nodiscard]] Router& router() { return router_; }
  [[nodiscard]] const FleetConfig& config() const {
    return router_.config();
  }
  [[nodiscard]] net::FlowNetwork& network() { return *network_; }
  [[nodiscard]] std::size_t instance_count() const {
    return instances_.size();
  }
  [[nodiscard]] ClusterSim& instance(std::size_t id) {
    return *instances_.at(id);
  }
  [[nodiscard]] const std::vector<InstanceLifetime>& lifetimes() const {
    return lifetimes_;
  }

  // --- prefix/KV tier ---------------------------------------------------
  [[nodiscard]] bool prefix_tier_enabled() const {
    return base_serving_.prefix_block_tokens > 0;
  }
  /// In-flight cross-instance prefix streams touching `id` (as source or
  /// destination). A draining instance must not be released while > 0.
  [[nodiscard]] std::size_t stream_busy(std::size_t id) const {
    return stream_busy_.at(id);
  }
  /// Route one request against the fleet's live state and execute the
  /// decision (direct submit, or prefix stream then submit). run() calls
  /// this per arrival; exposed so tests can drive single dispatches.
  void dispatch(const wl::Request& request);

 private:
  net::FlowNetwork* network_;
  coll::CollectiveEngine* engine_;
  coll::CommScheduler* scheduler_;
  ServingOptions base_serving_;
  Router router_;
  std::vector<std::unique_ptr<ClusterSim>> instances_;
  std::vector<InstanceLifetime> lifetimes_;
  FleetKvGauge kv_gauge_;  ///< the fleet's serve.kv_utilization
  std::function<void(std::size_t)> deploy_before_;
  std::function<void(std::size_t)> deploy_after_;
  bool running_ = false;

  // Prefix/KV tier state (inert when the tier is disabled).
  std::vector<std::size_t> stream_busy_;
  std::uint64_t streams_total_ = 0;
  Bytes stream_bytes_total_ = 0.0;

  // Arrival chain of the run in progress (see run()).
  const wl::Trace* trace_ = nullptr;
  std::vector<std::uint32_t> arrival_order_;  ///< trace indices, dispatch order
  std::uint64_t first_arrival_key_ = 0;       ///< calendar key of trace[0]
  sim::EventId arrival_event_ = sim::kInvalidEvent;

  [[nodiscard]] std::size_t total_retired() const;
  /// Put arrival_order_[k] on the calendar under its reserved key.
  void schedule_arrival(std::size_t k);
  /// Chain arrival k + 1, then dispatch arrival k.
  void on_arrival(std::size_t k);
  /// Execute a kStream decision: pin at the source, move the blocks as
  /// pipelined fabric flows, adopt at the destination, then submit.
  void start_prefix_stream(const RouteDecision& decision,
                           const wl::Request& request);
};

}  // namespace hero::serve
