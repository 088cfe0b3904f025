// Disaggregated LLM serving cluster simulator (the role APEX plays in the
// paper's evaluation).
//
// Executes a request trace against a planner-produced deployment:
//   * iteration-level continuous batching (Orca-style) in both clusters;
//   * the prefill pipeline runs a batch through its stages sequentially;
//     each stage is KernelModel compute followed by one aggregated
//     tensor-parallel all-reduce whose scheme/paths come from the
//     CommScheduler (HeroServe online policy or a static baseline);
//   * KV caches stream to the paired decode GPUs concurrently with prefill
//     compute (layer-wise streaming, as disaggregated serving systems do);
//     a request enters decode when both prefill and its KV transfer finish;
//   * decode admission is gated by KV-cache memory (full-sequence
//     reservation); when memory is exhausted requests queue — the paper's
//     "insufficient memory => additional queuing delay";
//   * decode iterations run all pipeline stages concurrently (steady-state
//     pipelining); each iteration appends one token to every running
//     request.
//
// Metrics: per-request TTFT and TPOT, joint SLA attainment, KV-cache
// utilization over time (Fig. 10), aggregate goodput.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "collectives/comm_scheduler.hpp"
#include "collectives/engine.hpp"
#include "common/stats.hpp"
#include "gpusim/kernel_model.hpp"
#include "kvtier/prefix_cache.hpp"
#include "obs/metrics.hpp"
#include "planner/planner.hpp"
#include "serving/kv_move.hpp"
#include "workload/trace.hpp"

namespace hero::serve {

struct ServingOptions {
  llm::ModelConfig model;
  Time sla_ttft = 2.5;
  Time sla_tpot = 0.15;
  /// Token budget of one prefill iteration (continuous-batching chunk).
  std::size_t prefill_token_budget = 16384;
  /// Maximum requests decoded per iteration.
  std::size_t decode_batch_limit = 128;
  /// Fraction of GPU memory reserved for weights (rest hosts KV cache);
  /// must match the planner's r_frac.
  double r_frac = 0.8;
  gpu::KernelModelOptions kernel;
  /// Token-block size of the prefix/KV cache tier. 0 disables the tier
  /// entirely: no cache is built, no prefix instants/metrics are emitted,
  /// and the simulation is byte-identical to a build without the tier.
  std::size_t prefix_block_tokens = 0;
  std::uint64_t seed = 1;
  /// Abort the run if simulated time exceeds this (hung/overloaded system).
  Time max_sim_time = 3600.0 * units::sec;
  /// Per-GPU compute slowdown hook (fault injection): returns the current
  /// multiplier (>= 1) applied to kernel times of stages containing the
  /// GPU; a stage runs at the pace of its slowest member. Null = 1.0
  /// everywhere, with zero per-iteration cost.
  std::function<double(topo::NodeId)> compute_scale;
};

/// Point-in-time load of one serving instance — everything a router policy
/// or fleet aggregator reads, sampled in a single call (ClusterSim::load()).
struct LoadSnapshot {
  /// Requests waiting for or inside the prefill pipeline.
  std::size_t prefill_requests = 0;
  /// Input tokens queued ahead of a new arrival (incl. the running batch).
  std::size_t prefill_backlog_tokens = 0;
  /// Requests waiting for or holding decode slots.
  std::size_t decode_requests = 0;
  /// Submitted but not yet retired (the JSQ signal).
  std::size_t in_flight = 0;
};

/// Point-in-time KV-memory state of one instance, from ClusterSim::kv() —
/// the one place the budget, the decode reservations, and the prefix-cache
/// occupancy meet (replaces the old kv_used()/kv_budget()/
/// kv_bytes_per_request() accessor trio).
struct KvSnapshot {
  /// Reserved by running/admitted decode requests.
  Bytes used = 0;
  /// Held by the prefix cache (reclaimable except for pinned blocks).
  Bytes cached = 0;
  /// Decode-cluster KV budget (GPU memory minus weight shards).
  Bytes budget = 0;
  /// KV bytes of one token across all layers.
  Bytes bytes_per_token = 0;

  [[nodiscard]] Bytes free() const { return budget - used - cached; }
  [[nodiscard]] Bytes bytes_for_tokens(std::size_t tokens) const {
    return bytes_per_token * static_cast<double>(tokens);
  }
  [[nodiscard]] double utilization() const {
    return budget > 0 ? (used + cached) / budget : 0.0;
  }
};

/// Counters of the per-instance prefix tier (zero when disabled).
struct PrefixStats {
  std::size_t lookups = 0;     ///< session-carrying submissions
  std::size_t hits = 0;        ///< submissions that reused cached blocks
  std::size_t recomputes = 0;  ///< had a prefix, found nothing local
  std::size_t reused_tokens = 0;  ///< prefill tokens skipped via reuse
  std::size_t published_tokens = 0;  ///< coverage published at retirements
};

/// Per-request outcome of one retired (fully served) request, exported for
/// fleet-level windowed analysis — e.g. p99 TTFT inside a flash-crowd
/// burst, which aggregate percentiles over the whole run would wash out.
struct RetiredSample {
  std::uint64_t id = 0;
  Time arrival = 0.0;
  Time ttft = 0.0;
  Time finish = 0.0;
};

struct ServingReport {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  Percentiles ttft;
  Percentiles tpot;
  std::size_t within_sla = 0;   ///< requests meeting both TTFT and TPOT SLAs
  double sla_attainment = 0.0;  ///< within_sla / submitted
  Time makespan = 0.0;
  Rate requests_per_second = 0.0;
  Rate per_gpu_goodput = 0.0;  ///< the paper's scalability metric basis
  double kv_utilization_avg = 0.0;  ///< Fig. 10 metric
  double kv_utilization_peak = 0.0;
  std::vector<obs::GaugePoint> kv_timeline;  ///< occupancy at every change
  std::size_t gpus_used = 0;
};

/// A fleet's `serve.kv_utilization` gauge: the budget-weighted mean of its
/// instances' KV utilization, sum_i u_i * (b_i / sum_j b_j) in instance
/// order, so a fleet of one reports its instance's value bit for bit. Each
/// instance reports whenever its own utilization changes.
class FleetKvGauge {
 public:
  void report(std::size_t instance, Bytes budget, double util, Time now,
              obs::MetricsRegistry& metrics);

 private:
  std::vector<Bytes> budget_;  ///< per instance (0 until it first reports)
  std::vector<double> util_;
};

class ClusterSim {
 public:
  /// `instance_id` prefixes the instance's own gauges ("i2.serve.*"); a
  /// non-null `fleet_kv` also receives every KV-utilization change.
  ClusterSim(net::FlowNetwork& network, coll::CollectiveEngine& engine,
             coll::CommScheduler& scheduler, planner::PlanResult plan,
             ServingOptions options, std::size_t instance_id = 0,
             FleetKvGauge* fleet_kv = nullptr);

  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;
  ~ClusterSim();

  // --- fleet-facing API ------------------------------------------------
  // FleetSim drives one or many ClusterSims on one shared simulator: it
  // submits routed requests itself and assembles per-instance reports at
  // the end. A single instance is served as a fleet of one.

  /// Record the initial KV-occupancy sample. Call once before submitting.
  void begin();
  /// Hand one request to this instance at the current simulated time.
  void submit(const wl::Request& request);
  [[nodiscard]] std::size_t retired_count() const { return retired_.size(); }

  /// Metrics-only report over everything retired so far; SLA attainment is
  /// normalized by the requests submitted here.
  [[nodiscard]] ServingReport report() const;

  /// Per-request (arrival, TTFT, finish) of every retired request, in
  /// retirement order. FleetSim pools and sorts these fleet-wide.
  [[nodiscard]] std::vector<RetiredSample> retired_samples() const;

  // --- load snapshot (router inputs) -----------------------------------
  /// One-call snapshot of this instance's live load. Router policies and
  /// FleetSim read the whole struct instead of a sprawl of accessors, so a
  /// policy can't mix signals sampled at different instants and a new
  /// signal is one field, not another method on every instance type.
  [[nodiscard]] LoadSnapshot load() const;
  /// One-call KV-memory snapshot (same point-query style as load()).
  [[nodiscard]] KvSnapshot kv() const;
  [[nodiscard]] const planner::PlanResult& plan() const { return plan_; }
  [[nodiscard]] const ServingOptions& options() const { return opts_; }
  [[nodiscard]] const std::vector<topo::NodeId>& prefill_gpu_ids() const {
    return prefill_gpus_;
  }
  [[nodiscard]] const std::vector<topo::NodeId>& decode_gpu_ids() const {
    return decode_gpus_;
  }

  // --- prefix/KV tier (enabled by options.prefix_block_tokens > 0) ------
  // The fleet layer reads each instance's cached coverage at dispatch to
  // pick the prefix holder, pins blocks while a cross-instance stream
  // reads them, and adopts streamed-in coverage at the destination before
  // submitting the request.

  [[nodiscard]] bool prefix_enabled() const {
    return prefix_cache_ != nullptr;
  }
  [[nodiscard]] const PrefixStats& prefix_stats() const {
    return prefix_stats_;
  }
  /// Block-aligned cached coverage of a session (0 when tier disabled).
  [[nodiscard]] std::size_t cached_prefix_tokens(std::uint64_t session) const;
  /// Pin/unpin a session's first `tokens` against eviction while a
  /// cross-instance stream reads them (balanced pairs; whole blocks).
  void pin_prefix(std::uint64_t session, std::size_t tokens);
  void unpin_prefix(std::uint64_t session, std::size_t tokens);
  /// Install streamed-in coverage for a session (block-floored, capacity
  /// permitting) as if it had been published locally.
  void adopt_prefix(std::uint64_t session, std::size_t tokens);
  /// Drain teardown: drop unpinned cache contents and refuse future
  /// publications.
  void retire_prefix_cache();

 private:
  struct Stage;
  struct ActiveRequest;
  struct PrefillBatch;

  net::FlowNetwork* network_;
  coll::CollectiveEngine* engine_;
  coll::CommScheduler* scheduler_;
  planner::PlanResult plan_;
  ServingOptions opts_;
  std::size_t instance_id_ = 0;
  FleetKvGauge* fleet_kv_ = nullptr;

  std::vector<Stage> prefill_stages_;
  std::vector<Stage> decode_stages_;
  std::vector<topo::NodeId> prefill_gpus_;
  std::vector<topo::NodeId> decode_gpus_;
  std::vector<KvShard> kv_shards_;  ///< prefill -> decode KV hand-off

  // Request flow.
  std::deque<std::unique_ptr<ActiveRequest>> prefill_queue_;
  std::unique_ptr<PrefillBatch> prefill_running_;
  std::deque<std::unique_ptr<ActiveRequest>> decode_wait_queue_;
  std::vector<std::unique_ptr<ActiveRequest>> decoding_;
  bool decode_busy_ = false;
  /// Stages of the running decode iteration still computing or syncing
  /// (one iteration runs at a time, see decode_busy_).
  std::size_t decode_pending_ = 0;

  // KV memory accounting (whole decode cluster). Invariant:
  // kv_used_ + prefix-cache bytes <= kv_budget_.
  Bytes kv_budget_ = 0;
  Bytes kv_used_ = 0;
  obs::Gauge kv_util_;  ///< occupancy: average, peak and timeline

  // Prefix/KV tier (null when options.prefix_block_tokens == 0).
  std::unique_ptr<kv::PrefixCache> prefix_cache_;
  PrefixStats prefix_stats_;

  // Metrics.
  std::vector<std::unique_ptr<ActiveRequest>> retired_;
  std::size_t submitted_ = 0;

  [[nodiscard]] sim::Simulator& simulator();
  void setup_stages();
  void on_arrival(wl::Request request);
  void try_start_prefill();
  void run_prefill_stage(std::size_t stage_index);
  void on_prefill_piece_done();
  void try_admit_decode();
  void start_decode_iteration();
  void on_decode_iteration_done(std::size_t batch_size);
  void record_kv(Time now);
  /// This instance's own gauge `name` ("i<id>.<name>").
  [[nodiscard]] obs::Gauge& own_gauge(obs::MetricsRegistry& m,
                                      std::string_view name) const;
  void trace_request_end(const ActiveRequest& ar, Time now);
  void retire_request(std::unique_ptr<ActiveRequest> ar, Time now);
  /// Input tokens this request actually prefills (input minus reuse).
  [[nodiscard]] static std::size_t effective_tokens(const ActiveRequest& ar);
  /// Current fault-injection slowdown of a stage: max compute_scale over
  /// its member GPUs (tensor-parallel peers wait for the slowest shard).
  [[nodiscard]] double stage_scale(const Stage& stage) const;
};

}  // namespace hero::serve
