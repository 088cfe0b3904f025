#include "serving/cluster_sim.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/check.hpp"
#include "common/format.hpp"
#include "common/log.hpp"
#include "gpusim/gpu_spec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hero::serve {

struct ClusterSim::Stage {
  planner::GroupPlan plan;
  coll::GroupId group = 0;
  std::size_t layers = 0;
  std::size_t p_tens = 1;
  std::unique_ptr<gpu::KernelModel> kernel;
};

struct ClusterSim::ActiveRequest {
  wl::Request req;
  Time first_token = -1.0;
  Time finish = -1.0;
  std::size_t generated = 0;  ///< decode tokens produced (excl. first)
  Bytes kv_reserved = 0.0;
  /// Prefix tokens served from the KV cache (pinned arrival->retirement);
  /// they skip prefill compute, the prefill->decode KV transfer, and the
  /// decode-side reservation.
  std::size_t reuse_tokens = 0;
};

struct ClusterSim::PrefillBatch {
  std::vector<std::unique_ptr<ActiveRequest>> requests;
  std::size_t k_in = 0;
  std::size_t k_in2 = 0;
  std::size_t stage = 0;
  /// Outstanding pieces before the batch hands over to decode: the stage
  /// chain and the KV move.
  std::size_t barrier = 0;
};

namespace {

/// Slowest member decides a stage's kernel pace.
gpu::GpuSpec slowest_spec(const topo::Graph& g,
                          const std::vector<topo::NodeId>& gpus) {
  gpu::GpuSpec worst;
  WorkRate worst_flops = std::numeric_limits<WorkRate>::infinity();
  for (topo::NodeId id : gpus) {
    gpu::GpuSpec s = gpu::spec_of(g.node(id).gpu.model);
    if (s.flops() < worst_flops) {
      worst_flops = s.flops();
      worst = s;
    }
  }
  return worst;
}

}  // namespace

ClusterSim::ClusterSim(net::FlowNetwork& network,
                       coll::CollectiveEngine& engine,
                       coll::CommScheduler& scheduler,
                       planner::PlanResult plan, ServingOptions options,
                       std::size_t instance_id, FleetKvGauge* fleet_kv)
    : network_(&network), engine_(&engine), scheduler_(&scheduler),
      plan_(std::move(plan)), opts_(std::move(options)),
      instance_id_(instance_id), fleet_kv_(fleet_kv) {
  if (!plan_.feasible) {
    throw std::invalid_argument("ClusterSim: plan is infeasible");
  }
  setup_stages();
  kv_shards_ = kv_shards(prefill_gpus_, decode_gpus_);

  // KV-cache budget: decode GPU memory minus the weight shards.
  const Bytes weights_per_gpu =
      opts_.model.param_bytes() /
      static_cast<double>(plan_.decode.parallel.gpus());
  for (topo::NodeId g : decode_gpus_) {
    kv_budget_ += std::max(
        Bytes{0.0},
        network_->graph().node(g).gpu.memory_free - weights_per_gpu);
  }

  if (opts_.prefix_block_tokens > 0) {
    kv::PrefixCacheOptions pc;
    pc.block_tokens = opts_.prefix_block_tokens;
    pc.bytes_per_token = opts_.model.kv_bytes_per_token();
    prefix_cache_ = std::make_unique<kv::PrefixCache>(pc);
  }
}

ClusterSim::~ClusterSim() = default;

sim::Simulator& ClusterSim::simulator() { return network_->simulator(); }

void ClusterSim::setup_stages() {
  auto build = [&](const planner::ClusterPlan& cluster,
                   std::vector<Stage>& stages,
                   std::vector<topo::NodeId>& gpus) {
    const std::size_t stage_layers =
        (opts_.model.layers + cluster.parallel.p_pipe - 1) /
        cluster.parallel.p_pipe;
    for (const planner::GroupPlan& gp : cluster.stages) {
      Stage stage;
      stage.plan = gp;
      stage.layers = stage_layers;
      stage.p_tens = std::max<std::size_t>(gp.gpus.size(), 1);
      stage.group = scheduler_->register_group(gp.gpus);
      stage.kernel = std::make_unique<gpu::KernelModel>(
          slowest_spec(network_->graph(), gp.gpus), opts_.model,
          opts_.kernel, opts_.seed + stages.size() + 17);
      gpus.insert(gpus.end(), gp.gpus.begin(), gp.gpus.end());
      stages.push_back(std::move(stage));
    }
  };
  build(plan_.prefill, prefill_stages_, prefill_gpus_);
  build(plan_.decode, decode_stages_, decode_gpus_);
  if (prefill_stages_.empty() || decode_stages_.empty()) {
    throw std::invalid_argument("ClusterSim: empty cluster plan");
  }
}

double ClusterSim::stage_scale(const Stage& stage) const {
  if (!opts_.compute_scale) return 1.0;
  double scale = 1.0;
  for (topo::NodeId g : stage.plan.gpus) {
    scale = std::max(scale, opts_.compute_scale(g));
  }
  HERO_INVARIANT(scale >= 1.0, "compute_scale produced speedup {}", scale);
  return scale;
}

KvSnapshot ClusterSim::kv() const {
  KvSnapshot snap;
  snap.used = kv_used_;
  snap.cached = prefix_cache_ ? prefix_cache_->bytes_used() : Bytes{0.0};
  snap.budget = kv_budget_;
  snap.bytes_per_token = opts_.model.kv_bytes_per_token();
  return snap;
}

std::size_t ClusterSim::effective_tokens(const ActiveRequest& ar) {
  return ar.req.input_tokens - ar.reuse_tokens;
}

std::size_t ClusterSim::cached_prefix_tokens(std::uint64_t session) const {
  return prefix_cache_ ? prefix_cache_->cached_tokens(session) : 0;
}

void ClusterSim::pin_prefix(std::uint64_t session, std::size_t tokens) {
  HERO_REQUIRE(prefix_cache_ != nullptr,
               "pin_prefix on an instance without a prefix tier");
  prefix_cache_->touch(session);
  prefix_cache_->pin(session, tokens);
}

void ClusterSim::unpin_prefix(std::uint64_t session, std::size_t tokens) {
  HERO_REQUIRE(prefix_cache_ != nullptr,
               "unpin_prefix on an instance without a prefix tier");
  prefix_cache_->unpin(session, tokens);
}

void ClusterSim::adopt_prefix(std::uint64_t session, std::size_t tokens) {
  if (!prefix_cache_) return;
  prefix_cache_->publish(session, tokens, kv_budget_ - kv_used_);
  record_kv(simulator().now());
}

void ClusterSim::retire_prefix_cache() {
  if (!prefix_cache_) return;
  prefix_cache_->retire();
  record_kv(simulator().now());
}

void ClusterSim::record_kv(Time now) {
  // KV reservations are released exactly once per retirement; drift in
  // either direction corrupts the admission gate and Fig. 10 accounting.
  // The prefix cache's blocks share the budget, so they count toward
  // utilization (cached == 0 keeps the arithmetic bit-identical to a
  // build without the tier).
  const Bytes cached =
      prefix_cache_ ? prefix_cache_->bytes_used() : Bytes{0.0};
  HERO_INVARIANT(kv_used_ >= -1e-6, "KV accounting underflow: {}", kv_used_);
  HERO_INVARIANT(kv_used_ + cached <= kv_budget_ + 1e-6,
                 "KV over-reserved: {} + {} cached of budget {}", kv_used_,
                 cached, kv_budget_);
  const double util =
      kv_budget_ > 0 ? (kv_used_ + cached) / kv_budget_ : 0.0;
  kv_util_.set(now, util);
  if (obs::MetricsRegistry* m = simulator().metrics()) {
    own_gauge(*m, "serve.kv_utilization").set(now, util);
    if (fleet_kv_ != nullptr) {
      fleet_kv_->report(instance_id_, kv_budget_, util, now, *m);
    }
  }
}

obs::Gauge& ClusterSim::own_gauge(obs::MetricsRegistry& m,
                                  std::string_view name) const {
  return m.gauge(strfmt("i{}.{}", instance_id_, name));
}

void FleetKvGauge::report(std::size_t instance, Bytes budget, double util,
                          Time now, obs::MetricsRegistry& metrics) {
  if (instance >= util_.size()) {
    budget_.resize(instance + 1, Bytes{0.0});
    util_.resize(instance + 1, 0.0);
  }
  budget_[instance] = budget;
  util_[instance] = util;
  Bytes total = 0.0;
  for (const Bytes b : budget_) total += b;
  double value = 0.0;
  if (total > 0) {
    for (std::size_t i = 0; i < util_.size(); ++i) {
      value += util_[i] * (budget_[i] / total);
    }
  }
  metrics.gauge("serve.kv_utilization").set(now, value);
}

void ClusterSim::trace_request_end(const ActiveRequest& ar, Time now) {
  if (obs::EventTracer* tr = simulator().tracer()) {
    tr->async_end(now, ar.req.id, "request", strfmt("req{}", ar.req.id),
                  {obs::arg("ttft", ar.first_token - ar.req.arrival),
                   obs::arg("generated", ar.generated)});
  }
  if (obs::MetricsRegistry* m = simulator().metrics()) {
    m->counter("serve.retired").add(1);
  }
}

void ClusterSim::retire_request(std::unique_ptr<ActiveRequest> ar,
                                Time now) {
  ar->finish = now;
  kv_used_ -= ar->kv_reserved;
  trace_request_end(*ar, now);

  // Prefix tier: release the reuse pin, then publish the session's full
  // context (input + response) so the next turn finds it cached. The
  // cache footprint is capped at whatever the decode reservations leave.
  if (prefix_cache_ && ar->req.session_id != 0) {
    if (ar->reuse_tokens > 0) {
      prefix_cache_->unpin(ar->req.session_id, ar->reuse_tokens);
    }
    const std::size_t context =
        ar->req.input_tokens + ar->req.output_tokens;
    const std::size_t before =
        prefix_cache_->cached_tokens(ar->req.session_id);
    const std::size_t covered = prefix_cache_->publish(
        ar->req.session_id, context, kv_budget_ - kv_used_);
    if (covered > before) {
      prefix_stats_.published_tokens += covered - before;
    }
  }

  retired_.push_back(std::move(ar));
}

void ClusterSim::on_arrival(wl::Request request) {
  auto ar = std::make_unique<ActiveRequest>();
  ar->req = request;
  log::debug("t={} arrival req {} in={} out={}", simulator().now(),
             request.id, request.input_tokens, request.output_tokens);
  const Time now = simulator().now();
  if (obs::EventTracer* tr = simulator().tracer()) {
    tr->async_begin(now, request.id, "request",
                    strfmt("req{}", request.id),
                    {obs::arg("input_tokens", request.input_tokens),
                     obs::arg("output_tokens", request.output_tokens)});
  }

  // Prefix tier: reuse the cached part of the session context. Reused
  // blocks are pinned until the request retires so admission-time
  // eviction can never pull them out from under an in-flight batch.
  if (prefix_cache_ && request.session_id != 0) {
    ++prefix_stats_.lookups;
    const std::size_t want =
        prefix_cache_->usable_tokens(request.prefix_tokens);
    const std::size_t reuse =
        std::min(want, prefix_cache_->cached_tokens(request.session_id));
    obs::EventTracer* tr = simulator().tracer();
    obs::MetricsRegistry* m = simulator().metrics();
    if (reuse > 0) {
      prefix_cache_->touch(request.session_id);
      prefix_cache_->pin(request.session_id, reuse);
      ar->reuse_tokens = reuse;
      ++prefix_stats_.hits;
      prefix_stats_.reused_tokens += reuse;
      if (tr) {
        tr->instant(now, tr->track("kv"), "kv", "kv.hit",
                    {obs::arg("session", request.session_id),
                     obs::arg("reused_tokens", reuse)});
      }
      if (m) {
        m->counter("kv.hits").add(1);
        m->counter("kv.reused_tokens")
            .add(static_cast<std::uint64_t>(reuse));
      }
    } else if (request.prefix_tokens > 0) {
      // The session has shareable context but this instance holds none
      // of it (cold, evicted, or sub-block): full prefill.
      ++prefix_stats_.recomputes;
      if (tr) {
        tr->instant(now, tr->track("kv"), "kv", "kv.recompute",
                    {obs::arg("session", request.session_id),
                     obs::arg("prefix_tokens", request.prefix_tokens)});
      }
      if (m) m->counter("kv.recomputes").add(1);
    }
    const std::size_t decided = prefix_stats_.hits + prefix_stats_.recomputes;
    if (m && decided > 0) {
      own_gauge(*m, "kv.hit_rate")
          .set(now, static_cast<double>(prefix_stats_.hits) /
                        static_cast<double>(decided));
    }
  }

  prefill_queue_.push_back(std::move(ar));
  ++submitted_;
  if (obs::MetricsRegistry* m = simulator().metrics()) {
    m->counter("serve.arrivals").add(1);
    own_gauge(*m, "serve.prefill_queue")
        .set(now, static_cast<double>(prefill_queue_.size()));
  }
  try_start_prefill();
}

void ClusterSim::try_start_prefill() {
  if (prefill_running_ || prefill_queue_.empty()) return;

  auto batch = std::make_unique<PrefillBatch>();
  Bytes kv_per_gpu = 0.0;
  while (!prefill_queue_.empty()) {
    // Reused prefix tokens skip prefill: the batch is costed (and the
    // token budget charged) on what actually runs through the pipeline.
    const std::size_t next_tokens =
        effective_tokens(*prefill_queue_.front());
    if (!batch->requests.empty() &&
        batch->k_in + next_tokens > opts_.prefill_token_budget) {
      break;
    }
    batch->k_in += next_tokens;
    batch->k_in2 += next_tokens * next_tokens;
    // Only freshly prefilled tokens produce KV on the prefill side; the
    // reused prefix already lives in the decode cluster's cache.
    kv_per_gpu += opts_.model.kv_transfer_bytes_per_gpu(
        next_tokens, plan_.prefill.parallel.p_tens);
    batch->requests.push_back(std::move(prefill_queue_.front()));
    prefill_queue_.pop_front();
  }

  log::debug("t={} prefill batch start: {} reqs, k_in={}",
             simulator().now(), batch->requests.size(), batch->k_in);
  const Time now = simulator().now();
  if (obs::EventTracer* tr = simulator().tracer()) {
    tr->begin_span(now, tr->track("prefill"), "prefill", "batch",
                   {obs::arg("requests", batch->requests.size()),
                    obs::arg("k_in", batch->k_in)});
  }
  if (obs::MetricsRegistry* m = simulator().metrics()) {
    m->counter("serve.prefill_batches").add(1);
    own_gauge(*m, "serve.prefill_queue")
        .set(now, static_cast<double>(prefill_queue_.size()));
  }
  // The stage chain and the layer-streamed KV move (kv_move.hpp), which
  // overlaps prefill compute, run to a joint barrier.
  batch->barrier = 2;
  prefill_running_ = std::move(batch);
  const std::size_t flows =
      send_kv(*network_, *scheduler_, kv_shards_, kv_per_gpu,
              [this] { on_prefill_piece_done(); });
  if (obs::MetricsRegistry* m = simulator().metrics(); m && flows > 0) {
    m->counter("serve.kv_transfers").add(flows);
  }
  run_prefill_stage(0);
}

void ClusterSim::run_prefill_stage(std::size_t stage_index) {
  Stage& stage = prefill_stages_[stage_index];
  PrefillBatch& batch = *prefill_running_;
  const Time compute =
      stage.kernel->prefill_time(batch.k_in, batch.k_in2, stage.layers,
                                 stage.p_tens) *
      stage_scale(stage);
  if (obs::EventTracer* tr = simulator().tracer()) {
    tr->begin_span(simulator().now(), tr->track("prefill"), "prefill",
                   strfmt("stage{}", stage_index),
                   {obs::arg("compute_s", compute),
                    obs::arg("k_in", batch.k_in)});
  }
  simulator().schedule_in(compute, [this, stage_index] {
    Stage& st = prefill_stages_[stage_index];
    PrefillBatch& b = *prefill_running_;
    const Bytes volume =
        opts_.model.iteration_sync_volume(std::max<std::size_t>(b.k_in, 1),
                                          st.layers);
    // Close the stage span (compute + sync), then step the chain or hit
    // the batch barrier.
    auto advance = [this, stage_index] {
      if (obs::EventTracer* tr = simulator().tracer()) {
        tr->end_span(simulator().now(), tr->track("prefill"), {});
      }
      if (stage_index + 1 < prefill_stages_.size()) {
        run_prefill_stage(stage_index + 1);
      } else {
        const Time now = simulator().now();
        for (auto& ar : prefill_running_->requests) {
          ar->first_token = now;
        }
        on_prefill_piece_done();
      }
    };
    if (st.p_tens <= 1) {
      // No tensor parallelism: nothing to synchronize.
      simulator().schedule_in(0.0, advance);
      return;
    }
    coll::AllReducePlan plan = scheduler_->all_reduce_plan(st.group, volume);
    engine_->all_reduce(std::move(plan),
                        [advance](const coll::AllReduceResult&) {
                          advance();
                        });
  });
}

void ClusterSim::on_prefill_piece_done() {
  PrefillBatch& batch = *prefill_running_;
  if (--batch.barrier != 0) return;
  log::debug("t={} prefill batch done ({} reqs)", simulator().now(),
             batch.requests.size());
  const Time now = simulator().now();
  if (obs::EventTracer* tr = simulator().tracer()) {
    tr->end_span(now, tr->track("prefill"),
                 {obs::arg("requests", batch.requests.size())});
  }
  // Prefill and KV transfer both finished: hand to decode.
  for (auto& ar : batch.requests) {
    decode_wait_queue_.push_back(std::move(ar));
  }
  if (obs::MetricsRegistry* m = simulator().metrics()) {
    own_gauge(*m, "serve.decode_wait")
        .set(now, static_cast<double>(decode_wait_queue_.size()));
  }
  prefill_running_.reset();
  try_admit_decode();
  try_start_prefill();
}

void ClusterSim::try_admit_decode() {
  const Time now = simulator().now();
  while (!decode_wait_queue_.empty()) {
    ActiveRequest& ar = *decode_wait_queue_.front();
    const std::size_t total_tokens =
        ar.req.input_tokens + std::max<std::size_t>(ar.req.output_tokens, 1);
    // Reused blocks are already resident (and charged) in the cache; the
    // reservation covers only the fresh part of the sequence.
    const Bytes need =
        kv().bytes_for_tokens(total_tokens - ar.reuse_tokens);
    Bytes cached = prefix_cache_ ? prefix_cache_->bytes_used() : Bytes{0.0};
    if (prefix_cache_ && kv_used_ + cached + need > kv_budget_) {
      // Reclaim unpinned cache blocks before letting a request queue on
      // memory: cached prefixes are an optimization, never a reason to
      // delay admission.
      prefix_cache_->evict((kv_used_ + cached + need) - kv_budget_);
      cached = prefix_cache_->bytes_used();
    }
    if (kv_used_ + cached + need > kv_budget_) break;  // memory-gated

    auto owned = std::move(decode_wait_queue_.front());
    decode_wait_queue_.pop_front();
    owned->kv_reserved = need;
    kv_used_ += need;

    if (owned->req.output_tokens <= 1) {
      // The prefill token was the whole response.
      retire_request(std::move(owned), now);
    } else {
      decoding_.push_back(std::move(owned));
    }
  }
  record_kv(now);
  if (obs::MetricsRegistry* m = simulator().metrics()) {
    own_gauge(*m, "serve.decode_wait")
        .set(now, static_cast<double>(decode_wait_queue_.size()));
    own_gauge(*m, "serve.decoding")
        .set(now, static_cast<double>(decoding_.size()));
  }
  if (!decode_busy_ && !decoding_.empty()) start_decode_iteration();
}

void ClusterSim::start_decode_iteration() {
  decode_busy_ = true;
  log::debug("t={} decode iteration: {} active, kv={}%", simulator().now(),
             decoding_.size(),
             kv_budget_ > 0 ? 100.0 * kv_used_ / kv_budget_ : 0.0);
  const std::size_t batch_size =
      std::min(decoding_.size(), opts_.decode_batch_limit);
  std::size_t ctx = 0;
  for (std::size_t i = 0; i < batch_size; ++i) {
    ctx += decoding_[i]->req.input_tokens + decoding_[i]->generated + 1;
  }
  if (obs::EventTracer* tr = simulator().tracer()) {
    tr->begin_span(simulator().now(), tr->track("decode"), "decode",
                   "iteration",
                   {obs::arg("batch", batch_size), obs::arg("ctx", ctx)});
  }
  if (obs::MetricsRegistry* m = simulator().metrics()) {
    m->counter("serve.decode_iterations").add(1);
  }

  // All pipeline stages run concurrently (steady-state pipelining).
  decode_pending_ = decode_stages_.size();
  for (Stage& stage : decode_stages_) {
    const Time compute = stage.kernel->decode_time(batch_size, ctx,
                                                   stage.layers,
                                                   stage.p_tens) *
                         stage_scale(stage);
    simulator().schedule_in(compute, [this, &stage, batch_size] {
      auto finish_piece = [this, batch_size] {
        if (--decode_pending_ == 0) on_decode_iteration_done(batch_size);
      };
      if (stage.p_tens <= 1) {
        finish_piece();
        return;
      }
      const Bytes volume =
          opts_.model.iteration_sync_volume(batch_size, stage.layers);
      coll::AllReducePlan plan =
          scheduler_->all_reduce_plan(stage.group, volume);
      engine_->all_reduce(std::move(plan),
                          [finish_piece](const coll::AllReduceResult&) {
                            finish_piece();
                          });
    });
  }
}

void ClusterSim::on_decode_iteration_done(std::size_t batch_size) {
  const Time now = simulator().now();
  batch_size = std::min(batch_size, decoding_.size());
  for (std::size_t i = 0; i < batch_size; ++i) ++decoding_[i]->generated;

  // Retire finished requests (first token came from prefill, so a request
  // needs output_tokens - 1 decode steps).
  std::size_t retired_now = 0;
  for (std::size_t i = batch_size; i-- > 0;) {
    ActiveRequest& ar = *decoding_[i];
    if (ar.generated + 1 >= ar.req.output_tokens) {
      log::debug("t={} retire req {}", now, ar.req.id);
      ++retired_now;
      retire_request(std::move(decoding_[i]), now);
      decoding_.erase(decoding_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  if (obs::EventTracer* tr = simulator().tracer()) {
    tr->end_span(now, tr->track("decode"),
                 {obs::arg("retired", retired_now)});
  }
  record_kv(now);
  decode_busy_ = false;
  try_admit_decode();
  if (!decode_busy_ && !decoding_.empty()) start_decode_iteration();
}

void ClusterSim::begin() { record_kv(simulator().now()); }

void ClusterSim::submit(const wl::Request& request) { on_arrival(request); }

LoadSnapshot ClusterSim::load() const {
  LoadSnapshot snap;
  snap.prefill_requests =
      prefill_queue_.size() +
      (prefill_running_ ? prefill_running_->requests.size() : 0);
  snap.prefill_backlog_tokens = prefill_running_ ? prefill_running_->k_in : 0;
  for (const auto& ar : prefill_queue_) {
    snap.prefill_backlog_tokens += effective_tokens(*ar);
  }
  snap.decode_requests = decode_wait_queue_.size() + decoding_.size();
  snap.in_flight = submitted_ - retired_.size();
  return snap;
}

ServingReport ClusterSim::report() const {
  ServingReport report;
  report.submitted = submitted_;
  report.gpus_used = prefill_gpus_.size() + decode_gpus_.size();
  Time last_finish = 0.0;
  HERO_INVARIANT(retired_.size() <= submitted_,
                 "retired {} requests of {} submitted", retired_.size(),
                 submitted_);
  for (const auto& ar : retired_) {
    if (ar->finish < 0) continue;
    ++report.completed;
    last_finish = std::max(last_finish, ar->finish);
    const Time ttft = ar->first_token - ar->req.arrival;
    // TTFT/TPOT accounting: the lifecycle timestamps must be causally
    // ordered (arrival <= first token <= finish) or the percentile stats
    // silently ingest garbage.
    HERO_INVARIANT(ttft >= 0.0, "req {}: first token {} before arrival {}",
                   ar->req.id, ar->first_token, ar->req.arrival);
    HERO_INVARIANT(ar->finish >= ar->first_token,
                   "req {}: finish {} before first token {}", ar->req.id,
                   ar->finish, ar->first_token);
    HERO_INVARIANT(ar->generated + 1 >= ar->req.output_tokens,
                   "req {}: retired after {} of {} tokens", ar->req.id,
                   ar->generated + 1, ar->req.output_tokens);
    report.ttft.add(raw(ttft));
    Time tpot = 0.0;
    if (ar->req.output_tokens > 1) {
      tpot = (ar->finish - ar->first_token) /
             static_cast<double>(ar->req.output_tokens - 1);
      report.tpot.add(raw(tpot));
    }
    if (ttft <= opts_.sla_ttft &&
        (ar->req.output_tokens <= 1 || tpot <= opts_.sla_tpot)) {
      ++report.within_sla;
    }
  }
  report.sla_attainment =
      submitted_ == 0 ? 0.0
                      : static_cast<double>(report.within_sla) /
                            static_cast<double>(submitted_);
  report.makespan = last_finish;
  report.requests_per_second =
      last_finish > 0 ? static_cast<double>(report.completed) / last_finish
                      : 0.0;
  report.per_gpu_goodput =
      report.gpus_used > 0
          ? report.requests_per_second /
                static_cast<double>(report.gpus_used)
          : 0.0;
  report.kv_utilization_avg = kv_util_.average();
  report.kv_utilization_peak = kv_util_.peak();
  report.kv_timeline = kv_util_.timeline();
  return report;
}

std::vector<RetiredSample> ClusterSim::retired_samples() const {
  std::vector<RetiredSample> samples;
  samples.reserve(retired_.size());
  for (const auto& ar : retired_) {
    if (ar->finish < 0) continue;
    samples.push_back({ar->req.id, ar->req.arrival,
                       ar->first_token - ar->req.arrival, ar->finish});
  }
  return samples;
}

}  // namespace hero::serve
