#include "serving/fleet_sim.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"
#include "common/format.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hero::serve {

FleetSim::FleetSim(net::FlowNetwork& network, coll::CollectiveEngine& engine,
                   coll::CommScheduler& scheduler, FleetConfig config,
                   ServingOptions base_serving)
    : network_(&network), engine_(&engine), scheduler_(&scheduler),
      base_serving_(std::move(base_serving)),
      router_(network, std::move(config)) {}

void FleetSim::set_deploy_hooks(std::function<void(std::size_t)> before,
                                std::function<void(std::size_t)> after) {
  deploy_before_ = std::move(before);
  deploy_after_ = std::move(after);
}

ClusterSim& FleetSim::add_instance(planner::PlanResult plan) {
  const std::size_t id = instances_.size();
  if (deploy_before_) deploy_before_(id);
  ServingOptions options = base_serving_;
  // Decorrelate per-instance randomness without correlating adjacent
  // instances (7919 = the 1000th prime; same derivation PR 4 used).
  options.seed = base_serving_.seed + id * 7919;

  InstanceLifetime life;
  life.deployed = network_->simulator().now();
  life.gpus = plan.prefill.all_gpus().size() + plan.decode.all_gpus().size();

  instances_.push_back(std::make_unique<ClusterSim>(
      *network_, *engine_, *scheduler_, std::move(plan), std::move(options),
      id, &kv_gauge_));
  lifetimes_.push_back(life);
  stream_busy_.push_back(0);
  router_.add_instance(*instances_.back());
  if (running_) instances_.back()->begin();
  if (deploy_after_) deploy_after_(id);
  return *instances_.back();
}

void FleetSim::mark_released(std::size_t id) {
  InstanceLifetime& life = lifetimes_.at(id);
  HERO_REQUIRE(life.released < 0, "instance {} released twice", id);
  HERO_REQUIRE(!router_.is_active(id),
               "instance {} released without being drained", id);
  // Drain consistency (prefix tier): with no request in flight and no
  // stream touching the instance, no block is pinned, so retiring the
  // cache empties it and dispatch (which skips released instances) never
  // streams from memory that is being handed back.
  HERO_REQUIRE(stream_busy_.at(id) == 0,
               "instance {} released with {} prefix streams in flight", id,
               stream_busy_.at(id));
  instances_.at(id)->retire_prefix_cache();
  HERO_INVARIANT(instances_.at(id)->kv().cached <= 0.0,
                 "released instance {} still caches {} bytes", id,
                 instances_.at(id)->kv().cached);
  life.released = network_->simulator().now();
}

std::size_t FleetSim::total_retired() const {
  std::size_t total = 0;
  for (const auto& inst : instances_) total += inst->retired_count();
  return total;
}

void FleetSim::dispatch(const wl::Request& request) {
  sim::Simulator& sim = network_->simulator();
  ArrivalContext ctx = router_.make_context(request);

  // Prefix affinity: fold the per-instance caches into the context so the
  // hero cost can discount holders and the router can quote a stream from
  // the best holder: the longest cached coverage, ties toward the lowest
  // id. A released instance's blocks are never a stream source.
  if (prefix_tier_enabled() && router_.config().prefix_affinity &&
      router_.config().policy == RouterPolicy::kHeroServe &&
      request.session_id != 0 && request.prefix_tokens > 0) {
    const std::size_t bt = base_serving_.prefix_block_tokens;
    const std::size_t usable = request.prefix_tokens / bt * bt;
    if (usable > 0) {
      ctx.prefix_tokens = usable;
      std::size_t best = 0;
      for (std::size_t i = 0; i < instances_.size(); ++i) {
        const std::size_t cached =
            instances_[i]->cached_prefix_tokens(request.session_id);
        ctx.probes[i].prefix_tokens = std::min(usable, cached);
        if (lifetimes_[i].released < 0 && cached > best) {
          best = cached;
          ctx.prefix_instance = i;
        }
      }
      if (best > 0) ctx.prefix_tokens = std::min(usable, best);
    }
  }

  const RouteDecision decision = router_.route(ctx);
  if (obs::EventTracer* tr = sim.tracer()) {
    tr->instant(sim.now(), tr->track("router"), "router", "route",
                {obs::arg("req", request.id),
                 obs::arg("instance", decision.instance)});
  }
  if (decision.prefix == PrefixAction::kStream) {
    start_prefix_stream(decision, request);
  } else {
    instances_[decision.instance]->submit(request);
  }
}

void FleetSim::start_prefix_stream(const RouteDecision& decision,
                                   const wl::Request& request) {
  sim::Simulator& sim = network_->simulator();
  const std::size_t from = decision.stream_from;
  const std::size_t to = decision.instance;
  const std::size_t tokens = decision.reuse_tokens;

  // Pin the source blocks for the duration of the stream; both endpoints
  // count as stream-busy so a drain cannot release either mid-transfer.
  instances_.at(from)->pin_prefix(request.session_id, tokens);
  ++stream_busy_.at(from);
  ++stream_busy_.at(to);
  ++streams_total_;
  stream_bytes_total_ += decision.stream_bytes;

  if (obs::EventTracer* tr = sim.tracer()) {
    tr->instant(sim.now(), tr->track("kv"), "kv", "kv.stream",
                {obs::arg("session", request.session_id),
                 obs::arg("from", from), obs::arg("to", to),
                 obs::arg("tokens", tokens),
                 obs::arg("bytes", decision.stream_bytes)});
  }
  if (obs::MetricsRegistry* m = sim.metrics()) {
    m->counter("kv.streams").add(1);
    m->counter("kv.stream_bytes")
        .add(static_cast<std::uint64_t>(raw(decision.stream_bytes)));
  }

  // One flow per source decode GPU (kv_move.hpp); a degenerate plan with
  // nothing to move completes synchronously.
  const std::vector<KvShard> shards = kv_shards(
      instances_[from]->decode_gpu_ids(), instances_[to]->decode_gpu_ids());
  const Bytes shard_bytes =
      shards.empty()
          ? Bytes{0.0}
          : decision.stream_bytes / static_cast<double>(shards.size());
  send_kv(*network_, *scheduler_, shards, shard_bytes,
          [this, from, to, request, tokens] {
            instances_.at(from)->unpin_prefix(request.session_id, tokens);
            // Adoption publishes the streamed coverage at the destination
            // (capacity permitting), so the submit below finds it as a
            // local hit — and the *next* turn of the session routes to
            // `to` directly.
            instances_.at(to)->adopt_prefix(request.session_id, tokens);
            HERO_INVARIANT(
                stream_busy_.at(from) > 0 && stream_busy_.at(to) > 0,
                "prefix stream {} -> {} finished without busy marks", from,
                to);
            --stream_busy_.at(from);
            --stream_busy_.at(to);
            instances_.at(to)->submit(request);
          });
}

void FleetSim::schedule_arrival(std::size_t k) {
  const std::uint32_t i = arrival_order_[k];
  arrival_event_ = network_->simulator().schedule_keyed(
      (*trace_)[i].arrival, first_arrival_key_ + i,
      [this, k] { on_arrival(k); });
}

void FleetSim::on_arrival(std::size_t k) {
  arrival_event_ = sim::kInvalidEvent;
  if (k + 1 < arrival_order_.size()) schedule_arrival(k + 1);
  dispatch((*trace_)[arrival_order_[k]]);
}

FleetReport FleetSim::run(const wl::Trace& trace) {
  HERO_REQUIRE(!instances_.empty(), "FleetSim::run: no instances deployed");
  sim::Simulator& sim = network_->simulator();
  const std::uint64_t ops_before = engine_->ops_completed;
  const std::uint64_t fb_before = engine_->fallbacks_taken;
  obs::EventTracer* tr = sim.tracer();
  const std::uint64_t tr_coll_before =
      tr ? tr->count("collective", obs::Phase::kAsyncEnd) : 0;
  const std::uint64_t tr_fb_before =
      tr ? tr->count("ina_fallback", obs::Phase::kInstant) : 0;

  running_ = true;
  const Time max_sim_time = base_serving_.max_sim_time;
  for (auto& inst : instances_) inst->begin();

  // Dispatch happens at the arrival instant against the fleet's live state
  // (queue depths and residual bandwidth as of *now*). Every arrival's
  // calendar key is reserved here, trace index i taking key first + i, but
  // only the next arrival in (arrival, index) order is ever pending: each
  // one schedules its successor when it fires. The keys order every
  // arrival exactly where scheduling them all up front would have.
  trace_ = &trace;
  arrival_order_.resize(trace.size());
  std::iota(arrival_order_.begin(), arrival_order_.end(), std::uint32_t{0});
  std::sort(arrival_order_.begin(), arrival_order_.end(),
            [&trace](std::uint32_t a, std::uint32_t b) {
              if (trace[a].arrival < trace[b].arrival) return true;
              if (trace[b].arrival < trace[a].arrival) return false;
              return a < b;
            });
  first_arrival_key_ = sim.reserve_keys(trace.size());
  if (!trace.empty()) schedule_arrival(0);

  // Count-driven exit: autoscaler ticks keep the event queue non-empty
  // forever, so the loop ends on the retired count, not queue exhaustion.
  while (total_retired() < trace.size() && sim.now() < max_sim_time) {
    if (!sim.step()) break;
  }
  running_ = false;
  // A run cut off by max_sim_time may leave the next arrival pending; drop
  // it so no closure outlives the trace it indexes.
  sim.cancel(arrival_event_);
  arrival_event_ = sim::kInvalidEvent;
  trace_ = nullptr;
  if (total_retired() < trace.size()) {
    log::warn(
        "fleet run incomplete: t={} retired={}/{} instances={} transfers={} "
        "pending_events={}",
        sim.now(), total_retired(), trace.size(), instances_.size(),
        network_->active_transfers(), sim.pending_events());
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      const LoadSnapshot load = instances_[i]->load();
      log::warn("  instance {}: prefill={} backlog_tokens={} decode={} "
                "in_flight={}",
                i, load.prefill_requests, load.prefill_backlog_tokens,
                load.decode_requests, load.in_flight);
    }
    network_->debug_dump();
  }

  FleetReport fleet;
  fleet.dispatched = router_.dispatched();
  fleet.lifetimes = lifetimes_;
  ServingReport& agg = fleet.aggregate;
  // Budget-weighted KV average. The weights are budget / total, so a fleet
  // of one weighs its instance by exactly 1.0 and reports its average bit
  // for bit (avg * b / b could drift by an ulp).
  Bytes kv_budget_total = 0.0;
  for (const auto& inst : instances_) kv_budget_total += inst->kv().budget;
  for (auto& inst : instances_) {
    inst->begin();  // close the KV-occupancy time series at `now`
    ServingReport rep = inst->report();
    agg.submitted += rep.submitted;
    agg.completed += rep.completed;
    agg.gpus_used += rep.gpus_used;
    agg.makespan = std::max(agg.makespan, rep.makespan);
    agg.ttft.merge(rep.ttft);
    agg.tpot.merge(rep.tpot);
    agg.within_sla += rep.within_sla;
    agg.kv_utilization_peak =
        std::max(agg.kv_utilization_peak, rep.kv_utilization_peak);
    if (kv_budget_total > 0) {
      agg.kv_utilization_avg +=
          rep.kv_utilization_avg * (inst->kv().budget / kv_budget_total);
    }
    const PrefixStats& ps = inst->prefix_stats();
    fleet.prefix.lookups += ps.lookups;
    fleet.prefix.hits += ps.hits;
    fleet.prefix.recomputes += ps.recomputes;
    fleet.prefix.reused_tokens += ps.reused_tokens;
    fleet.prefix.published_tokens += ps.published_tokens;
    for (RetiredSample s : inst->retired_samples()) {
      fleet.samples.push_back(s);
    }
    fleet.per_instance.push_back(std::move(rep));
  }
  std::sort(fleet.samples.begin(), fleet.samples.end(),
            [](const RetiredSample& a, const RetiredSample& b) {
              if (a.arrival < b.arrival) return true;
              if (b.arrival < a.arrival) return false;
              return a.id < b.id;
            });
  agg.sla_attainment =
      trace.empty() ? 0.0
                    : static_cast<double>(agg.within_sla) /
                          static_cast<double>(trace.size());
  agg.requests_per_second =
      agg.makespan > 0
          ? static_cast<double>(agg.completed) / agg.makespan
          : 0.0;
  agg.per_gpu_goodput =
      agg.gpus_used > 0 ? agg.requests_per_second /
                              static_cast<double>(agg.gpus_used)
                        : 0.0;
  fleet.prefix_streams = streams_total_;
  fleet.prefix_stream_bytes = stream_bytes_total_;

  // GPU-hours: each instance holds its GPUs from deployment until its
  // drain completed (released) or the run ended — a never-released replica
  // is paid for through the whole run, which is exactly the static fleet's
  // bill and what the elastic fleet undercuts.
  const Time end_of_run = sim.now();
  for (const InstanceLifetime& life : lifetimes_) {
    const Time held =
        (life.released < 0 ? end_of_run : life.released) - life.deployed;
    fleet.gpu_hours +=
        static_cast<double>(life.gpus) * std::max(0.0, raw(held)) / 3600.0;
  }

  fleet.collectives = engine_->ops_completed - ops_before;
  fleet.ina_fallbacks = engine_->fallbacks_taken - fb_before;
  if (tr) {
    fleet.trace_checked = true;
    fleet.trace_collectives =
        tr->count("collective", obs::Phase::kAsyncEnd) - tr_coll_before;
    fleet.trace_ina_fallbacks =
        tr->count("ina_fallback", obs::Phase::kInstant) - tr_fb_before;
    fleet.trace_consistent =
        fleet.trace_collectives == fleet.collectives &&
        fleet.trace_ina_fallbacks == fleet.ina_fallbacks;
    HERO_INVARIANT(fleet.trace_consistent,
                   "engine/tracer drift: {} vs {} collectives, {} vs {} "
                   "fallbacks",
                   fleet.collectives, fleet.trace_collectives,
                   fleet.ina_fallbacks, fleet.trace_ina_fallbacks);
    if (!fleet.trace_consistent) {
      log::warn("serving trace cross-check mismatch");
    }
  }

  if (!fleet.dispatched.empty()) {
    std::uint64_t total = 0, peak = 0;
    for (std::uint64_t d : fleet.dispatched) {
      total += d;
      peak = std::max(peak, d);
    }
    const double mean = static_cast<double>(total) /
                        static_cast<double>(fleet.dispatched.size());
    fleet.dispatch_imbalance =
        mean > 0 ? static_cast<double>(peak) / mean - 1.0 : 0.0;
  }
  return fleet;
}

}  // namespace hero::serve
