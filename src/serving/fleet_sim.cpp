#include "serving/fleet_sim.hpp"

#include <algorithm>
#include <cmath>

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
      *network_, *engine_, *scheduler_, std::move(plan),
      std::move(options)));
  lifetimes_.push_back(life);
  stream_busy_.push_back(0);
  // The instance's cache mirrors its coverage into the fleet directory.
  instances_.back()->set_prefix_change_hook(
      [this, id](std::uint64_t stream, std::size_t tokens) {
        directory_.update(stream, id, tokens);
      });
  router_.add_instance(*instances_.back());
  if (running_) instances_.back()->begin();
  if (deploy_after_) deploy_after_(id);
  return *instances_.back();
}

void FleetSim::mark_released(std::size_t id) {
  InstanceLifetime& life = lifetimes_.at(id);
  HERO_REQUIRE(life.released < 0, "instance {} released twice", id);
  // Drain consistency (prefix tier): the cache retires and the directory
  // forgets this instance before the caller hands its GPUs back, so no
  // later dispatch can price a stream from released memory.
  HERO_REQUIRE(stream_busy_.at(id) == 0,
               "instance {} released with {} prefix streams in flight", id,
               stream_busy_.at(id));
  instances_.at(id)->retire_prefix_cache();
  directory_.purge_instance(id);
  HERO_INVARIANT(!directory_.instance_has_entries(id),
                 "released instance {} still indexed by the directory", id);
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

  // Prefix affinity: fold the per-instance caches and the fleet directory
  // into the context so the hero cost can discount holders and the router
  // can quote a cross-instance stream.
  if (prefix_tier_enabled() && router_.config().prefix_affinity &&
      router_.config().policy == RouterPolicy::kHeroServe &&
      request.session_id != 0 && request.prefix_tokens > 0) {
    const std::size_t bt = base_serving_.prefix_block_tokens;
    const std::size_t usable = request.prefix_tokens / bt * bt;
    if (usable > 0) {
      ctx.prefix_tokens = usable;
      for (std::size_t i = 0; i < instances_.size(); ++i) {
        ctx.probes[i].prefix_tokens = std::min(
            usable, instances_[i]->cached_prefix_tokens(request.session_id));
      }
      if (const auto best = directory_.best(request.session_id)) {
        ctx.prefix_instance = best->instance;
        ctx.prefix_tokens = std::min(usable, best->tokens);
      }
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

  const auto& sdec = instances_[from]->decode_gpu_ids();
  const auto& ddec = instances_[to]->decode_gpu_ids();
  if (sdec.empty() || ddec.empty() || decision.stream_bytes <= 0.0) {
    // Nothing to move (degenerate plan); complete synchronously.
    finish_prefix_stream(from, to, request, tokens);
    return;
  }
  // One pipelined flow per source decode GPU to its paired destination
  // GPU — the same sharding the router's quote priced. The route may differ:
  // the quote priced the static shortest path, while unicast_path picks
  // (for HeroServe) the least-loaded of its alternates.
  const Bytes per_src =
      decision.stream_bytes / static_cast<double>(sdec.size());
  auto barrier = std::make_shared<std::size_t>(sdec.size());
  for (std::size_t i = 0; i < sdec.size(); ++i) {
    const topo::Path path = scheduler_->unicast_path(
        sdec[i], ddec[planner::kv_pair(i, sdec.size(), ddec.size())]);
    net::TransferOptions topts;
    topts.pipelined = true;  // RDMA bulk stream
    topts.on_complete = [this, barrier, from, to, request,
                         tokens](net::TransferId) {
      if (--*barrier != 0) return;
      finish_prefix_stream(from, to, request, tokens);
    };
    network_->start_transfer(path, per_src, std::move(topts));
  }
}

void FleetSim::finish_prefix_stream(std::size_t from, std::size_t to,
                                    const wl::Request& request,
                                    std::size_t tokens) {
  instances_.at(from)->unpin_prefix(request.session_id, tokens);
  // Adoption publishes the streamed coverage at the destination (capacity
  // permitting) and mirrors it into the directory, so the submit below
  // finds it as a local hit — and the *next* turn of the session routes
  // to `to` directly.
  instances_.at(to)->adopt_prefix(request.session_id, tokens);
  HERO_INVARIANT(stream_busy_.at(from) > 0 && stream_busy_.at(to) > 0,
                 "prefix stream {} -> {} finished without busy marks", from,
                 to);
  --stream_busy_.at(from);
  --stream_busy_.at(to);
  instances_.at(to)->submit(request);
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

  for (const wl::Request& r : trace) {
    // Dispatch happens at the arrival instant against the fleet's live
    // state (queue depths and residual bandwidth as of *now*).
    sim.schedule(r.arrival, [this, r] { dispatch(r); });
  }

  // Count-driven exit: autoscaler ticks keep the event queue non-empty
  // forever, so the loop ends on the retired count, not queue exhaustion.
  while (total_retired() < trace.size() && sim.now() < max_sim_time) {
    if (!sim.step()) break;
  }
  running_ = false;
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
  double within_sla = 0.0;
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
    // report() normalized attainment by this instance's own submissions;
    // recover the absolute count so the fleet number is exact.
    within_sla += std::round(rep.sla_attainment *
                             static_cast<double>(rep.submitted));
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
      trace.empty() ? 0.0 : within_sla / static_cast<double>(trace.size());
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

  // Engine counters are shared across instances; only fleet-wide deltas
  // are attributable.
  agg.collectives = engine_->ops_completed - ops_before;
  agg.ina_fallbacks = engine_->fallbacks_taken - fb_before;
  if (tr) {
    agg.trace_checked = true;
    agg.trace_collectives =
        tr->count("collective", obs::Phase::kAsyncEnd) - tr_coll_before;
    agg.trace_ina_fallbacks =
        tr->count("ina_fallback", obs::Phase::kInstant) - tr_fb_before;
    agg.trace_consistent =
        agg.trace_collectives == agg.collectives &&
        agg.trace_ina_fallbacks == agg.ina_fallbacks;
    HERO_INVARIANT(agg.trace_consistent,
                   "engine/tracer drift: {} vs {} collectives, {} vs {} "
                   "fallbacks",
                   agg.collectives, agg.trace_collectives, agg.ina_fallbacks,
                   agg.trace_ina_fallbacks);
    if (!agg.trace_consistent) log::warn("serving trace cross-check mismatch");
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
