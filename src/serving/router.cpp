#include "serving/router.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "topology/paths.hpp"

namespace hero::serve {

namespace {

/// Marginal TPOT interference the hero cost charges per occupied decode
/// lane, as a fraction of a full 1/mu_dec serialization step (decode lanes
/// run concurrently; a new batch member only stretches the shared step).
constexpr double kDecodeInterference = 0.1;

}  // namespace

const char* to_string(RouterPolicy policy) {
  switch (policy) {
    case RouterPolicy::kRoundRobin: return "rr";
    case RouterPolicy::kRandom: return "random";
    case RouterPolicy::kShortestQueue: return "jsq";
    case RouterPolicy::kHeroServe: return "hero";
  }
  return "?";
}

std::optional<RouterPolicy> parse_router_policy(std::string_view name) {
  if (name == "rr" || name == "round-robin") {
    return RouterPolicy::kRoundRobin;
  }
  if (name == "random") return RouterPolicy::kRandom;
  if (name == "jsq" || name == "shortest-queue") {
    return RouterPolicy::kShortestQueue;
  }
  if (name == "hero" || name == "heroserve") return RouterPolicy::kHeroServe;
  return std::nullopt;
}

const char* to_string(PrefixAction action) {
  switch (action) {
    case PrefixAction::kNone: return "none";
    case PrefixAction::kHit: return "hit";
    case PrefixAction::kStream: return "stream";
    case PrefixAction::kRecompute: return "recompute";
  }
  return "?";
}

Router::Router(net::FlowNetwork& network, FleetConfig config)
    : network_(&network), config_(std::move(config)),
      rng_(config_.router_seed), routes_(network.graph()) {}

std::size_t Router::add_instance(ClusterSim& instance) {
  Instance inst;
  inst.sim = &instance;
  // Static pairing paths: GPU i of the prefill cluster streams its KV shard
  // to its planner::kv_pair decode GPU (the serving simulator's mapping).
  // The route is the plain shortest path — the *load* is applied at dispatch
  // time through the fair-share bandwidth vector, so the estimate follows
  // congestion without perturbing any scheduler state. The simulator itself
  // sends KV over CommScheduler::unicast_path, which for HeroServe is the
  // load-aware pick among alternates and may differ from this path.
  const auto& pre = instance.prefill_gpu_ids();
  const auto& dec = instance.decode_gpu_ids();
  inst.kv_paths.reserve(pre.size());
  for (std::size_t i = 0; i < pre.size() && !dec.empty(); ++i) {
    auto path = routes_.path(pre[i],
                             dec[planner::kv_pair(i, pre.size(), dec.size())]);
    if (path) inst.kv_paths.push_back(std::move(*path));
  }
  instances_.push_back(std::move(inst));
  dispatched_.push_back(0);
  return instances_.size() - 1;
}

void Router::drain_instance(std::size_t id) {
  Instance& inst = instances_.at(id);
  HERO_REQUIRE(inst.state != State::kRemoved,
               "drain_instance: instance {} already removed", id);
  inst.state = State::kDraining;
}

void Router::remove_instance(std::size_t id) {
  Instance& inst = instances_.at(id);
  HERO_REQUIRE(inst.state == State::kDraining,
               "remove_instance: instance {} not draining", id);
  inst.state = State::kRemoved;
}

std::size_t Router::active_count() const {
  std::size_t n = 0;
  for (const Instance& inst : instances_) {
    if (inst.state == State::kActive) ++n;
  }
  return n;
}

std::vector<std::size_t> Router::active_ids() const {
  std::vector<std::size_t> ids;
  ids.reserve(instances_.size());
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (instances_[i].state == State::kActive) ids.push_back(i);
  }
  return ids;
}

ArrivalContext Router::make_context(const wl::Request& request) const {
  ArrivalContext ctx;
  ctx.request = request;
  ctx.now = network_->simulator().now();
  ctx.probes.reserve(instances_.size());
  for (const Instance& inst : instances_) {
    InstanceProbe probe;
    probe.active = inst.state == State::kActive;
    probe.load = inst.sim->load();
    probe.kv = inst.sim->kv();
    if (config_.policy == RouterPolicy::kHeroServe) {
      probe.kv_path_estimates.reserve(inst.kv_paths.size());
      for (const topo::Path& path : inst.kv_paths) {
        if (path.edges.empty()) continue;  // co-located pair
        probe.kv_path_estimates.push_back(network_->estimate_path(path));
      }
    }
    ctx.probes.push_back(std::move(probe));
  }
  return ctx;
}

double Router::cost_for(const Instance& inst, const InstanceProbe& probe,
                        const wl::Request& request) const {
  const ClusterSim& sim = *inst.sim;
  const planner::PlanResult& plan = sim.plan();
  const ServingOptions& opts = sim.options();
  const LoadSnapshot& load = probe.load;
  // Prefix affinity: the probe's cached coverage is work this instance
  // would not redo — subtract it from the prefill and KV-transfer terms
  // (0 everywhere when the tier is off, leaving the cost untouched).
  const std::size_t fresh_tokens = request.input_tokens - probe.prefix_tokens;

  // Queue-delay estimate from the live load snapshot, built to predict the
  // *TTFT* this request would see. The prefill backlog is token-weighted
  // (one K_in-sized prompt = one "equivalent request" of the capacity
  // model, so a burst of heavy prompts counts for what it costs, not how
  // many requests it is) and drains at the planned prefill rate. Decode
  // lanes run concurrently: an occupied lane delays nobody until the lanes
  // run out, so decode contributes only its overflow past the planned
  // batch limit — counting every decoding request at 1/mu would swamp the
  // backlog signal and steer whole bursts onto the instance with the
  // deepest prefill queue but one free lane. The estimate is continuous in
  // the backlog: plateaus of identical costs would collapse into the
  // lowest-id tie-break and funnel whole bursts to one instance.
  const double k_in = static_cast<double>(
      std::max<std::size_t>(plan.planned_k_in, 1));
  const Rate mu_pre = std::max(plan.service_rate_prefill, Rate{1e-9});
  const Rate mu_dec = std::max(plan.service_rate_decode, Rate{1e-9});
  const double backlog_reqs =
      static_cast<double>(load.prefill_backlog_tokens + fresh_tokens) /
      k_in;
  const double decode_overflow =
      static_cast<double>(load.decode_requests + 1) -
      static_cast<double>(plan.q_decode);
  // Below the lane limit a decode occupant still costs a little: every
  // extra batch member stretches the whole batch's step time, so charge a
  // lightly-weighted interference term. It spreads near-tie traffic off
  // the momentarily-cheapest instance (shallower batches, better TPOT and
  // drain tail) but stays an order of magnitude under the serialization
  // reading (1/mu_dec each), which would swamp the prefill-backlog signal.
  const Time queue_s =
      backlog_reqs / mu_pre + std::max(0.0, decode_overflow) / mu_dec +
      kDecodeInterference * static_cast<double>(load.decode_requests) /
          mu_dec;

  // Decode-completion term: the request's predicted decode residence at the
  // instance's planned TPOT (plans differ — a decode pool with more tensor
  // parallelism steps faster). Down-weighted so it decides placement only
  // when the load signals are flat: the fleet's drain tail is set by where
  // the last long-output requests land, and parking one on the slowest
  // decoder stretches the makespan long after every queue has emptied.
  const Time completion_s = config_.completion_weight *
                            static_cast<double>(request.output_tokens) *
                            plan.t_decode;

  // KV-transfer latency over the current flow network: the request's
  // per-GPU KV shard across the worst pairing path at the rate a new flow
  // would be admitted at (pipelined stream: PathEstimate's post-admission
  // fair share + fixed hop latencies). Fair share — not residual: under
  // max-min sharing a saturated link admits a new flow at C/(n+1) by
  // squeezing the others, while its residual reads zero, which would send
  // every instance's estimate to infinity at once and collapse the
  // comparison into the lowest-id tie-break — the exact herding the cost
  // model exists to prevent.
  Time kv_s = 0.0;
  const Bytes bytes = opts.model.kv_transfer_bytes_per_gpu(
      fresh_tokens, plan.prefill.parallel.p_tens);
  for (const net::PathEstimate& est : probe.kv_path_estimates) {
    const Time latency =
        (est.fair_share > 0 ? bytes / est.fair_share
                            : std::numeric_limits<Time>::infinity()) +
        est.latency;
    kv_s = std::max(kv_s, latency);
  }

  return raw(queue_s + completion_s + kv_s);
}

double Router::cost(std::size_t id, const ArrivalContext& ctx) const {
  return cost_for(instances_.at(id), ctx.probes.at(id), ctx.request);
}

Time Router::recompute_quote(std::size_t id, std::size_t tokens) const {
  const planner::PlanResult& plan = instances_.at(id).sim->plan();
  // Planned prefill token throughput: mu_pre requests/s of K_in tokens
  // each. The quote is what prefilling the prefix from scratch costs the
  // target — the bar a fabric stream has to beat.
  const double k_in = static_cast<double>(
      std::max<std::size_t>(plan.planned_k_in, 1));
  const Rate mu_pre = std::max(plan.service_rate_prefill, Rate{1e-9});
  return static_cast<double>(tokens) / (raw(mu_pre) * k_in);
}

Time Router::stream_quote(std::size_t from, std::size_t to,
                          std::size_t tokens, Bytes* bytes) const {
  const ClusterSim& src = *instances_.at(from).sim;
  const ClusterSim& dst = *instances_.at(to).sim;
  const auto& sdec = src.decode_gpu_ids();
  const auto& ddec = dst.decode_gpu_ids();
  const Bytes total =
      src.options().model.kv_bytes_per_token() * static_cast<double>(tokens);
  if (bytes) *bytes = total;
  if (sdec.empty() || ddec.empty()) {
    return std::numeric_limits<Time>::infinity();
  }
  // The blocks are sharded over the source's decode GPUs; each shard rides
  // its own flow to the paired destination GPU (planner::kv_pair, the same
  // mapping every KV stream in the simulator uses). The quote is the
  // slowest shard at live admission rates, priced on the static shortest
  // path; FleetSim sends the shards over unicast_path instead.
  const Bytes per_src = total / static_cast<double>(sdec.size());
  Time worst = 0.0;
  for (std::size_t i = 0; i < sdec.size(); ++i) {
    const auto path = routes_.path(
        sdec[i], ddec[planner::kv_pair(i, sdec.size(), ddec.size())]);
    if (!path) return std::numeric_limits<Time>::infinity();
    if (path->edges.empty()) continue;  // same GPU (cannot happen cross-instance)
    const net::PathEstimate est = network_->estimate_path(*path);
    if (est.fair_share <= 0) return std::numeric_limits<Time>::infinity();
    worst = std::max(worst, per_src / est.fair_share + est.latency);
  }
  return worst;
}

RouteDecision Router::route(const ArrivalContext& ctx) {
  HERO_REQUIRE(ctx.probes.size() == instances_.size(),
               "Router::route: context has {} probes for {} instances",
               ctx.probes.size(), instances_.size());
  const std::vector<std::size_t> active = active_ids();
  if (active.empty()) {
    throw std::logic_error("Router::route: no active instances");
  }
  std::size_t pick = active.front();
  switch (config_.policy) {
    case RouterPolicy::kRoundRobin:
      // Rotate over the *current* dispatch set; the rotation counter keeps
      // advancing across membership changes, so dispatch stays even and
      // deterministic as instances come and go.
      pick = active[next_rr_ % active.size()];
      ++next_rr_;
      break;
    case RouterPolicy::kRandom:
      pick = active[static_cast<std::size_t>(
          rng_.uniform_int(active.size()))];
      break;
    case RouterPolicy::kShortestQueue: {
      // In-flight requests; ties break toward the lowest instance id
      // (strict <), so dispatch is reproducible and order-independent.
      std::size_t best = std::numeric_limits<std::size_t>::max();
      for (std::size_t i : active) {
        const std::size_t in_flight = ctx.probes[i].load.in_flight;
        if (in_flight < best) {
          best = in_flight;
          pick = i;
        }
      }
      break;
    }
    case RouterPolicy::kHeroServe: {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t i : active) {
        const double c = cost_for(instances_[i], ctx.probes[i], ctx.request);
        if (c < best) {  // strict: identical costs keep the lowest id
          best = c;
          pick = i;
        }
      }
      break;
    }
  }

  RouteDecision decision;
  decision.instance = pick;

  // Settle the prefix action. The picked instance's own coverage wins
  // outright (free reuse); otherwise a directory holder elsewhere offers a
  // fabric stream, taken only when moving the blocks beats recomputing
  // them at the target's planned prefill rate.
  if (ctx.prefix_tokens > 0) {
    const InstanceProbe& probe = ctx.probes[pick];
    if (probe.prefix_tokens > 0) {
      decision.prefix = PrefixAction::kHit;
      decision.reuse_tokens = probe.prefix_tokens;
    } else if (ctx.prefix_instance != kNoInstance &&
               ctx.prefix_instance != pick) {
      decision.recompute_s = recompute_quote(pick, ctx.prefix_tokens);
      decision.stream_s = stream_quote(ctx.prefix_instance, pick,
                                       ctx.prefix_tokens,
                                       &decision.stream_bytes);
      if (decision.stream_s < decision.recompute_s) {
        decision.prefix = PrefixAction::kStream;
        decision.stream_from = ctx.prefix_instance;
        decision.reuse_tokens = ctx.prefix_tokens;
      } else {
        decision.prefix = PrefixAction::kRecompute;
        decision.stream_bytes = 0.0;
      }
    } else {
      // Nobody holds it (or only the pick "would" but its cache says no):
      // plain cold prefill.
      decision.prefix = PrefixAction::kRecompute;
    }
  }

  ++dispatched_[pick];
  ++dispatched_total_;
  if (obs::MetricsRegistry* m = network_->simulator().metrics()) {
    m->counter("router.dispatched").add(1);
  }
  return decision;
}

}  // namespace hero::serve
