#include "planner/planner.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "gpusim/gpu_spec.hpp"

namespace hero::planner {
namespace {

constexpr std::size_t kTensorWidths[] = {1, 2, 4, 8, 16};
constexpr std::size_t kPipeDepths[] = {1, 2, 3, 4, 6, 8};

PlannerInputs checked(PlannerInputs in) {
  if (in.graph == nullptr || in.latency == nullptr) {
    throw std::invalid_argument("OfflinePlanner: graph/latency required");
  }
  return in;
}

topo::PathOptions path_options(const PlannerInputs& in, Bytes ref_bytes) {
  // Homogeneous planning still sees direct intra-server NVLink edges (NCCL
  // uses them unconditionally); only multi-hop NVLink forwarding is
  // HeroServe-exclusive.
  return topo::PathOptions{
      ref_bytes, topo::PathConstraints{in.heterogeneous,
                                       /*allow_nvlink_direct=*/
                                       !in.heterogeneous}};
}

/// Reference GPU for the fitted latency model.
const gpu::GpuSpec& reference_spec() {
  static const gpu::GpuSpec ref = gpu::spec_of(topo::GpuModel::kA100_40);
  return ref;
}

/// NVLink bandwidth of the hierarchical local phase: the first NVLink edge's
/// capacity, 600 GB/s when the graph has none.
Bandwidth first_nvlink_bandwidth(const topo::Graph& g) {
  for (topo::EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.edge(e).kind == topo::LinkKind::kNvLink) return g.edge(e).capacity;
  }
  return 600.0 * units::GBps;
}

}  // namespace

std::vector<topo::NodeId> ClusterPlan::all_gpus() const {
  std::vector<topo::NodeId> out;
  for (const GroupPlan& g : stages) {
    out.insert(out.end(), g.gpus.begin(), g.gpus.end());
  }
  return out;
}

PoolSplit split_pools(const topo::Graph& graph, Bytes m_req_prefill,
                      Bytes m_req_decode, std::size_t prefill_count,
                      std::size_t decode_count) {
  // Order servers by compute strength (prefill is compute-bound and wants
  // the strongest GPUs; decode takes the opposite end).
  struct ServerScore {
    std::int32_t server = -1;
    WorkRate flops = 0.0;
  };
  const auto by_server = graph.gpus_by_server();
  std::vector<ServerScore> servers;
  for (std::size_t s = 0; s < by_server.size(); ++s) {
    if (by_server[s].empty()) continue;
    WorkRate flops = 0.0;
    for (topo::NodeId g : by_server[s]) {
      flops = std::max(flops, gpu::spec_of(graph.node(g).gpu.model).flops());
    }
    servers.push_back({static_cast<std::int32_t>(s), flops});
  }
  std::stable_sort(servers.begin(), servers.end(),
                   [](const ServerScore& a, const ServerScore& b) {
                     return a.flops > b.flops;
                   });

  PoolSplit split;
  std::vector<bool> claimed(graph.node_count(), false);
  // Prefill: strongest servers first.
  for (const ServerScore& s : servers) {
    for (topo::NodeId g : by_server[static_cast<std::size_t>(s.server)]) {
      if (split.prefill.size() >= prefill_count) break;
      if (graph.node(g).gpu.memory_free >= m_req_prefill) {
        split.prefill.push_back(g);
        claimed[g] = true;
      }
    }
  }
  // Decode: weakest-compute servers first, skipping claimed GPUs.
  for (auto it = servers.rbegin(); it != servers.rend(); ++it) {
    for (topo::NodeId g : by_server[static_cast<std::size_t>(it->server)]) {
      if (split.decode.size() >= decode_count) break;
      if (!claimed[g] && graph.node(g).gpu.memory_free >= m_req_decode) {
        split.decode.push_back(g);
        claimed[g] = true;
      }
    }
  }
  return split;
}

OfflinePlanner::OfflinePlanner(PlannerInputs inputs)
    : in_(checked(std::move(inputs))),
      routes_(*in_.graph,
              path_options(in_, std::max<Bytes>(
                                    in_.model.sync_volume_per_step(
                                        std::max<std::size_t>(in_.k_in, 1)),
                                    64.0 * units::KiB))),
      election_routes_(*in_.graph, path_options(in_, 1.0 * units::MiB)),
      nvlink_bw_(first_nvlink_bandwidth(*in_.graph)) {}

std::vector<CandidateConfig> OfflinePlanner::generate_candidates() const {
  const Bytes model_bytes = in_.model.param_bytes();
  const auto gpus = in_.graph->gpus();

  // Per-cluster feasible (P_tens, P_pipe) combos, bounded by the number of
  // GPUs whose free memory covers m_req = R / (P_t * P_p * R_frac).
  std::vector<ParallelConfig> combos;
  for (std::size_t pt : kTensorWidths) {
    if (pt > in_.model.heads) continue;
    if (pt < in_.min_p_tens) continue;
    for (std::size_t pp : kPipeDepths) {
      if (pp > in_.model.layers) continue;
      const Bytes m_req =
          model_bytes / (static_cast<double>(pt * pp) * in_.r_frac);
      std::size_t eligible = 0;
      for (topo::NodeId g : gpus) {
        if (in_.graph->node(g).gpu.memory_free >= m_req) ++eligible;
      }
      if (eligible >= pt * pp) combos.push_back({pt, pp});
    }
  }
  std::sort(combos.begin(), combos.end(),
            [](const ParallelConfig& a, const ParallelConfig& b) {
              if (a.gpus() != b.gpus()) return a.gpus() < b.gpus();
              return a.p_pipe < b.p_pipe;
            });

  std::vector<CandidateConfig> candidates;
  for (const ParallelConfig& pre : combos) {
    if (in_.max_prefill_gpus > 0 && pre.gpus() > in_.max_prefill_gpus) {
      continue;
    }
    for (const ParallelConfig& dec : combos) {
      if (in_.max_decode_gpus > 0 && dec.gpus() > in_.max_decode_gpus) {
        continue;
      }
      if (pre.gpus() + dec.gpus() <= gpus.size()) {
        candidates.push_back({pre, dec});
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const CandidateConfig& a, const CandidateConfig& b) {
              return a.gpus() < b.gpus();
            });
  if (candidates.size() > in_.max_candi) candidates.resize(in_.max_candi);
  return candidates;
}

double OfflinePlanner::compute_scale(
    const std::vector<topo::NodeId>& gpus) const {
  // The fitted model profiles the reference GPU; a mixed group runs at the
  // pace of its slowest member.
  double worst = 1.0;
  for (topo::NodeId g : gpus) {
    const gpu::GpuSpec spec = gpu::spec_of(in_.graph->node(g).gpu.model);
    const double flops_ratio = reference_spec().flops() / spec.flops();
    const double mem_ratio = reference_spec().mem_bw() / spec.mem_bw();
    worst = std::max({worst, flops_ratio, mem_ratio});
  }
  return worst;
}

GroupPlan OfflinePlanner::score_group(const std::vector<topo::NodeId>& gpus,
                                      Bytes step_volume) const {
  GroupPlan plan;
  plan.gpus = gpus;
  if (gpus.size() <= 1) {
    plan.step_latency = 0.0;
    return plan;
  }
  const topo::Graph& g = *in_.graph;

  // Order members so intra-server neighbours sit adjacent on the ring.
  std::vector<topo::NodeId> ordered = gpus;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](topo::NodeId a, topo::NodeId b) {
                     return g.node(a).gpu.server < g.node(b).gpu.server;
                   });

  // Heterogeneous mode splits the group into its NVLink domains: the
  // leaders run the wide ring and every member streams its 1/g shard in the
  // sharded INA wide phase (see make_hierarchical_plan). Homogeneous mode
  // runs both flat, one group per GPU.
  std::vector<std::vector<topo::NodeId>> domains;
  if (in_.heterogeneous) {
    domains = g.split_by_server(ordered);
  } else {
    for (topo::NodeId m : ordered) domains.push_back({m});
  }
  std::vector<topo::NodeId> wide;
  wide.reserve(domains.size());
  for (const auto& domain : domains) wide.push_back(domain.front());

  // Ring option.
  Time t_ring = coll::ring_all_reduce_latency_on_routes(routes_, wide,
                                                        step_volume);
  if (in_.heterogeneous) {
    t_ring = coll::hierarchical_latency(step_volume, domains, nvlink_bw_,
                                        t_ring);
  }

  // INA option: elect the nearest switch with aggregator slots (Alg. 2:
  // "Find V_s with the smallest delay to the group while meeting memory
  // constraints").
  Time t_ina = std::numeric_limits<Time>::infinity();
  topo::NodeId best_switch = topo::kInvalidNode;
  const auto switches =
      coll::rank_aggregation_switches(election_routes_, wide, 1);
  if (!switches.empty()) {
    best_switch = switches.front();
    t_ina = coll::ina_all_reduce_latency_on_routes(
        routes_, domains, best_switch, step_volume, in_.comm_cost);
    if (in_.heterogeneous) {
      t_ina = coll::hierarchical_latency(step_volume, domains, nvlink_bw_,
                                         t_ina);
    }
  }

  // Alg. 2 `getlatency`: beta (ring) when T_ina > T_ring, alpha otherwise.
  plan.hierarchical = in_.heterogeneous;
  if (t_ina > t_ring) {
    plan.scheme = coll::Scheme::kRing;
    plan.step_latency = t_ring;
  } else {
    plan.scheme = coll::Scheme::kInaSync;
    plan.ina_switch = best_switch;
    plan.step_latency = t_ina;
  }
  plan.gpus = std::move(ordered);
  return plan;
}

OfflinePlanner::ClusterEstimate OfflinePlanner::estimate_cluster(
    bool is_prefill, ParallelConfig parallel,
    const std::vector<topo::NodeId>& pool, Rng& rng,
    std::size_t q_dec) const {
  ClusterEstimate est;
  est.plan.parallel = parallel;
  if (pool.size() < parallel.gpus()) {
    est.reason = "not enough eligible GPUs";
    return est;
  }
  std::vector<topo::NodeId> chosen(pool.begin(),
                                   pool.begin() +
                                       static_cast<std::ptrdiff_t>(
                                           parallel.gpus()));

  // Sync-step payload: K_in tokens for prefill (clamped to the serving
  // layer's per-iteration token budget — continuous batching chunks larger
  // backlogs), the decoding batch's q_dec tokens for decode (SIII-C2).
  q_dec = std::max<std::size_t>(q_dec, 1);
  const std::size_t k_in_eff = std::max<std::size_t>(
      std::min(in_.k_in, in_.prefill_token_budget), 1);
  const Bytes step_volume =
      is_prefill ? in_.model.sync_volume_per_step(k_in_eff)
                 : in_.model.sync_volume_per_step(q_dec);

  // Latency matrix D_(i,j) restricted to the chosen GPUs.
  std::vector<Time> matrix_data(chosen.size() * chosen.size(), 0.0);
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    for (std::size_t j = 0; j < chosen.size(); ++j) {
      matrix_data[i * chosen.size() + j] =
          i == j ? 0.0 : routes_.latency(chosen[i], chosen[j], step_volume);
    }
  }
  const LatencyMatrix matrix(chosen, std::move(matrix_data));

  auto groups = constrained_kmeans(matrix, parallel.p_pipe, parallel.p_tens,
                                   rng);

  auto group_cost = [&](const std::vector<std::size_t>& idx) -> Time {
    std::vector<topo::NodeId> members;
    members.reserve(idx.size());
    for (std::size_t i : idx) members.push_back(matrix.gpu(i));
    return score_group(members, step_volume).step_latency;
  };
  est.swaps = perturb_groups(groups, group_cost, rng, in_.perturb_rounds);

  // Final stage plans.
  const std::size_t stage_layers =
      (in_.model.layers + parallel.p_pipe - 1) / parallel.p_pipe;
  est.plan.stages.reserve(groups.size());
  Time sync_sum = 0.0, sync_max = 0.0;
  for (const auto& idx : groups) {
    std::vector<topo::NodeId> members;
    members.reserve(idx.size());
    for (std::size_t i : idx) members.push_back(matrix.gpu(i));
    GroupPlan gp = score_group(members, step_volume);
    const Time stage_sync = 2.0 * static_cast<double>(stage_layers) *
                            gp.step_latency;
    sync_sum += stage_sync;
    sync_max = std::max(sync_max, stage_sync);
    est.plan.stages.push_back(std::move(gp));
  }

  // Inter-stage pipeline transfers (Eq. 6): activation of step_volume bytes
  // from the best sender of stage i to the worst receiver of stage i+1.
  Time t_pp_sum = 0.0, t_pp_max = 0.0;
  for (std::size_t s = 0; s + 1 < est.plan.stages.size(); ++s) {
    Time best_sender = std::numeric_limits<Time>::infinity();
    for (topo::NodeId a : est.plan.stages[s].gpus) {
      Time worst_receiver = 0.0;
      for (topo::NodeId k : est.plan.stages[s + 1].gpus) {
        worst_receiver =
            std::max(worst_receiver, routes_.latency(a, k, step_volume));
      }
      best_sender = std::min(best_sender, worst_receiver);
    }
    t_pp_sum += best_sender;
    t_pp_max = std::max(t_pp_max, best_sender);
  }

  const double scale = compute_scale(chosen);
  if (is_prefill) {
    // TTFT traverses the full pipeline: total sync + total transfers.
    const double clamp_ratio =
        static_cast<double>(k_in_eff) /
        static_cast<double>(std::max<std::size_t>(in_.k_in, 1));
    const std::size_t k_in2_eff = static_cast<std::size_t>(
        static_cast<double>(in_.k_in2) * clamp_ratio);
    est.plan.t_net = sync_sum + t_pp_sum;
    est.plan.t_comp = in_.latency->prefill(k_in_eff, k_in2_eff,
                                           in_.model.layers,
                                           parallel.p_tens) *
                      scale;
  } else {
    // Steady-state TPOT is set by the slowest pipeline stage. The decode
    // batch carries q_dec requests whose average context is
    // (K_in + K_out/2) / Q tokens each.
    const double per_req_ctx =
        (static_cast<double>(in_.k_in) +
         static_cast<double>(in_.k_out) / 2.0) /
        static_cast<double>(std::max<std::size_t>(in_.batch_q, 1));
    const std::size_t k_ctx = static_cast<std::size_t>(
        per_req_ctx * static_cast<double>(q_dec));
    est.plan.t_net = sync_max + t_pp_max;
    est.plan.t_comp =
        in_.latency->decode(k_ctx, stage_layers, parallel.p_tens) * scale;
  }
  est.feasible = true;
  return est;
}

Time OfflinePlanner::kv_transfer_latency(const ClusterPlan& prefill,
                                         const ClusterPlan& decode) const {
  // KV caches stream to the decode twins concurrently with prefill (as in
  // DistServe-style disaggregation and our serving simulator). The latency
  // that matters is the *exposed tail*: how much of the full batch transfer
  // (Eq. 14-15's max over prefill/decode pairs) outlasts the prefill
  // iteration it overlaps with.
  const auto pre = prefill.all_gpus();
  const auto dec = decode.all_gpus();
  if (pre.empty() || dec.empty()) return 0.0;
  const Bytes volume = in_.model.kv_transfer_bytes_per_gpu(
      std::min(in_.k_in, in_.prefill_token_budget),
      prefill.parallel.p_tens);
  Time worst = 0.0;
  for (std::size_t i = 0; i < pre.size(); ++i) {
    const std::size_t j = kv_pair(i, pre.size(), dec.size());
    // KV streams are pipelined RDMA flows: end-to-end bottleneck rate, not
    // per-hop store-and-forward.
    const topo::Path path = routes_.path(pre[i], dec[j]).value();
    const Bandwidth bw = path.bottleneck(*in_.graph);
    Time latency = bw > 0 ? volume / bw : 0.0;
    for (topo::EdgeId e : path.edges) latency += in_.graph->edge(e).latency;
    worst = std::max(worst, latency);
  }
  const Time prefill_span = prefill.t_net + prefill.t_comp;
  return std::max(Time{0.0}, worst - prefill_span);
}

PlanResult OfflinePlanner::plan() {
  PlanResult best;
  best.infeasible_reason = "no candidate evaluated";
  best.planned_arrival_rate = in_.arrival_rate;
  const Bytes model_bytes = in_.model.param_bytes();
  Rng rng(in_.seed);

  const auto candidates = generate_candidates();
  Rate max_h = 0.0;
  for (const CandidateConfig& cand : candidates) {
    ++best.candidates_evaluated;
    const Bytes m_req_pre =
        model_bytes /
        (static_cast<double>(cand.prefill.gpus()) * in_.r_frac);
    const Bytes m_req_dec =
        model_bytes / (static_cast<double>(cand.decode.gpus()) * in_.r_frac);
    const PoolSplit pools = split_pools(*in_.graph, m_req_pre, m_req_dec,
                                        cand.prefill.gpus(),
                                        cand.decode.gpus());

    // Memory-feasible decode concurrency: how many requests' full KV
    // sequences the decode cluster can hold next to the weight shards.
    const double per_req_tokens =
        (static_cast<double>(in_.k_in) + static_cast<double>(in_.k_out)) /
        static_cast<double>(std::max<std::size_t>(in_.batch_q, 1));
    const Bytes kv_per_req =
        in_.model.kv_bytes_per_token() * std::max(per_req_tokens, 1.0);
    Bytes kv_budget = 0.0;
    const Bytes weights_per_gpu =
        model_bytes / static_cast<double>(cand.decode.gpus());
    for (std::size_t i = 0;
         i < cand.decode.gpus() && i < pools.decode.size(); ++i) {
      kv_budget += std::max(Bytes{0.0}, in_.graph->node(pools.decode[i])
                                                .gpu.memory_free -
                                            weights_per_gpu);
    }
    const std::size_t q_mem_cap = static_cast<std::size_t>(
        std::max(1.0, kv_budget / kv_per_req));
    const std::size_t q_cap =
        std::min(q_mem_cap, in_.decode_batch_limit);

    // Alg. 1 estimates the prefill and decode clusters as two independent
    // threads; each estimate here draws from its own forked Rng, so running
    // them in sequence gives the same plan. The decode estimate additionally
    // searches the largest TPOT-feasible batch (descending powers of two
    // from the memory cap).
    Rng pre_rng = rng.fork();
    Rng dec_rng = rng.fork();
    const ClusterEstimate pre_est =
        estimate_cluster(true, cand.prefill, pools.prefill, pre_rng);
    ClusterEstimate dec_est;
    std::size_t q_dec = 1;
    std::size_t q = 1;
    while (q * 2 <= q_cap) q *= 2;
    for (;; q /= 2) {
      dec_est =
          estimate_cluster(false, cand.decode, pools.decode, dec_rng, q);
      if (!dec_est.feasible) break;
      if (dec_est.plan.t_net + dec_est.plan.t_comp <= in_.t_sla_decode ||
          q == 1) {
        q_dec = q;
        break;
      }
    }
    if (!pre_est.feasible || !dec_est.feasible) {
      if (best.infeasible_reason == "no candidate evaluated") {
        best.infeasible_reason =
            !pre_est.feasible ? "prefill: " + pre_est.reason
                              : "decode: " + dec_est.reason;
      }
      continue;
    }
    best.perturbation_swaps += pre_est.swaps + dec_est.swaps;

    const Time t_kv = kv_transfer_latency(pre_est.plan, dec_est.plan);
    const Time t_pre = pre_est.plan.t_net + pre_est.plan.t_comp;  // Eq. 3
    const Time t_dec =
        dec_est.plan.t_net + dec_est.plan.t_comp + t_kv;  // Eq. 4

    if (t_pre > in_.t_sla_prefill || t_dec > in_.t_sla_decode) {
      if (best.infeasible_reason == "no candidate evaluated" ||
          !best.feasible) {
        best.infeasible_reason = t_pre > in_.t_sla_prefill
                                     ? "TTFT SLA violated"
                                     : "TPOT SLA violated";
      }
      continue;
    }

    // Capacity model for the queueing estimate: the prefill pipeline
    // completes Q requests per T_pre; the decode pipeline completes q_dec
    // concurrent requests every (K_out/Q) decode steps. The slower side is
    // the system's service rate.
    const double out_per_req =
        static_cast<double>(std::max<std::size_t>(in_.k_out, 1)) /
        static_cast<double>(std::max<std::size_t>(in_.batch_q, 1));
    const Time t_dec_step = dec_est.plan.t_net + dec_est.plan.t_comp;
    const double prefill_clamp =
        std::min(1.0, static_cast<double>(in_.prefill_token_budget) /
                          static_cast<double>(
                              std::max<std::size_t>(in_.k_in, 1)));
    const Rate mu_pre =
        prefill_clamp *
        static_cast<double>(std::max<std::size_t>(in_.batch_q, 1)) /
        std::max(t_pre, Time{1e-9});
    const Rate mu_dec = static_cast<double>(q_dec) /
                        std::max(out_per_req * t_dec_step, Time{1e-9});
    const Rate mu = std::min(mu_pre, mu_dec);
    const QueueEstimate queue =
        pollaczek_khinchine(in_.arrival_rate, 1.0 / mu);
    const Time t_serve = t_pre + t_kv + out_per_req * t_dec_step;
    // Ranking: stable candidates by H = 1/T_req (Eq. 1); a stable candidate
    // always beats an unstable one. When the offered load exceeds every
    // candidate's capacity, the planner still deploys the highest-capacity
    // SLA-feasible configuration and the serving run shows the SLA misses.
    const Time t_req = queue.stable ? queue.queue_delay + t_serve
                                    : std::numeric_limits<Time>::infinity();
    const bool best_is_stable = best.feasible && best.queue.stable;
    Rate h = 0.0;
    bool better = false;
    if (queue.stable) {
      h = 1.0 / t_req;
      better = !best_is_stable || h > max_h;
    } else {
      h = 0.0;
      better = !best.feasible || (!best_is_stable && mu > best.service_rate);
    }
    if (better) {
      max_h = h;
      best.feasible = true;
      best.infeasible_reason.clear();
      best.prefill = pre_est.plan;
      best.decode = dec_est.plan;
      best.t_prefill = t_pre;
      best.t_decode = t_dec;
      best.t_kv = t_kv;
      best.t_serve = t_serve;
      best.q_decode = q_dec;
      best.service_rate = mu;
      best.service_rate_prefill = mu_pre;
      best.service_rate_decode = mu_dec;
      best.planned_k_in = in_.k_in;
      best.queue = queue;
      best.throughput_h = h;
    }
  }

  // Deterministic effort metric: every candidate runs the k-means grouping
  // once plus perturb_rounds random-swap rounds, for both clusters.
  best.solve_work_units =
      best.candidates_evaluated * 2 * (1 + in_.perturb_rounds);
  return best;
}

}  // namespace hero::planner
