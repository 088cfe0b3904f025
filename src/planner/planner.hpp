// Scalability-oriented offline planner (paper SIII-C, Algorithms 1 and 2).
//
// Joint optimization of computation allocation (tensor x pipeline
// parallelism and concrete GPU placement for the prefill and decode
// clusters) and communication scheduling (per-group INA-vs-ring selection,
// aggregation switch election, transmission paths), maximizing scalability
// H = 1/T_req subject to the TTFT/TPOT SLAs.
//
// Heuristics as in the paper:
//  * shortest paths / latency matrices from a topo::Routes per planner,
//    solved lazily per source GPU or switch as the search first asks
//    (the paper precomputes them all-pairs, asynchronously);
//  * candidate (P_tens, P_pipe) combinations bounded by the per-GPU memory
//    requirement m_req = R / (P_t * P_p * R_frac), at most `max_candi`;
//  * per-candidate prefill and decode estimation (Alg. 1's
//    `thread process_prefill_cluster` / `thread process_decode_cluster`),
//    run one after the other on independently forked Rngs;
//  * constrained k-means GPU grouping + random-swap perturbation (Alg. 2);
//  * Pollaczek-Khinchine queueing for T_queue.
#pragma once

#include <string>
#include <vector>

#include "collectives/cost_model.hpp"
#include "collectives/engine.hpp"
#include "gpusim/latency_model.hpp"
#include "llm/model.hpp"
#include "planner/grouping.hpp"
#include "planner/queueing.hpp"
#include "topology/paths.hpp"

namespace hero::planner {

struct ParallelConfig {
  std::size_t p_tens = 1;
  std::size_t p_pipe = 1;
  [[nodiscard]] std::size_t gpus() const { return p_tens * p_pipe; }
  bool operator==(const ParallelConfig&) const = default;
};

/// One P_all of Alg. 1: parallelism for both clusters.
struct CandidateConfig {
  ParallelConfig prefill;
  ParallelConfig decode;
  [[nodiscard]] std::size_t gpus() const {
    return prefill.gpus() + decode.gpus();
  }
};

struct PlannerInputs {
  const topo::Graph* graph = nullptr;
  llm::ModelConfig model;
  /// Fitted Eq. 12-13 model (reference GPU: A100-40); per-group times are
  /// scaled by the slowest member's compute ratio.
  const gpu::LatencyModel* latency = nullptr;

  // Workload estimates (Table I, from the WorkloadEstimator).
  std::size_t batch_q = 8;  ///< Q
  std::size_t k_in = 0;     ///< K_in
  std::size_t k_in2 = 0;    ///< K_in2
  std::size_t k_out = 0;    ///< K_out
  Rate arrival_rate = 1.0;  ///< lambda (requests/s)

  Time t_sla_prefill = 2.5;  ///< T_sla^pre (TTFT)
  Time t_sla_decode = 0.15;  ///< T_sla^dec (TPOT)

  double r_frac = 0.8;        ///< usable memory fraction per GPU
  /// Minimum tensor-parallel width. The paper's evaluation deploys
  /// instances whose TP groups span servers (SII-B: large models are
  /// "deployed across multiple GPU servers"; Fig. 1 profiles exactly that
  /// configuration). Setting this above the per-server GPU count mandates
  /// the cross-server regime; 1 leaves placement free.
  std::size_t min_p_tens = 1;
  std::size_t decode_batch_limit = 128;  ///< continuous-batching cap
  std::size_t prefill_token_budget = 16384;  ///< per-iteration token chunk
  std::size_t max_candi = 20; ///< candidate configurations evaluated
  std::size_t perturb_rounds = 5;
  /// Per-cluster GPU caps on candidate generation (0 = unbounded). The
  /// fleet planner uses these to steer an instance toward a smaller
  /// prefill (or decode) footprint when the fleet-aggregate service rates
  /// of the two stages drift apart (Taming-the-Chaos-style ratio control).
  std::size_t max_prefill_gpus = 0;
  std::size_t max_decode_gpus = 0;
  bool heterogeneous = true;  ///< NVLink paths + hierarchical schemes
  std::uint64_t seed = 7;
  coll::CostConfig comm_cost;
};

/// One tensor-parallel group (= one pipeline stage) of a cluster plan.
struct GroupPlan {
  std::vector<topo::NodeId> gpus;  ///< P_tens members
  coll::Scheme scheme = coll::Scheme::kRing;  ///< alpha/beta selection
  topo::NodeId ina_switch = topo::kInvalidNode;  ///< V_ina when INA
  bool hierarchical = false;
  Time step_latency = 0.0;  ///< one TP sync step (Eq. 7)
};

struct ClusterPlan {
  ParallelConfig parallel;
  std::vector<GroupPlan> stages;  ///< size = p_pipe, pipeline order
  Time t_net = 0.0;   ///< T_n for this cluster
  Time t_comp = 0.0;  ///< T_c for this cluster

  [[nodiscard]] std::vector<topo::NodeId> all_gpus() const;
};

/// KV pairing rule: sender `i` of `src` streams its KV shard to receiver
/// `i * dst / src` — prefill GPU to decode GPU within an instance, or
/// decode GPU to decode GPU for a cross-instance prefix stream. The
/// planner's T_f estimate, the router's quotes and every simulated KV flow
/// share this one mapping.
[[nodiscard]] constexpr std::size_t kv_pair(std::size_t i, std::size_t src,
                                            std::size_t dst) {
  return i * dst / src;
}

struct PlanResult {
  bool feasible = false;
  std::string infeasible_reason;

  ClusterPlan prefill;
  ClusterPlan decode;

  Time t_prefill = 0.0;  ///< TTFT estimate (Eq. 3)
  Time t_decode = 0.0;   ///< TPOT estimate (Eq. 4)
  Time t_kv = 0.0;       ///< T_f (Eq. 14)
  Time t_serve = 0.0;
  std::size_t q_decode = 1;   ///< memory-feasible decode concurrency
  Rate service_rate = 0.0;  ///< min(prefill, decode) capacity (req/s)
  /// Per-stage service rates (mu_pre / mu_dec of the capacity model); the
  /// fleet planner balances these across replicated instances.
  Rate service_rate_prefill = 0.0;
  Rate service_rate_decode = 0.0;
  /// The K_in the capacity model was calibrated for; converts a live token
  /// backlog into "equivalent requests" (the fleet router's queue term).
  std::size_t planned_k_in = 0;
  /// The arrival rate (lambda, req/s) this plan was sized for. For fleet
  /// plans this is the PER-INSTANCE rate the fleet planner derived from its
  /// explicit fleet-wide rate — callers read it back instead of re-dividing.
  Rate planned_arrival_rate = 0.0;
  QueueEstimate queue;
  Rate throughput_h = 0.0;  ///< H = 1 / T_req

  // Solver telemetry. The solver itself is deterministic, so its effort is
  // reported in deterministic work units (candidates x perturbation
  // rounds), not wall-clock; benches that want wall time measure around
  // plan() themselves.
  std::size_t candidates_evaluated = 0;
  std::size_t perturbation_swaps = 0;
  std::size_t solve_work_units = 0;  ///< candidates * (1 + perturb rounds)
};

class OfflinePlanner {
 public:
  explicit OfflinePlanner(PlannerInputs inputs);

  /// Algorithm 1 end to end.
  [[nodiscard]] PlanResult plan();

  /// Candidate (P_tens^p, P_pipe^p, P_tens^d, P_pipe^d) generation
  /// (Alg. 1 `gen_tp_pp_candi`), exposed for tests.
  [[nodiscard]] std::vector<CandidateConfig> generate_candidates() const;

 private:
  struct ClusterEstimate {
    bool feasible = false;
    std::string reason;
    ClusterPlan plan;
    std::size_t swaps = 0;
  };

  PlannerInputs in_;
  /// D_(i,j) / P_(k,a) of Alg. 2, routed at the K_in sync-step volume
  /// (at least 64 KiB). Heterogeneous when inputs.heterogeneous,
  /// Ethernet-only plus direct NVLink otherwise.
  topo::Routes routes_;
  /// Same constraints at the 1 MiB reference the aggregation-switch
  /// elections rank by (a route-quality ranking, not a volume estimate);
  /// shared by every election score_group() runs.
  topo::Routes election_routes_;
  /// NVLink bandwidth of score_group()'s hierarchical local phase.
  Bandwidth nvlink_bw_;

  /// `q_dec` sizes the decode cluster's batch-dependent terms (context
  /// tokens and sync volumes); ignored for prefill.
  [[nodiscard]] ClusterEstimate estimate_cluster(
      bool is_prefill, ParallelConfig parallel,
      const std::vector<topo::NodeId>& pool, Rng& rng,
      std::size_t q_dec = 1) const;

  [[nodiscard]] Time kv_transfer_latency(const ClusterPlan& prefill,
                                         const ClusterPlan& decode) const;

  /// Sync-step latency of a candidate group + its scheme choice
  /// (Alg. 2 `getlatency`): min of ring and INA estimates.
  [[nodiscard]] GroupPlan score_group(const std::vector<topo::NodeId>& gpus,
                                      Bytes step_volume) const;

  [[nodiscard]] double compute_scale(
      const std::vector<topo::NodeId>& gpus) const;
};

/// Pool split for a candidate: prefill prefers compute-strong servers, the
/// decode cluster takes the rest (paper SIII-B: prefill is compute-bound,
/// decode memory-bound). Returns {prefill_pool, decode_pool}; pools contain
/// only GPUs with memory_free >= m_req for the respective cluster.
struct PoolSplit {
  std::vector<topo::NodeId> prefill;
  std::vector<topo::NodeId> decode;
};

[[nodiscard]] PoolSplit split_pools(const topo::Graph& graph,
                                    Bytes m_req_prefill, Bytes m_req_decode,
                                    std::size_t prefill_count,
                                    std::size_t decode_count);

}  // namespace hero::planner
