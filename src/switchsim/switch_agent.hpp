// Timing/admission model of a programmable switch's aggregation resources,
// plus its control plane.
//
// Where AggregatorPool answers "what value does the data plane compute",
// SwitchAgent answers "when can a collective *use* the switch". Each INA
// all-reduce job reserves a window of aggregator slots for its streaming
// chunks. When the pool is exhausted:
//   * synchronous INA (SwitchML-style) queues the job until slots free up;
//   * asynchronous INA (ATP-style) rejects it, and the caller falls back to
//     end-host (PS) aggregation — the paper's "best-effort" behaviour.
// This is exactly the mechanism by which bursty traffic collapses INA
// throughput in homogeneous deployments (paper SII-C / [22]).
//
// The control-plane face ("central scheduler uniformly allocates and
// recycles aggregator slots", SIV) exposes allocation plus hardware-counter
// polling.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

#include "netsim/sim.hpp"
#include "switchsim/aggregator.hpp"
#include "topology/graph.hpp"

namespace hero::sw {

enum class Admission : std::uint8_t { kGranted, kQueued, kRejected };

class SwitchAgent {
 public:
  SwitchAgent(sim::Simulator& simulator, topo::NodeId node,
              std::uint32_t total_slots);

  SwitchAgent(const SwitchAgent&) = delete;
  SwitchAgent& operator=(const SwitchAgent&) = delete;

  /// Reserve `slots` aggregator slots for a job.
  ///  * kGranted  — slots reserved; on_grant invoked asynchronously (next
  ///                event) so callers get uniform callback ordering.
  ///  * kQueued   — (queue_if_full) job waits; on_grant fires when a
  ///                release makes room. FIFO order.
  ///  * kRejected — (!queue_if_full) pool exhausted; caller must fall back.
  Admission reserve(JobId job, std::uint32_t slots, bool queue_if_full,
                    std::function<void()> on_grant);

  /// Release a job's slots (idempotent); admits queued jobs that now fit.
  void release(JobId job);

  /// Drop a queued (not yet granted) job, e.g. the caller timed out.
  void abandon(JobId job);

  [[nodiscard]] std::uint32_t slots_in_use() const { return in_use_; }
  [[nodiscard]] std::uint32_t slots_total() const { return total_slots_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] topo::NodeId node() const { return node_; }

  // --- hardware counters ---
  std::uint64_t jobs_granted = 0;
  std::uint64_t jobs_queued = 0;
  std::uint64_t jobs_rejected = 0;

 private:
  struct Pending {
    JobId job = 0;
    std::uint32_t slots = 0;
    std::function<void()> on_grant;
  };

  sim::Simulator* sim_;
  topo::NodeId node_;
  std::uint32_t total_slots_;
  std::uint32_t in_use_ = 0;
  std::unordered_map<JobId, std::uint32_t> granted_;
  std::deque<Pending> queue_;

  void admit_from_queue();
  void grant(JobId job, std::uint32_t slots, std::function<void()> on_grant);
};

/// Owns one SwitchAgent per switch node of a topology; lazily constructed.
class SwitchRegistry {
 public:
  SwitchRegistry(sim::Simulator& simulator, const topo::Graph& graph);

  /// Agent for a switch node (throws if `node` is not a switch).
  [[nodiscard]] SwitchAgent& agent(topo::NodeId node);

 private:
  sim::Simulator* sim_;
  const topo::Graph* graph_;
  std::unordered_map<topo::NodeId, std::unique_ptr<SwitchAgent>> agents_;
};

}  // namespace hero::sw
