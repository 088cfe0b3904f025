// Deterministic fault injector: replays a FaultPlan against a live
// simulation.
//
// Every fault is an ordinary simulator event, so chaos runs are as
// reproducible as clean ones — same plan, same seed, same trace bytes.
// The injector drives four failure domains:
//   * network  — FlowNetwork::set_link_degradation (degrade + flap);
//   * switches — SwitchAgent slot seizures (tenant pressure) and queued
//                whole-pool reservations (control-plane restart drain);
//   * GPUs     — a compute-time multiplier exposed through compute_scale(),
//                wired into ClusterSim via ServingOptions::compute_scale;
//   * control  — OnlineScheduler::set_sync_disruption (sync delay / loss).
// When an OnlineScheduler is attached, link faults additionally push
// cost overrides + an Eq. 18 penalty refresh so the Eq. 16 selection reacts
// immediately instead of waiting for the next controller tick.
//
// Every injection and recovery emits a "faults" trace instant and bumps
// faults.injected / faults.recovered counters.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "faults/fault_plan.hpp"
#include "netsim/flownet.hpp"
#include "switchsim/switch_agent.hpp"

namespace hero::online {
class OnlineScheduler;
}  // namespace hero::online

namespace hero::faults {

/// Slot-seizure job ids live far above the collective engine's op-id space
/// (engine ids count up from 1) so fault reservations never collide.
inline constexpr sw::JobId kFaultJobBase = sw::JobId{1} << 62;

class FaultInjector {
 public:
  /// Optional reaction hooks; the network is always required.
  struct Hooks {
    sw::SwitchRegistry* switches = nullptr;     ///< slot/restart faults
    online::OnlineScheduler* online = nullptr;  ///< adaptive reaction
  };

  FaultInjector(net::FlowNetwork& network, FaultPlan plan, Hooks hooks);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Validate the plan (validate(), check_targets() against the network's
  /// topology; both throw std::invalid_argument) and schedule every event
  /// on the simulator (call once, before running the workload).
  void arm();

  /// Current compute-time multiplier for a GPU (>= 1; strongest active
  /// straggler wins). Plug into ServingOptions::compute_scale.
  [[nodiscard]] double compute_scale(topo::NodeId gpu) const;

  [[nodiscard]] std::uint64_t injected() const { return injected_; }
  [[nodiscard]] std::uint64_t recovered() const { return recovered_; }

 private:
  net::FlowNetwork* network_;
  FaultPlan plan_;
  Hooks hooks_;
  bool armed_ = false;
  std::uint64_t injected_ = 0;
  std::uint64_t recovered_ = 0;
  sw::JobId next_job_ = kFaultJobBase;
  /// Active straggler multipliers per GPU (a GPU can be hit by overlapping
  /// events; ordered map keeps iteration deterministic).
  std::map<topo::NodeId, std::vector<double>> gpu_scales_;
  Time sync_delay_ = 0.0;
  std::uint32_t sync_drops_ = 0;

  [[nodiscard]] sim::Simulator& simulator() const {
    return network_->simulator();
  }
  /// One link_flap event's cycles, chained on the calendar: only the next
  /// cycle's inject/recover pair is ever pending.
  struct FlapChain {
    std::size_t event = 0;                   ///< index into plan_.events
    topo::EdgeId edge = topo::kInvalidEdge;
    Time armed_at = 0.0;                     ///< simulator time at arm()
    Time down = 0.0;                         ///< degraded part of a cycle
    std::uint64_t first_key = 0;             ///< cycle 0's inject key
  };
  std::vector<FlapChain> flaps_;

  void schedule(std::size_t index);
  /// Put cycle `k` of flaps_[chain] on the calendar under its keys.
  void schedule_flap_cycle(std::size_t chain, std::uint32_t k);
  /// Cycle `k`'s inject: chain cycle k + 1, then degrade the link.
  void flap_cycle(std::size_t chain, std::uint32_t k);

  void inject_link(const FaultEvent& ev, topo::EdgeId edge);
  void recover_link(const FaultEvent& ev, topo::EdgeId edge);
  void inject_slots(const FaultEvent& ev, topo::NodeId node);
  void inject_restart(const FaultEvent& ev, topo::NodeId node);
  void inject_gpu(const FaultEvent& ev, topo::NodeId node);
  void recover_gpu(const FaultEvent& ev, topo::NodeId node);
  void inject_sync(const FaultEvent& ev);
  void recover_sync(const FaultEvent& ev);

  /// Push the link fault into the online scheduler's cost tables (Eq. 16
  /// reacts immediately; the next controller tick re-syncs from
  /// measurements as usual).
  void notify_scheduler_link(topo::EdgeId edge, double factor);
  /// Same immediate reaction for switch faults: surcharge every INA policy
  /// aggregating on `node` so no collective queues behind the seized pool
  /// during the window before the next controller tick.
  void notify_scheduler_switch(topo::NodeId node);
  void emit(const FaultEvent& ev, const char* phase, double value);
};

}  // namespace hero::faults
