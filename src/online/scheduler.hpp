// Load-aware online scheduler (paper SIII-D) and HeroServe's CommScheduler.
//
// Per registered GPU group the scheduler holds a PolicyTable. On every
// collective call it selects the cheapest policy (Eq. 16), applies the
// Eq. 17 cost propagation (optionally after a controller propagation
// delay), and returns the executable plan. A periodic controller task —
// the simulated central HeroServe controller polling switch hardware
// counters and DCGM — recalibrates policy costs from measured link
// utilization and refreshes the Eq. 18 penalty matrix.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "collectives/comm_scheduler.hpp"
#include "online/policy.hpp"

namespace hero::online {

using GroupId = coll::GroupId;

/// Options controlling what candidate policies a group's table is populated
/// with. The ring policy is always included; INA policies use synchronous
/// aggregation.
struct PolicyBuildOptions {
  bool heterogeneous = true;  ///< NVLink paths + hierarchical plans
  bool include_ina = true;
  std::size_t switch_candidates = 2;  ///< INA switches considered per group
};

/// Build the candidate policy set for one GPU group. `routes` supplies
/// every path; it must allow NVLink forwarding iff opts.heterogeneous
/// (throws std::invalid_argument otherwise, or on an empty group).
[[nodiscard]] std::vector<Policy> build_policies(
    const topo::Routes& routes, const std::vector<topo::NodeId>& members,
    const PolicyBuildOptions& opts);

class OnlineScheduler {
 public:
  OnlineScheduler(net::FlowNetwork& network, OnlineConfig config = {});

  /// Register a group with an explicit policy set.
  GroupId register_group(std::string name, std::vector<Policy> policies);

  /// Begin the periodic controller sync loop (idempotent).
  void start();

  /// Select (Eq. 16) + update costs (Eq. 17) + return the resolved plan.
  [[nodiscard]] coll::AllReducePlan plan_all_reduce(GroupId group,
                                                    Bytes bytes);

  /// Read-only view of a group's policy cost table. Mutation goes through
  /// the named methods below so observers (tests, the obs layer, demos)
  /// cannot silently corrupt the Eq. 17 cost state.
  [[nodiscard]] const PolicyTable& table(GroupId group) const;
  [[nodiscard]] std::size_t group_count() const { return tables_.size(); }
  [[nodiscard]] const OnlineConfig& config() const { return config_; }

  /// Overwrite one policy's measured cost b_c, as if the controller had
  /// calibrated it to `cost`. The supported way for tests and the fault
  /// injector to skew the Eq. 16 selection out of band; the next controller
  /// tick re-syncs from network measurements as usual.
  void apply_cost_override(GroupId group, std::size_t policy, double cost);

  /// Re-run the Eq. 18 penalty refresh for every group immediately (the
  /// fault injector calls this when link state changes between controller
  /// ticks; a tick would do the same work at the next sync period).
  void recompute_penalties();

  /// Opt into switch slot-pool health feedback: on every controller tick an
  /// INA policy whose aggregation switch has no free slots (or a backed-up
  /// admission queue) is surcharged `kInaUnavailablePenalty`
  /// on top of its measured cost, steering Eq. 16 toward ring until the
  /// pool recovers. Null detaches. Off by default so clean runs are
  /// byte-identical with pre-chaos behaviour.
  void attach_switches(sw::SwitchRegistry* switches);

  /// Fault injection on the controller sync channel itself. `extra_delay`
  /// postpones each tick's table recalibration (slow counter propagation);
  /// `drop_sync` makes ticks fail entirely — the scheduler then retries
  /// with exponential backoff (sync_period * 2^k, capped) until the channel
  /// recovers, serving from stale costs meanwhile.
  void set_sync_disruption(Time extra_delay, bool drop_sync);

  [[nodiscard]] std::uint64_t controller_ticks() const {
    return controller_ticks_;
  }
  /// Ticks that failed while the sync channel was down.
  [[nodiscard]] std::uint64_t missed_syncs() const { return missed_syncs_; }

 private:
  net::FlowNetwork* network_;
  OnlineConfig config_;
  sw::SwitchRegistry* switches_ = nullptr;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<PolicyTable>> tables_;
  /// Per (group, policy): whether the switch-health surcharge applied at
  /// the last tick (drives the avoid/resume transition instants).
  std::vector<std::vector<bool>> ina_avoided_;
  bool started_ = false;
  std::uint64_t controller_ticks_ = 0;
  std::uint64_t missed_syncs_ = 0;
  std::uint32_t sync_backoff_ = 0;
  Time sync_extra_delay_ = 0.0;
  bool sync_dropped_ = false;

  void controller_tick();
  void run_sync();
  void apply_switch_health(GroupId group);
};

/// HeroServe's CommScheduler: hierarchical/heterogeneous policies driven by
/// the online scheduler; load-aware alternate routing for unicast. One
/// Routes serves every policy build, switch election and unicast query.
class HeroCommScheduler final : public coll::CommScheduler {
 public:
  HeroCommScheduler(net::FlowNetwork& network, OnlineConfig config = {},
                    PolicyBuildOptions build = {});

  GroupId register_group(std::vector<topo::NodeId> members) override;
  coll::AllReducePlan all_reduce_plan(GroupId group, Bytes bytes) override;
  topo::Path unicast_path(topo::NodeId src, topo::NodeId dst) override;
  void start() override { online_.start(); }
  [[nodiscard]] const char* name() const override { return "HeroServe"; }

  [[nodiscard]] OnlineScheduler& online() { return online_; }

  /// Prefix applied to subsequently registered group names ("i3." gives
  /// "i3.group7"). The fleet experiment sets this per instance so one
  /// shared scheduler keeps per-instance policy tables tellable apart in
  /// traces and metrics.
  void set_group_prefix(std::string prefix) {
    group_prefix_ = std::move(prefix);
  }

 private:
  net::FlowNetwork* network_;
  PolicyBuildOptions build_;
  topo::Routes routes_;
  std::string group_prefix_;
  OnlineScheduler online_;
};

}  // namespace hero::online
