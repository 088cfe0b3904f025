// Baseline communication schedulers (paper SV): DistServe, DS-SwitchML, and
// DS-ATP, all restricted to homogeneous Ethernet paths.
//
//  * DistServe     — NCCL-style flat ring all-reduce over Ethernet; no INA.
//  * DS-SwitchML   — DistServe + synchronous INA: flat aggregation at the
//                    closest programmable switch; jobs queue when the
//                    aggregator pool is exhausted.
//  * DS-ATP        — DistServe + asynchronous INA: best-effort aggregation
//                    with fallback to end-host PS aggregation on slot miss.
//
// All three pick their scheme and routes once at group registration and
// never adapt — the key behavioural difference from HeroServe's online
// scheduler.
#pragma once

#include <vector>

#include "collectives/comm_scheduler.hpp"
#include "netsim/flownet.hpp"

namespace hero::baselines {

enum class BaselineKind : std::uint8_t { kDistServe, kSwitchMl, kAtp };

[[nodiscard]] const char* to_string(BaselineKind kind);

struct BaselineOptions {
  /// PS host for DS-ATP's fallback; auto-discovered (first kServer node)
  /// when left invalid.
  topo::NodeId fallback = topo::kInvalidNode;
  std::uint32_t slots = 8;
};

class StaticCommScheduler final : public coll::CommScheduler {
 public:
  StaticCommScheduler(net::FlowNetwork& network, BaselineKind kind,
                      BaselineOptions opts = {});

  coll::GroupId register_group(std::vector<topo::NodeId> members) override;
  coll::AllReducePlan all_reduce_plan(coll::GroupId group,
                                      Bytes bytes) override;
  topo::Path unicast_path(topo::NodeId src, topo::NodeId dst) override;
  [[nodiscard]] const char* name() const override {
    return to_string(kind_);
  }

  [[nodiscard]] BaselineKind kind() const { return kind_; }
  /// The fixed plan of a registered group (bytes left 0).
  [[nodiscard]] const coll::AllReducePlan& plan(coll::GroupId group) const {
    return plans_.at(group);
  }

 private:
  net::FlowNetwork* network_;
  BaselineKind kind_;
  BaselineOptions opts_;
  topo::Routes routes_;  ///< Ethernet-only
  std::vector<coll::AllReducePlan> plans_;
};

}  // namespace hero::baselines
