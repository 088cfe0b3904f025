#include "switchsim/switch_agent.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "common/check.hpp"

namespace hero::sw {

SwitchAgent::SwitchAgent(sim::Simulator& simulator, topo::NodeId node,
                         std::uint32_t total_slots)
    : sim_(&simulator), node_(node), total_slots_(total_slots) {}

Admission SwitchAgent::reserve(JobId job, std::uint32_t slots,
                               bool queue_if_full,
                               std::function<void()> on_grant) {
  if (slots == 0) throw std::invalid_argument("reserve: slots == 0");
  slots = std::min(slots, total_slots_);
  if (granted_.contains(job)) {
    throw std::logic_error("reserve: job already holds slots");
  }
  if (in_use_ + slots <= total_slots_ && queue_.empty()) {
    grant(job, slots, std::move(on_grant));
    ++jobs_granted;
    return Admission::kGranted;
  }
  if (queue_if_full) {
    queue_.push_back(Pending{job, slots, std::move(on_grant)});
    ++jobs_queued;
    return Admission::kQueued;
  }
  ++jobs_rejected;
  return Admission::kRejected;
}

void SwitchAgent::grant(JobId job, std::uint32_t slots,
                        std::function<void()> on_grant) {
  in_use_ += slots;
  // Slot refcount: grants must never oversubscribe the aggregator pool
  // (reserve() clamps and admit_from_queue() checks fit before calling).
  HERO_INVARIANT(in_use_ <= total_slots_,
                 "switch {}: {} slots in use of {}", node_, in_use_,
                 total_slots_);
  granted_.emplace(job, slots);
  if (on_grant) sim_->schedule_in(0.0, std::move(on_grant));
}

void SwitchAgent::release(JobId job) {
  auto it = granted_.find(job);
  if (it == granted_.end()) return;
  HERO_INVARIANT(in_use_ >= it->second,
                 "switch {}: releasing {} slots with only {} in use", node_,
                 it->second, in_use_);
  in_use_ -= it->second;
  granted_.erase(it);
  admit_from_queue();
}

void SwitchAgent::abandon(JobId job) {
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [&](const Pending& p) { return p.job == job; });
  if (it != queue_.end()) queue_.erase(it);
}

void SwitchAgent::admit_from_queue() {
  while (!queue_.empty() &&
         in_use_ + queue_.front().slots <= total_slots_) {
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    grant(p.job, p.slots, std::move(p.on_grant));
    ++jobs_granted;
  }
}

SwitchRegistry::SwitchRegistry(sim::Simulator& simulator,
                               const topo::Graph& graph)
    : sim_(&simulator), graph_(&graph) {}

SwitchAgent& SwitchRegistry::agent(topo::NodeId node) {
  if (!graph_->is_switch(node)) {
    throw std::invalid_argument("SwitchRegistry: node is not a switch");
  }
  auto it = agents_.find(node);
  if (it == agents_.end()) {
    const std::int32_t slots = graph_->node(node).agg_slots;
    it = agents_
             .emplace(node, std::make_unique<SwitchAgent>(
                                *sim_, node,
                                static_cast<std::uint32_t>(
                                    std::max<std::int32_t>(slots, 1))))
             .first;
  }
  return *it->second;
}

}  // namespace hero::sw
