#include "faults/injector.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/format.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/scheduler.hpp"

namespace hero::faults {

FaultInjector::FaultInjector(net::FlowNetwork& network, FaultPlan plan,
                             Hooks hooks)
    : network_(&network), plan_(std::move(plan)), hooks_(hooks) {}

void FaultInjector::arm() {
  HERO_REQUIRE(!armed_, "FaultInjector::arm called twice");
  armed_ = true;
  for (const FaultEvent& ev : plan_.events) validate(ev);
  check_targets(plan_, network_->graph());
  for (std::size_t i = 0; i < plan_.events.size(); ++i) schedule(i);
}

void FaultInjector::schedule(std::size_t index) {
  const FaultEvent& ev = plan_.events[index];
  sim::Simulator& s = simulator();
  const topo::Graph& g = network_->graph();
  switch (ev.kind) {
    case FaultKind::kLinkDegrade: {
      const topo::EdgeId edge = target_edge(g, ev);
      s.schedule_in(ev.at, [this, ev, edge] { inject_link(ev, edge); });
      if (ev.duration > 0.0) {
        s.schedule_in(ev.at + ev.duration,
                      [this, ev, edge] { recover_link(ev, edge); });
      }
      break;
    }
    case FaultKind::kLinkFlap: {
      // Every cycle's inject/recover keys are reserved here, where the
      // cycles would all be scheduled; a cycle goes on the calendar when
      // the previous cycle's inject fires (flap_cycle()).
      FlapChain chain;
      chain.event = index;
      chain.edge = target_edge(g, ev);
      chain.armed_at = s.now();
      chain.down = ev.duration > 0.0 ? ev.duration : ev.period / 2.0;
      chain.first_key = s.reserve_keys(2 * std::uint64_t{ev.count});
      flaps_.push_back(chain);
      if (ev.count > 0) schedule_flap_cycle(flaps_.size() - 1, 0);
      break;
    }
    case FaultKind::kSlotExhaust: {
      const topo::NodeId node = target_node(g, ev);
      s.schedule_in(ev.at, [this, ev, node] { inject_slots(ev, node); });
      break;
    }
    case FaultKind::kSwitchRestart: {
      const topo::NodeId node = target_node(g, ev);
      s.schedule_in(ev.at, [this, ev, node] { inject_restart(ev, node); });
      break;
    }
    case FaultKind::kGpuSlow: {
      const topo::NodeId node = target_node(g, ev);
      s.schedule_in(ev.at, [this, ev, node] { inject_gpu(ev, node); });
      if (ev.duration > 0.0) {
        s.schedule_in(ev.at + ev.duration,
                      [this, ev, node] { recover_gpu(ev, node); });
      }
      break;
    }
    case FaultKind::kSyncDelay:
    case FaultKind::kSyncDrop: {
      s.schedule_in(ev.at, [this, ev] { inject_sync(ev); });
      if (ev.duration > 0.0) {
        s.schedule_in(ev.at + ev.duration,
                      [this, ev] { recover_sync(ev); });
      }
      break;
    }
  }
}

void FaultInjector::schedule_flap_cycle(std::size_t chain, std::uint32_t k) {
  sim::Simulator& s = simulator();
  const FlapChain& f = flaps_[chain];
  const FaultEvent& ev = plan_.events[f.event];
  // The times an eager schedule_in(start) / schedule_in(start + down) at
  // arm() would have produced, operation for operation.
  const Time start = ev.at + static_cast<double>(k) * ev.period;
  s.schedule_keyed(f.armed_at + start, f.first_key + 2 * std::uint64_t{k},
                   [this, chain, k] { flap_cycle(chain, k); });
  s.schedule_keyed(f.armed_at + (start + f.down),
                   f.first_key + 2 * std::uint64_t{k} + 1, [this, chain] {
                     recover_link(plan_.events[flaps_[chain].event],
                                  flaps_[chain].edge);
                   });
}

void FaultInjector::flap_cycle(std::size_t chain, std::uint32_t k) {
  const FlapChain& f = flaps_[chain];
  const FaultEvent& ev = plan_.events[f.event];
  if (k + 1 < ev.count) schedule_flap_cycle(chain, k + 1);
  inject_link(ev, f.edge);
}

void FaultInjector::emit(const FaultEvent& ev, const char* phase,
                         double value) {
  sim::Simulator& s = simulator();
  const bool inject = std::string_view(phase) == "inject";
  if (inject) ++injected_; else ++recovered_;
  log::debug("t={} fault {} {} target={} value={}", s.now(), phase,
             to_string(ev.kind), ev.target, value);
  if (obs::EventTracer* tr = s.tracer()) {
    tr->instant(s.now(), tr->track("faults"), "fault",
                strfmt("{}:{}", to_string(ev.kind), phase),
                {obs::arg("target", ev.target), obs::arg("value", value),
                 obs::arg("kind", to_string(ev.kind))});
  }
  if (obs::MetricsRegistry* m = s.metrics()) {
    m->counter(inject ? "faults.injected" : "faults.recovered").add(1);
  }
}

void FaultInjector::notify_scheduler_link(topo::EdgeId edge, double factor) {
  if (hooks_.online == nullptr) return;
  online::OnlineScheduler& online = *hooks_.online;
  // Surcharge every policy that rides the afflicted link so Eq. 16 steers
  // away *now*; the next controller tick recalibrates from measurements
  // (which see the degraded capacity too), so no explicit undo is needed.
  for (online::GroupId g = 0; g < online.group_count(); ++g) {
    const online::PolicyTable& table = online.table(g);
    for (std::size_t i = 0; i < table.size(); ++i) {
      const online::Policy& p = table.policy(i);
      if (!std::binary_search(p.edges.begin(), p.edges.end(), edge)) continue;
      const double cost = std::min(1.0, p.cost + (1.0 - factor));
      online.apply_cost_override(g, i, cost);
    }
  }
  online.recompute_penalties();
}

void FaultInjector::notify_scheduler_switch(topo::NodeId node) {
  if (hooks_.online == nullptr) return;
  online::OnlineScheduler& online = *hooks_.online;
  for (online::GroupId g = 0; g < online.group_count(); ++g) {
    const online::PolicyTable& table = online.table(g);
    for (std::size_t i = 0; i < table.size(); ++i) {
      const online::Policy& p = table.policy(i);
      if (p.plan.switch_node != node) continue;
      online.apply_cost_override(
          g, i, std::min(1.0, p.cost + online::kInaUnavailablePenalty));
    }
  }
}

void FaultInjector::inject_link(const FaultEvent& ev, topo::EdgeId edge) {
  network_->set_link_degradation(edge, ev.magnitude);
  emit(ev, "inject", ev.magnitude);
  notify_scheduler_link(edge, ev.magnitude);
}

void FaultInjector::recover_link(const FaultEvent& ev, topo::EdgeId edge) {
  network_->set_link_degradation(edge, 1.0);
  emit(ev, "recover", 1.0);
  if (hooks_.online != nullptr) hooks_.online->recompute_penalties();
}

void FaultInjector::inject_slots(const FaultEvent& ev, topo::NodeId node) {
  HERO_REQUIRE(hooks_.switches != nullptr,
               "slot_exhaust fault needs a switch registry");
  sw::SwitchAgent& agent = hooks_.switches->agent(node);
  const std::uint32_t want = static_cast<std::uint32_t>(ev.magnitude);
  const std::uint32_t free =
      agent.slots_total() -
      std::min(agent.slots_in_use(), agent.slots_total());
  const std::uint32_t take = std::min(want, free);
  if (take == 0) {
    // Pool already saturated by real traffic; nothing to seize. Still an
    // exhaustion event from the cluster's point of view.
    emit(ev, "inject", 0.0);
    notify_scheduler_switch(node);
    return;
  }
  const sw::JobId job = next_job_++;
  const sw::Admission adm =
      agent.reserve(job, take, /*queue_if_full=*/false, [] {});
  HERO_INVARIANT(adm == sw::Admission::kGranted,
                 "slot seizure of {} free slots not granted", take);
  emit(ev, "inject", static_cast<double>(take));
  notify_scheduler_switch(node);
  if (ev.duration > 0.0) {
    simulator().schedule_in(ev.duration, [this, ev, node, job] {
      hooks_.switches->agent(node).release(job);
      emit(ev, "recover", 0.0);
    });
  }
}

void FaultInjector::inject_restart(const FaultEvent& ev, topo::NodeId node) {
  HERO_REQUIRE(hooks_.switches != nullptr,
               "switch_restart fault needs a switch registry");
  sw::SwitchAgent& agent = hooks_.switches->agent(node);
  const sw::JobId job = next_job_++;
  emit(ev, "inject", static_cast<double>(agent.slots_total()));
  notify_scheduler_switch(node);
  // A queued whole-pool reservation: no new job can be admitted ahead of it
  // (FIFO), running jobs drain, then the injector holds every slot for the
  // restart window. Mirrors a control-plane reboot that first quiesces the
  // data plane.
  const sw::Admission adm = agent.reserve(
      job, agent.slots_total(), /*queue_if_full=*/true,
      [this, ev, node, job] {
        if (ev.duration > 0.0) {
          simulator().schedule_in(ev.duration, [this, ev, node, job] {
            hooks_.switches->agent(node).release(job);
            emit(ev, "recover", 0.0);
          });
        }
      });
  HERO_INVARIANT(adm != sw::Admission::kRejected,
                 "queued whole-pool reservation rejected");
}

void FaultInjector::inject_gpu(const FaultEvent& ev, topo::NodeId node) {
  gpu_scales_[node].push_back(ev.magnitude);
  emit(ev, "inject", ev.magnitude);
}

void FaultInjector::recover_gpu(const FaultEvent& ev, topo::NodeId node) {
  auto it = gpu_scales_.find(node);
  HERO_INVARIANT(it != gpu_scales_.end(), "gpu_slow recovery without fault");
  std::vector<double>& scales = it->second;
  auto pos = std::find(scales.begin(), scales.end(), ev.magnitude);
  HERO_INVARIANT(pos != scales.end(), "gpu_slow recovery without fault");
  scales.erase(pos);
  if (scales.empty()) gpu_scales_.erase(it);
  emit(ev, "recover", 1.0);
}

double FaultInjector::compute_scale(topo::NodeId gpu) const {
  const auto it = gpu_scales_.find(gpu);
  if (it == gpu_scales_.end()) return 1.0;
  // Strongest active straggler wins (no drift from multiply/divide pairs).
  return *std::max_element(it->second.begin(), it->second.end());
}

void FaultInjector::inject_sync(const FaultEvent& ev) {
  if (hooks_.online == nullptr) {
    // Static baselines have no controller sync channel; the fault lands but
    // nothing depends on the channel. Counted so chaos runs stay comparable
    // across systems.
    emit(ev, "inject", ev.magnitude);
    return;
  }
  if (ev.kind == FaultKind::kSyncDelay) {
    sync_delay_ = std::max(sync_delay_, Time{ev.magnitude});
  } else {
    ++sync_drops_;
  }
  hooks_.online->set_sync_disruption(sync_delay_, sync_drops_ > 0);
  emit(ev, "inject", ev.magnitude);
}

void FaultInjector::recover_sync(const FaultEvent& ev) {
  if (hooks_.online == nullptr) {
    emit(ev, "recover", 0.0);
    return;
  }
  if (ev.kind == FaultKind::kSyncDelay) {
    sync_delay_ = 0.0;
  } else {
    HERO_INVARIANT(sync_drops_ > 0, "sync_drop recovery without fault");
    --sync_drops_;
  }
  hooks_.online->set_sync_disruption(sync_delay_, sync_drops_ > 0);
  emit(ev, "recover", 0.0);
}

}  // namespace hero::faults
