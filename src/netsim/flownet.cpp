#include "netsim/flownet.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hero::net {
namespace {

// Bytes below this are considered delivered. Sub-byte residues are floating
// point drift, never payload (large transfers accumulate ~1e-6 bytes of
// rounding error across rate changes).
constexpr Bytes kEpsilonBytes = 0.5;

}  // namespace

FlowNetwork::FlowNetwork(sim::Simulator& simulator, const topo::Graph& graph)
    : sim_(&simulator), graph_(&graph),
      degradation_(graph.edge_count(), 1.0),
      link_rate_(graph.edge_count() * 2, 0.0),
      link_delivered_(graph.edge_count() * 2, 0.0),
      link_flows_(graph.edge_count() * 2),
      link_is_dirty_(graph.edge_count() * 2, 0),
      link_force_refresh_(graph.edge_count() * 2, 0),
      link_mark_(graph.edge_count() * 2, 0) {}

DirectedLink FlowNetwork::link_at(const Transfer& t, std::size_t hop) const {
  const topo::EdgeId e = t.path.edges[hop];
  const topo::NodeId from = t.path.nodes[hop];
  return DirectedLink{e, graph_->edge(e).a == from};
}

Bandwidth FlowNetwork::link_capacity(DirectedLink link) const {
  return graph_->edge(link.edge).capacity * degradation_[link.edge];
}

std::string FlowNetwork::flow_label(const Transfer& t) const {
  return graph_->node(t.path.nodes.front()).name + "->" +
         graph_->node(t.path.nodes.back()).name;
}

std::uint32_t FlowNetwork::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(pool_.size());
  pool_.emplace_back();
  flow_mark_.push_back(0);
  return slot;
}

void FlowNetwork::retire_slot(std::uint32_t slot) {
  Transfer& t = pool_[slot];
  HERO_INVARIANT(t.pending_event == sim::kInvalidEvent,
                 "transfer {} retired with a live event", t.id);
  --active_count_;
  t.id = kInvalidTransfer;
  t.in_flight = false;
  t.on_complete = nullptr;
  t.spans.clear();
  t.path.nodes.clear();  // keep vector capacity for the next occupant
  t.path.edges.clear();
  free_slots_.push_back(slot);
}

void FlowNetwork::mark_dirty(std::size_t link_index) {
  if (link_is_dirty_[link_index]) return;
  link_is_dirty_[link_index] = 1;
  dirty_links_.push_back(link_index);
}

void FlowNetwork::attach_links(std::uint32_t slot) {
  const TransferId id = pool_[slot].id;
  for (const DirectedLink& link : pool_[slot].spans) {
    auto& flows = link_flows_[link.index()];
    // Keep each per-link index sorted by transfer id: rate sums and solver
    // weight accumulation then always run in id order, independent of slot
    // reuse, which the byte-identity contract depends on.
    const auto pos = std::lower_bound(
        flows.begin(), flows.end(), id,
        [this](std::uint32_t s, TransferId want) { return pool_[s].id < want; });
    flows.insert(pos, slot);
    mark_dirty(link.index());
  }
}

void FlowNetwork::detach_links(std::uint32_t slot) {
  const TransferId id = pool_[slot].id;
  for (const DirectedLink& link : pool_[slot].spans) {
    auto& flows = link_flows_[link.index()];
    const auto pos = std::lower_bound(
        flows.begin(), flows.end(), id,
        [this](std::uint32_t s, TransferId want) { return pool_[s].id < want; });
    HERO_INVARIANT(pos != flows.end() && *pos == slot,
                   "transfer {} missing from link {} index", id, link.index());
    flows.erase(pos);
    mark_dirty(link.index());
  }
}

TransferId FlowNetwork::start_transfer(const topo::Path& path, Bytes bytes,
                                       TransferOptions opts) {
  if (bytes < 0) throw std::invalid_argument("start_transfer: bytes < 0");
  const TransferId id = next_id_++;
  if (path.empty() || bytes <= kEpsilonBytes) {
    // Local (same-node) transfers or empty payloads complete "immediately"
    // but still asynchronously, so callers get uniform callback semantics.
    if (opts.on_complete) {
      sim_->schedule_in(0.0, [cb = std::move(opts.on_complete), id] {
        cb(id);
      });
    }
    return id;
  }

  const std::uint32_t slot = acquire_slot();
  Transfer& t = pool_[slot];
  t.id = id;
  t.path = path;
  t.bytes = bytes;
  t.hop = 0;
  t.hop_left = 0;
  t.rate = 0.0;
  t.weight = opts.weight > 0 ? opts.weight : 1.0;
  t.pipelined = opts.pipelined;
  t.in_flight = false;
  t.last_update = sim_->now();
  t.pending_event = sim::kInvalidEvent;
  t.on_complete = std::move(opts.on_complete);
  ++active_count_;
  if (obs::EventTracer* tr = sim_->tracer()) {
    tr->async_begin(
        sim_->now(), id, "net.flow", flow_label(t),
        {obs::arg("bytes", raw(bytes)), obs::arg("hops", path.edges.size()),
         obs::arg("pipelined", opts.pipelined)});
    tr->counter(sim_->now(), "net.active_transfers",
                static_cast<double>(active_count_));
  }
  if (obs::MetricsRegistry* m = sim_->metrics()) {
    m->counter("net.transfers").add();
    m->gauge("net.active_transfers")
        .set(sim_->now(), static_cast<double>(active_count_));
  }
  begin_hop(slot);
  return id;
}

void FlowNetwork::begin_hop(std::uint32_t slot) {
  Transfer& t = pool_[slot];
  t.in_flight = false;
  t.hop_left = t.bytes;
  t.rate = 0.0;
  t.spans.clear();
  // Fixed forwarding latency elapses before the payload starts occupying
  // link(s): the current hop's latency for store-and-forward flows, the
  // whole path's once for pipelined ones.
  Time latency = 0.0;
  if (t.pipelined) {
    for (topo::EdgeId e : t.path.edges) latency += graph_->edge(e).latency;
  } else {
    latency = graph_->edge(t.path.edges[t.hop]).latency;
  }
  const TransferId id = t.id;
  t.pending_event = sim_->schedule_in(
      latency, [this, slot, id] { activate(slot, id); });
}

void FlowNetwork::activate(std::uint32_t slot, TransferId id) {
  Transfer& t = pool_[slot];
  if (t.id != id) return;  // cancelled while waiting out the latency
  t.pending_event = sim::kInvalidEvent;
  t.in_flight = true;
  t.last_update = sim_->now();
  if (t.pipelined) {
    t.spans.reserve(t.path.edges.size());
    for (std::size_t h = 0; h < t.path.edges.size(); ++h) {
      t.spans.push_back(link_at(t, h));
    }
  } else {
    t.spans.push_back(link_at(t, t.hop));
  }
  ++in_flight_count_;
  attach_links(slot);
  reallocate_dirty();
}

void FlowNetwork::cancel_transfer(TransferId id) {
  if (id == kInvalidTransfer) return;
  const auto it = std::find_if(pool_.begin(), pool_.end(),
                               [id](const Transfer& t) { return t.id == id; });
  if (it == pool_.end()) return;
  const auto slot = static_cast<std::uint32_t>(it - pool_.begin());
  Transfer& t = *it;
  if (t.pending_event != sim::kInvalidEvent) {
    sim_->cancel(t.pending_event);
    t.pending_event = sim::kInvalidEvent;
  }
  const bool was_in_flight = t.in_flight;
  if (was_in_flight) {
    // Account the stretch since the last rate change before the flow
    // vanishes — delivered_bytes() must never regress on a cancel.
    progress_transfer(t, sim_->now());
    --in_flight_count_;
    detach_links(slot);
  }
  obs::EventTracer* tr = sim_->tracer();
  std::string flow_name = tr ? flow_label(t) : std::string();
  retire_slot(slot);
  if (tr) {
    tr->async_end(sim_->now(), id, "net.flow", std::move(flow_name),
                  {obs::arg("cancelled", true)});
    tr->counter(sim_->now(), "net.active_transfers",
                static_cast<double>(active_count_));
  }
  if (obs::MetricsRegistry* m = sim_->metrics()) {
    m->counter("net.cancelled").add();
    m->gauge("net.active_transfers")
        .set(sim_->now(), static_cast<double>(active_count_));
  }
  if (was_in_flight) reallocate_dirty();
}

void FlowNetwork::progress_transfer(Transfer& t, Time now) {
  if (!t.in_flight) return;
  const Time dt = now - t.last_update;
  if (dt > 0) {
    const Bytes moved = std::min(t.hop_left, t.rate * dt);
    HERO_INVARIANT(moved >= 0.0, "transfer {} moved {} bytes", t.id, moved);
    t.hop_left -= moved;
    for (const DirectedLink& link : t.spans) {
      link_delivered_[link.index()] += moved;
    }
    HERO_INVARIANT(t.hop_left >= 0.0, "transfer {} hop_left {} underflow",
                   t.id, t.hop_left);
  }
  t.last_update = now;
}

void FlowNetwork::reschedule_completion(std::uint32_t slot) {
  Transfer& t = pool_[slot];
  if (t.pending_event != sim::kInvalidEvent) {
    sim_->cancel(t.pending_event);
    t.pending_event = sim::kInvalidEvent;
  }
  if (!t.in_flight) return;
  const TransferId id = t.id;
  if (t.hop_left <= kEpsilonBytes) {
    t.pending_event = sim_->schedule_in(
        0.0, [this, slot, id] { on_hop_complete(slot, id); });
  } else if (t.rate > 0) {
    t.pending_event = sim_->schedule_in(
        t.hop_left / t.rate, [this, slot, id] { on_hop_complete(slot, id); });
  }
  // rate == 0 (fully degraded link): transfer stalls until the next
  // reallocation gives it bandwidth.
}

void FlowNetwork::collect_all_in_flight(
    std::vector<std::uint32_t>& out) const {
  out.clear();
  for (std::uint32_t slot = 0; slot < pool_.size(); ++slot) {
    if (pool_[slot].in_flight) out.push_back(slot);
  }
  std::sort(out.begin(), out.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return pool_[a].id < pool_[b].id;
            });
}

void FlowNetwork::solve_component(const std::vector<std::uint32_t>& slots,
                                  const std::vector<std::size_t>& links,
                                  std::vector<Bandwidth>& rates) {
  // Weighted progressive filling, generalized to flows spanning several
  // links (pipelined mode): fixing a flow at the bottleneck's fair share
  // consumes capacity on every other link it crosses. `slots` arrives
  // sorted by transfer id, so weight accumulation and fixing order — and
  // therefore every floating-point result — match the whole-fabric solve
  // restricted to this component, bit for bit.
  rates.assign(slots.size(), 0.0);

  // Links are scanned in ascending directed-link index: when two links tie
  // for the bottleneck share, the winner must not depend on hash or
  // discovery order (it decides which flows get fixed first, and therefore
  // every later rate). A link no flow spans keeps weight 0 and is never a
  // bottleneck. Weights accumulate per link in slot order.
  solve_state_.resize(links.size());
  if (link_slot_.empty()) link_slot_.assign(link_rate_.size(), 0);
  for (std::size_t k = 0; k < links.size(); ++k) {
    const std::size_t idx = links[k];
    link_slot_[idx] = static_cast<std::uint32_t>(k);
    const DirectedLink link{static_cast<topo::EdgeId>(idx / 2),
                            (idx % 2) == 0};
    solve_state_[k] = SolveLink{link_capacity(link), 0.0, true};
  }
  for (const std::uint32_t slot : slots) {
    const Transfer& t = pool_[slot];
    for (const DirectedLink& link : t.spans) {
      solve_state_[link_slot_[link.index()]].weight_sum += t.weight;
    }
  }

  solve_unfixed_.resize(slots.size());
  for (std::uint32_t i = 0; i < solve_unfixed_.size(); ++i) {
    solve_unfixed_[i] = i;
  }

  while (!solve_unfixed_.empty()) {
    // Find the bottleneck link: minimal fair share per unit weight.
    Bandwidth best_share = std::numeric_limits<Bandwidth>::infinity();
    std::size_t best = links.size();
    for (std::size_t k = 0; k < links.size(); ++k) {
      const SolveLink& state = solve_state_[k];
      if (!state.live || state.weight_sum <= 0) continue;
      const Bandwidth share = state.residual / state.weight_sum;
      if (share < best_share) {
        best_share = share;
        best = k;
      }
    }
    if (best == links.size()) break;
    const std::size_t best_link = links[best];

    // Fix every unfixed transfer crossing the bottleneck; release their
    // demand from the other links they span. The rest keep their order.
    std::size_t kept = 0;
    for (const std::uint32_t i : solve_unfixed_) {
      const Transfer& t = pool_[slots[i]];
      const bool on_bottleneck =
          std::any_of(t.spans.begin(), t.spans.end(),
                      [&](const DirectedLink& l) {
                        return l.index() == best_link;
                      });
      if (!on_bottleneck) {
        solve_unfixed_[kept++] = i;
        continue;
      }
      rates[i] = best_share * t.weight;
      for (const DirectedLink& link : t.spans) {
        if (link.index() == best_link) continue;
        SolveLink& state = solve_state_[link_slot_[link.index()]];
        if (state.live) {
          state.residual = std::max(Bandwidth{0.0}, state.residual - rates[i]);
          state.weight_sum -= t.weight;
        }
      }
    }
    solve_state_[best].live = false;
    solve_unfixed_.resize(kept);
  }
}

void FlowNetwork::reallocate_dirty() {
  ++stats_.reallocations;
  stats_.flows_active += in_flight_count_;
  const Time now = sim_->now();

  comp_flows_.clear();
  comp_links_.clear();
  ++mark_epoch_;
  if (full_solve_) {
    collect_all_in_flight(comp_flows_);
    for (const std::uint32_t slot : comp_flows_) {
      for (const DirectedLink& link : pool_[slot].spans) {
        const std::size_t idx = link.index();
        if (link_mark_[idx] != mark_epoch_) {
          link_mark_[idx] = mark_epoch_;
          comp_links_.push_back(idx);
        }
      }
    }
    for (const std::size_t idx : dirty_links_) {
      if (link_mark_[idx] != mark_epoch_) {
        link_mark_[idx] = mark_epoch_;
        comp_links_.push_back(idx);
      }
    }
  } else {
    // Flood-fill the flow/link occupancy graph from the dirty links. The
    // closure is a union of complete bottleneck components, so re-solving
    // exactly these flows reproduces the global solution: max-min rates of
    // untouched components are pure functions of their own flows and links.
    bfs_stack_.clear();
    for (const std::size_t idx : dirty_links_) {
      if (link_mark_[idx] != mark_epoch_) {
        link_mark_[idx] = mark_epoch_;
        comp_links_.push_back(idx);
        bfs_stack_.push_back(idx);
      }
    }
    while (!bfs_stack_.empty()) {
      const std::size_t idx = bfs_stack_.back();
      bfs_stack_.pop_back();
      for (const std::uint32_t slot : link_flows_[idx]) {
        if (flow_mark_[slot] == mark_epoch_) continue;
        flow_mark_[slot] = mark_epoch_;
        comp_flows_.push_back(slot);
        for (const DirectedLink& link : pool_[slot].spans) {
          const std::size_t j = link.index();
          if (link_mark_[j] != mark_epoch_) {
            link_mark_[j] = mark_epoch_;
            comp_links_.push_back(j);
            bfs_stack_.push_back(j);
          }
        }
      }
    }
    std::sort(comp_flows_.begin(), comp_flows_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return pool_[a].id < pool_[b].id;
              });
  }
  for (const std::size_t idx : dirty_links_) link_is_dirty_[idx] = 0;
  dirty_links_.clear();
  std::sort(comp_links_.begin(), comp_links_.end());

  if (!comp_flows_.empty()) {
    ++stats_.solves;
    stats_.flows_solved += comp_flows_.size();
    solve_component(comp_flows_, comp_links_, solved_rates_);
  } else {
    solved_rates_.clear();
  }

  // Apply: a flow only accrues progress, takes its new rate, and moves its
  // completion event when the solved rate differs bitwise from its current
  // one. Unchanged flows keep their accrual chunk and their event — that
  // skip is what makes an event on one component free for every other, and
  // because a re-solved-but-unchanged component reproduces its rates bit
  // for bit, full-solve mode skips exactly the same flows.
  for (std::size_t i = 0; i < comp_flows_.size(); ++i) {
    Transfer& t = pool_[comp_flows_[i]];
    const Bandwidth new_rate = solved_rates_[i];
    if (exactly_equal(new_rate, t.rate)) continue;
    progress_transfer(t, now);
    t.rate = new_rate;
    reschedule_completion(comp_flows_[i]);
  }

  // Refresh per-link accounting for the touched links (ascending index
  // order). refresh_link() skips links whose busy rate is bitwise
  // unchanged, so observation sequences also match across solve modes.
  obs::MetricsRegistry* metrics = sim_->metrics();
  if (metrics != nullptr && link_gauges_.empty()) {
    link_gauges_.assign(link_rate_.size(), nullptr);
  }
  for (const std::size_t idx : comp_links_) {
    refresh_link(idx, now, metrics);
  }

  if (validate_solves_ && !full_solve_) validate_against_full_solve();
}

void FlowNetwork::refresh_link(std::size_t index, Time now,
                               obs::MetricsRegistry* metrics) {
  Bandwidth rate = 0.0;
  for (const std::uint32_t slot : link_flows_[index]) {
    rate += pool_[slot].rate;  // id order: the index is sorted by id
  }
  const bool force = link_force_refresh_[index] != 0;
  link_force_refresh_[index] = 0;
  if (!force && exactly_equal(rate, link_rate_[index])) return;
  link_rate_[index] = rate;

  const DirectedLink link{static_cast<topo::EdgeId>(index / 2),
                          (index % 2) == 0};
  const Bandwidth cap = link_capacity(link);
  // Max-min filling must never over-subscribe a directed link (small
  // relative slack absorbs progressive-filling rounding).
  HERO_INVARIANT(rate <= cap + 1e-6 * std::max(cap, Bandwidth{1.0}),
                 "link {} allocated {} B/s over capacity {} B/s", index, rate,
                 cap);
  const double util = cap > 0 ? rate / cap : 0.0;
  if (metrics != nullptr) {
    // Per-link utilization timeline (the controller's "hardware
    // counters"); a link's gauge appears once it first carries traffic.
    if (link_gauges_[index] == nullptr && util > 0.0) {
      const topo::Edge& e = graph_->edge(link.edge);
      const topo::NodeId from = link.forward ? e.a : e.b;
      const topo::NodeId to = link.forward ? e.b : e.a;
      link_gauges_[index] = &metrics->gauge(
          "link." + graph_->node(from).name + "->" + graph_->node(to).name);
    }
    if (link_gauges_[index] != nullptr) link_gauges_[index]->set(now, util);
  }
}

void FlowNetwork::validate_against_full_solve() {
  ++stats_.validations;
  collect_all_in_flight(validate_flows_);
  validate_links_.clear();
  for (const std::uint32_t slot : validate_flows_) {
    for (const DirectedLink& link : pool_[slot].spans) {
      validate_links_.push_back(link.index());
    }
  }
  std::sort(validate_links_.begin(), validate_links_.end());
  validate_links_.erase(
      std::unique(validate_links_.begin(), validate_links_.end()),
      validate_links_.end());
  solve_component(validate_flows_, validate_links_, validate_rates_);
  for (std::size_t i = 0; i < validate_flows_.size(); ++i) {
    const Transfer& t = pool_[validate_flows_[i]];
    if (!exactly_equal(validate_rates_[i], t.rate)) {
      ++stats_.mismatches;
      HERO_INVARIANT(false,
                     "incremental max-min diverged: transfer {} rate {} B/s "
                     "vs full solve {} B/s",
                     t.id, t.rate, validate_rates_[i]);
    }
  }
}

void FlowNetwork::on_hop_complete(std::uint32_t slot, TransferId id) {
  Transfer& t = pool_[slot];
  if (t.id != id) return;  // slot recycled under a stale event
  t.pending_event = sim::kInvalidEvent;

  // Account any residue (event fired exactly at depletion time).
  const Time now = sim_->now();
  progress_transfer(t, now);
  if (t.hop_left > kEpsilonBytes) {
    // Spurious wakeup (defensive; true removal should prevent it): put a
    // fresh completion event back for the residue at the current rate.
    reschedule_completion(slot);
    return;
  }

  t.in_flight = false;
  --in_flight_count_;
  detach_links(slot);
  ++t.hop;
  if (!t.pipelined && t.hop < t.path.edges.size()) {
    begin_hop(slot);
    reallocate_dirty();
    return;
  }
  // Bytes-in == bytes-out: the final hop (or the single pipelined stream)
  // delivered the whole payload up to floating-point residue.
  HERO_INVARIANT(t.hop_left <= kEpsilonBytes,
                 "transfer {} completed with {} bytes undelivered", id,
                 t.hop_left);
  HERO_INVARIANT(t.pipelined || t.hop == t.path.edges.size(),
                 "transfer {} finished on hop {}/{}", id, t.hop,
                 t.path.edges.size());
  TransferCallback cb = std::move(t.on_complete);
  obs::EventTracer* tr = sim_->tracer();
  std::string flow_name = tr ? flow_label(t) : std::string();
  retire_slot(slot);
  if (tr) {
    tr->async_end(now, id, "net.flow", std::move(flow_name));
    tr->counter(now, "net.active_transfers",
                static_cast<double>(active_count_));
  }
  if (obs::MetricsRegistry* m = sim_->metrics()) {
    m->counter("net.completed").add();
    m->gauge("net.active_transfers")
        .set(now, static_cast<double>(active_count_));
  }
  reallocate_dirty();
  if (cb) cb(id);
}

double FlowNetwork::utilization(DirectedLink link) const {
  const Bandwidth cap = link_capacity(link);
  return cap > 0 ? link_rate_[link.index()] / cap : 0.0;
}

double FlowNetwork::edge_utilization(topo::EdgeId edge) const {
  return std::max(utilization(DirectedLink{edge, true}),
                  utilization(DirectedLink{edge, false}));
}

PathEstimate FlowNetwork::estimate_path(const topo::Path& path) const {
  PathEstimate est;
  for (std::size_t h = 0; h < path.edges.size(); ++h) {
    const topo::EdgeId e = path.edges[h];
    const topo::NodeId from = path.nodes[h];
    const DirectedLink link{e, graph_->edge(e).a == from};
    const std::size_t idx = link.index();
    const Bandwidth cap = link_capacity(link);
    est.latency += graph_->edge(e).latency;
    const Bandwidth residual =
        std::max(Bandwidth{0.0}, cap - link_rate_[idx]);
    if (residual < est.residual) est.residual = residual;
    // Post-admission estimate: a new flow gets at least C/(n+1) on a
    // saturated link (it squeezes the n incumbents down to fair share) and
    // at least the residual on an under-used one.
    const double n = static_cast<double>(link_flows_[idx].size());
    const Bandwidth admitted = std::max(residual, cap / (n + 1.0));
    if (admitted < est.fair_share) {
      est.fair_share = admitted;
      est.bottleneck_link = e;
    }
  }
  return est;
}

Bytes FlowNetwork::delivered_bytes(DirectedLink link) const {
  // Flows accrue lazily (only at rate changes), so add the in-progress
  // stretch of every flow currently on the link.
  const std::size_t idx = link.index();
  Bytes total = link_delivered_[idx];
  const Time now = sim_->now();
  for (const std::uint32_t slot : link_flows_[idx]) {
    const Transfer& t = pool_[slot];
    const Time dt = now - t.last_update;
    if (dt > 0) total += std::min(t.hop_left, t.rate * dt);
  }
  return total;
}

void FlowNetwork::debug_dump() const {
  std::vector<std::uint32_t> slots;
  slots.reserve(active_count_);
  for (std::uint32_t slot = 0; slot < pool_.size(); ++slot) {
    if (pool_[slot].id != kInvalidTransfer) slots.push_back(slot);
  }
  std::sort(slots.begin(), slots.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return pool_[a].id < pool_[b].id;
            });
  for (const std::uint32_t slot : slots) {
    const Transfer& t = pool_[slot];
    log::warn(
        "transfer {}: hop {}/{} in_flight={} hop_left={} rate={} event={}",
        t.id, t.hop, t.path.edges.size(), t.in_flight, t.hop_left, t.rate,
        t.pending_event);
  }
}

void FlowNetwork::set_link_degradation(topo::EdgeId edge, double factor) {
  if (!(factor > 0.0) || factor > 1.0) {
    throw std::invalid_argument("set_link_degradation: factor in (0,1]");
  }
  degradation_[edge] = factor;
  // Capacity moved under the allocation: both directions must re-solve and
  // re-observe utilization even if their busy rate lands on the same value.
  const std::size_t fwd = static_cast<std::size_t>(edge) * 2;
  mark_dirty(fwd);
  mark_dirty(fwd + 1);
  link_force_refresh_[fwd] = 1;
  link_force_refresh_[fwd + 1] = 1;
  reallocate_dirty();
}

}  // namespace hero::net
