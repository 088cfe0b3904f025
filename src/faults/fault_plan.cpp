#include "faults/fault_plan.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/format.hpp"

namespace hero::faults {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDegrade: return "link_degrade";
    case FaultKind::kLinkFlap: return "link_flap";
    case FaultKind::kSlotExhaust: return "slot_exhaust";
    case FaultKind::kSwitchRestart: return "switch_restart";
    case FaultKind::kGpuSlow: return "gpu_slow";
    case FaultKind::kSyncDelay: return "sync_delay";
    case FaultKind::kSyncDrop: return "sync_drop";
  }
  return "?";
}

namespace {

[[noreturn]] void reject(const FaultEvent& ev, const std::string& why) {
  throw std::invalid_argument(
      ev.target.empty()
          ? strfmt("fault {}: {}", to_string(ev.kind), why)
          : strfmt("fault {} on \"{}\": {}", to_string(ev.kind), ev.target,
                   why));
}

bool finite_at_least(double v, double lo) {
  return std::isfinite(v) && v >= lo;
}

/// Just enough JSON for fault plans: one object with an "events" array of
/// flat objects whose values are strings or numbers. Hand-rolled so the
/// repo stays dependency-free; anything outside that shape is an error.
class PlanParser {
 public:
  explicit PlanParser(std::string_view text) : text_(text) {}

  FaultPlan parse() {
    FaultPlan plan;
    expect('{');
    bool have_events = false;
    while (true) {
      skip_ws();
      if (peek() == '}') { ++pos_; break; }
      const std::string key = parse_string();
      expect(':');
      if (key == "events") {
        parse_events(plan);
        have_events = true;
      } else {
        fail(strfmt("unknown top-level key \"{}\"", key));
      }
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
    }
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after plan object");
    if (!have_events) fail("plan object has no \"events\" array");
    return plan;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(
        strfmt("fault plan parse error at byte {}: {}", pos_, what));
  }

  [[nodiscard]] char peek() const {
    if (pos_ >= text_.size()) return '\0';
    return text_[pos_];
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  void expect(char c) {
    skip_ws();
    if (peek() != c) fail(strfmt("expected '{}'", c));
    ++pos_;
  }

  std::string parse_string() {
    skip_ws();
    if (peek() != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') fail("escapes not supported");
      out.push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  double parse_number() {
    skip_ws();
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) fail("expected number");
    pos_ += static_cast<std::size_t>(end - begin);
    return value;
  }

  void parse_events(FaultPlan& plan) {
    expect('[');
    skip_ws();
    if (peek() == ']') { ++pos_; return; }
    while (true) {
      plan.events.push_back(parse_event());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      break;
    }
  }

  FaultEvent parse_event() {
    expect('{');
    FaultEvent ev;
    bool have_kind = false;
    while (true) {
      skip_ws();
      if (peek() == '}') { ++pos_; break; }
      const std::string key = parse_string();
      expect(':');
      if (key == "kind") {
        ev.kind = parse_kind(parse_string());
        have_kind = true;
      } else if (key == "at") {
        ev.at = parse_number();
      } else if (key == "duration") {
        ev.duration = parse_number();
      } else if (key == "target") {
        ev.target = parse_string();
      } else if (key == "magnitude") {
        ev.magnitude = parse_number();
      } else if (key == "count") {
        // Range-check before the cast: converting a negative or huge
        // double to an integer is undefined behaviour.
        const double n = parse_number();
        if (!(n >= 1.0 && n <= kMaxFlapCount) ||
            !exactly_equal(n, std::floor(n))) {
          fail(strfmt("count {} is not a whole number in [1, {}]", n,
                      kMaxFlapCount));
        }
        ev.count = static_cast<std::uint32_t>(n);
      } else if (key == "period") {
        ev.period = parse_number();
      } else {
        fail(strfmt("unknown event key \"{}\"", key));
      }
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
    }
    if (!have_kind) fail("event without \"kind\"");
    return ev;
  }

  FaultKind parse_kind(const std::string& name) {
    for (FaultKind k :
         {FaultKind::kLinkDegrade, FaultKind::kLinkFlap,
          FaultKind::kSlotExhaust, FaultKind::kSwitchRestart,
          FaultKind::kGpuSlow, FaultKind::kSyncDelay, FaultKind::kSyncDrop}) {
      if (name == to_string(k)) return k;
    }
    fail(strfmt("unknown fault kind \"{}\"", name));
  }
};

}  // namespace

void validate(const FaultEvent& ev) {
  if (!finite_at_least(raw(ev.at), 0.0)) {
    reject(ev, strfmt("at {} is not a finite time >= 0", raw(ev.at)));
  }
  if (!finite_at_least(raw(ev.duration), 0.0)) {
    reject(ev, strfmt("duration {} is not a finite time >= 0",
                      raw(ev.duration)));
  }
  const bool sync = ev.kind == FaultKind::kSyncDelay ||
                    ev.kind == FaultKind::kSyncDrop;
  if (!sync && ev.target.empty()) reject(ev, "needs a \"target\"");
  switch (ev.kind) {
    case FaultKind::kLinkFlap: {
      if (ev.count < 1 || ev.count > kMaxFlapCount) {
        reject(ev, strfmt("count {} not in [1, {}]", ev.count,
                          kMaxFlapCount));
      }
      if (!std::isfinite(raw(ev.period)) || !(ev.period > 0.0)) {
        reject(ev, strfmt("period {} is not a finite time > 0",
                          raw(ev.period)));
      }
      const Time down = ev.duration > 0.0 ? ev.duration : ev.period / 2.0;
      if (down > ev.period) {
        reject(ev, strfmt("down time {} exceeds period {}", raw(down),
                          raw(ev.period)));
      }
      [[fallthrough]];
    }
    case FaultKind::kLinkDegrade:
      if (!(ev.magnitude > 0.0 && ev.magnitude <= 1.0)) {
        reject(ev, strfmt("factor {} not in (0,1]", ev.magnitude));
      }
      break;
    case FaultKind::kSlotExhaust:
      if (!(ev.magnitude >= 1.0 &&
            ev.magnitude <= std::numeric_limits<std::uint32_t>::max()) ||
          !exactly_equal(ev.magnitude, std::floor(ev.magnitude))) {
        reject(ev, strfmt("{} is not a whole slot count >= 1",
                          ev.magnitude));
      }
      break;
    case FaultKind::kGpuSlow:
      if (!finite_at_least(ev.magnitude, 1.0)) {
        reject(ev, strfmt("multiplier {} is not a finite value >= 1",
                          ev.magnitude));
      }
      break;
    case FaultKind::kSyncDelay:
      if (!finite_at_least(ev.magnitude, 0.0)) {
        reject(ev, strfmt("delay {} is not a finite time >= 0",
                          ev.magnitude));
      }
      break;
    case FaultKind::kSwitchRestart:
    case FaultKind::kSyncDrop:
      break;
  }
}

topo::NodeId target_node(const topo::Graph& topology, const FaultEvent& ev) {
  const topo::NodeId id = topology.find(ev.target);
  if (id == topo::kInvalidNode) reject(ev, "no such node");
  if (ev.kind == FaultKind::kGpuSlow) {
    if (!topology.is_gpu(id)) reject(ev, "target is not a GPU");
  } else if (!topology.is_switch(id)) {
    reject(ev, "target is not a switch");
  }
  return id;
}

topo::EdgeId target_edge(const topo::Graph& topology, const FaultEvent& ev) {
  const std::size_t dash = ev.target.find('-');
  if (dash == std::string::npos) reject(ev, "not an edge (want \"a-b\")");
  const topo::NodeId a = topology.find(ev.target.substr(0, dash));
  const topo::NodeId b = topology.find(ev.target.substr(dash + 1));
  if (a != topo::kInvalidNode && b != topo::kInvalidNode) {
    for (const topo::Adjacency& adj : topology.neighbors(a)) {
      if (adj.peer == b) return adj.edge;
    }
  }
  reject(ev, "no such edge");
}

void check_targets(const FaultPlan& plan, const topo::Graph& topology) {
  for (const FaultEvent& ev : plan.events) {
    switch (ev.kind) {
      case FaultKind::kLinkDegrade:
      case FaultKind::kLinkFlap:
        (void)target_edge(topology, ev);
        break;
      case FaultKind::kSlotExhaust:
      case FaultKind::kSwitchRestart:
      case FaultKind::kGpuSlow:
        (void)target_node(topology, ev);
        break;
      case FaultKind::kSyncDelay:
      case FaultKind::kSyncDrop:
        break;
    }
  }
}

FaultPlan parse_fault_plan(std::string_view json) {
  FaultPlan plan = PlanParser(json).parse();
  for (const FaultEvent& ev : plan.events) validate(ev);
  return plan;
}

FaultPlan load_fault_plan(const std::string& path,
                          const topo::Graph& topology) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(strfmt("cannot open fault plan {}", path));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  FaultPlan plan = parse_fault_plan(buf.str());
  check_targets(plan, topology);
  return plan;
}

}  // namespace hero::faults
