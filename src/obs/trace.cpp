#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/log.hpp"

namespace hero::obs {
namespace {

std::string render_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// JSON string escaping for names/categories/arg values.
void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

TraceArg arg(std::string key, std::string value) {
  return TraceArg{std::move(key), std::move(value), false};
}

TraceArg arg(std::string key, const char* value) {
  return TraceArg{std::move(key), value, false};
}

TraceArg arg(std::string key, double value) {
  return TraceArg{std::move(key), render_double(value), true};
}

TraceArg arg(std::string key, std::uint64_t value) {
  return TraceArg{std::move(key), std::to_string(value), true};
}

TraceArg arg(std::string key, bool value) {
  return TraceArg{std::move(key), value ? "true" : "false", true};
}

TrackId EventTracer::track(std::string_view name) {
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    if (track_names_[i] == name) return static_cast<TrackId>(i + 1);
  }
  track_names_.emplace_back(name);
  return static_cast<TrackId>(track_names_.size());
}

void EventTracer::push(TraceEvent ev) {
  if (open_depth_.size() <= ev.track) open_depth_.resize(ev.track + 1, 0);
  events_.push_back(std::move(ev));
}

void EventTracer::begin_span(Time now, TrackId track, std::string category,
                             std::string name, TraceArgs args) {
  push(TraceEvent{Phase::kSpanBegin, now, track, 0, std::move(category),
                  std::move(name), std::move(args)});
  ++open_depth_[track];
}

void EventTracer::end_span(Time now, TrackId track, TraceArgs args) {
  push(TraceEvent{Phase::kSpanEnd, now, track, 0, {}, {}, std::move(args)});
  if (open_depth_[track] > 0) --open_depth_[track];
}

void EventTracer::async_begin(Time now, std::uint64_t id,
                              std::string category, std::string name,
                              TraceArgs args) {
  push(TraceEvent{Phase::kAsyncBegin, now, 0, id, std::move(category),
                  std::move(name), std::move(args)});
}

void EventTracer::async_end(Time now, std::uint64_t id, std::string category,
                            std::string name, TraceArgs args) {
  push(TraceEvent{Phase::kAsyncEnd, now, 0, id, std::move(category),
                  std::move(name), std::move(args)});
}

void EventTracer::instant(Time now, TrackId track, std::string category,
                          std::string name, TraceArgs args) {
  push(TraceEvent{Phase::kInstant, now, track, 0, std::move(category),
                  std::move(name), std::move(args)});
}

void EventTracer::counter(Time now, std::string name, double value) {
  TraceArgs args;
  args.push_back(arg("value", value));
  push(TraceEvent{Phase::kCounter, now, 0, 0, "counter", std::move(name),
                  std::move(args)});
}

std::uint64_t EventTracer::count(std::string_view category,
                                 Phase phase) const {
  std::uint64_t n = 0;
  for (const TraceEvent& ev : events_) {
    if (ev.phase == phase && ev.category == category) ++n;
  }
  return n;
}

std::size_t EventTracer::open_spans(TrackId track) const {
  return track < open_depth_.size() ? open_depth_[track] : 0;
}

std::string EventTracer::chrome_trace_json() const {
  std::string out;
  out.reserve(events_.size() * 96 + 256);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& body) {
    if (!first) out += ',';
    first = false;
    out += '\n';
    out += body;
  };

  // Track (thread) name metadata so the viewer shows labeled rows.
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    std::string row = "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    row += std::to_string(i + 1);
    row += ",\"name\":\"thread_name\",\"args\":{\"name\":";
    append_json_string(row, track_names_[i]);
    row += "}}";
    emit(row);
  }

  char ts[64];
  for (const TraceEvent& ev : events_) {
    std::string row = "{\"ph\":\"";
    row += static_cast<char>(ev.phase);
    row += "\",\"pid\":1,\"tid\":";
    row += std::to_string(ev.track);
    // Chrome timestamps are microseconds; keep sub-us precision.
    std::snprintf(ts, sizeof(ts), "%.3f", raw(ev.time) * 1e6);
    row += ",\"ts\":";
    row += ts;
    if (!ev.category.empty()) {
      row += ",\"cat\":";
      append_json_string(row, ev.category);
    }
    if (!ev.name.empty()) {
      row += ",\"name\":";
      append_json_string(row, ev.name);
    }
    if (ev.phase == Phase::kAsyncBegin || ev.phase == Phase::kAsyncEnd) {
      row += ",\"id\":";
      row += std::to_string(ev.id);
    }
    if (ev.phase == Phase::kInstant) row += ",\"s\":\"t\"";
    if (!ev.args.empty()) {
      row += ",\"args\":{";
      for (std::size_t i = 0; i < ev.args.size(); ++i) {
        if (i) row += ',';
        append_json_string(row, ev.args[i].key);
        row += ':';
        if (ev.args[i].numeric) {
          row += ev.args[i].value;
        } else {
          append_json_string(row, ev.args[i].value);
        }
      }
      row += '}';
    }
    row += '}';
    emit(row);
  }
  out += "\n]}\n";
  return out;
}

bool EventTracer::write_chrome_trace_file(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    log::warn("EventTracer: cannot open {} for writing", path);
    return false;
  }
  f << chrome_trace_json();
  return static_cast<bool>(f);
}

void EventTracer::clear() {
  events_.clear();
  open_depth_.assign(open_depth_.size(), 0);
}

}  // namespace hero::obs
