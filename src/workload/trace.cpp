#include "workload/trace.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace hero::wl {
namespace {

/// System-prompt tokens prepended to every multi-turn session's first turn.
constexpr std::size_t kSystemPromptTokens = 256;

std::size_t sample_length(Rng& rng, double mu, double sigma, std::size_t lo,
                          std::size_t hi) {
  const double v = rng.lognormal(mu, sigma);
  const auto len = static_cast<std::size_t>(std::llround(v));
  return std::clamp(len, lo, hi);
}

}  // namespace

LengthDistribution sharegpt_lengths() {
  LengthDistribution d;
  d.input_mu = std::log(250.0);
  d.input_sigma = 0.9;
  d.input_min = 8;
  d.input_max = 2048;
  d.output_mu = std::log(180.0);
  d.output_sigma = 0.7;
  d.output_min = 8;
  d.output_max = 1024;
  return d;
}

LengthDistribution longbench_lengths() {
  LengthDistribution d;
  d.input_mu = std::log(7000.0);
  d.input_sigma = 0.5;
  d.input_min = 1024;
  d.input_max = 16384;
  d.output_mu = std::log(80.0);
  d.output_sigma = 0.5;
  d.output_min = 16;
  d.output_max = 256;
  return d;
}

Trace generate_trace(const TraceOptions& opts) {
  if (opts.rate <= 0.0) throw std::invalid_argument("generate_trace: rate");
  Rng rng(opts.seed);

  // Bursty: two-state MMPP preserving the requested mean rate.
  const double f = std::clamp(opts.burst_fraction, 0.01, 0.99);
  const Rate high_rate = opts.rate * std::max(opts.burst_multiplier, 1.0);
  Rate low_rate =
      (opts.rate - f * high_rate) / (1.0 - f);
  low_rate = std::max(low_rate, 0.05 * opts.rate);

  Trace trace;
  trace.reserve(opts.count);
  Time now = 0.0;
  bool in_burst = false;
  Time state_until = 0.0;
  if (opts.bursty) {
    state_until = rng.exponential(raw(1.0 / ((1.0 - f) / f *
                                              opts.burst_mean_duration)));
  }

  for (std::size_t i = 0; i < opts.count; ++i) {
    if (opts.bursty) {
      while (now >= state_until) {
        in_burst = !in_burst;
        const Time mean_sojourn = in_burst
                                      ? opts.burst_mean_duration
                                      : (1.0 - f) / f *
                                            opts.burst_mean_duration;
        state_until += rng.exponential(raw(1.0 / mean_sojourn));
      }
      now += rng.exponential(raw(in_burst ? high_rate : low_rate));
    } else {
      now += rng.exponential(raw(opts.rate));
    }
    Request r;
    r.id = i;
    r.arrival = now;
    r.input_tokens = sample_length(rng, opts.lengths.input_mu,
                                   opts.lengths.input_sigma,
                                   opts.lengths.input_min,
                                   opts.lengths.input_max);
    r.output_tokens = sample_length(rng, opts.lengths.output_mu,
                                    opts.lengths.output_sigma,
                                    opts.lengths.output_min,
                                    opts.lengths.output_max);
    trace.push_back(r);
  }
  return trace;
}

Trace generate_diurnal_trace(const DiurnalOptions& opts) {
  if (opts.base.rate <= 0.0 || opts.period <= 0.0) {
    throw std::invalid_argument("generate_diurnal_trace: rate/period");
  }
  if (opts.amplitude < 0.0 || opts.amplitude >= 1.0) {
    throw std::invalid_argument("generate_diurnal_trace: amplitude in [0,1)");
  }
  Rng rng(opts.base.seed);
  const Rate peak = opts.base.rate * (1.0 + opts.amplitude);

  Trace trace;
  trace.reserve(opts.base.count);
  Time now = 0.0;
  while (trace.size() < opts.base.count) {
    // Thinning: candidate arrivals at the peak rate, accepted with
    // probability rate(t) / peak.
    now += rng.exponential(raw(peak));
    const Rate rate_now =
        opts.base.rate *
        (1.0 + opts.amplitude *
                   std::sin(2.0 * 3.14159265358979323846 * now /
                            opts.period));
    if (!rng.bernoulli(rate_now / peak)) continue;
    Request r;
    r.id = trace.size();
    r.arrival = now;
    r.input_tokens = sample_length(rng, opts.base.lengths.input_mu,
                                   opts.base.lengths.input_sigma,
                                   opts.base.lengths.input_min,
                                   opts.base.lengths.input_max);
    r.output_tokens = sample_length(rng, opts.base.lengths.output_mu,
                                    opts.base.lengths.output_sigma,
                                    opts.base.lengths.output_min,
                                    opts.base.lengths.output_max);
    trace.push_back(r);
  }
  return trace;
}

Trace generate_flash_crowd_trace(const FlashCrowdOptions& opts) {
  if (opts.base.rate <= 0.0 || opts.burst_duration <= 0.0) {
    throw std::invalid_argument(
        "generate_flash_crowd_trace: rate/burst_duration");
  }
  if (opts.burst_multiplier < 1.0) {
    throw std::invalid_argument(
        "generate_flash_crowd_trace: burst_multiplier >= 1");
  }
  Rng rng(opts.base.seed);
  const Time burst_end = opts.burst_start + opts.burst_duration;
  const Rate peak = opts.base.rate * opts.burst_multiplier;

  Trace trace;
  trace.reserve(opts.base.count);
  Time now = 0.0;
  while (trace.size() < opts.base.count) {
    // Thinning against the burst rate: exact for the piecewise-constant
    // step without special-casing the boundary crossings.
    now += rng.exponential(raw(peak));
    const bool in_burst = now >= opts.burst_start && now < burst_end;
    if (!in_burst && !rng.bernoulli(1.0 / opts.burst_multiplier)) continue;
    Request r;
    r.id = trace.size();
    r.arrival = now;
    r.input_tokens = sample_length(rng, opts.base.lengths.input_mu,
                                   opts.base.lengths.input_sigma,
                                   opts.base.lengths.input_min,
                                   opts.base.lengths.input_max);
    r.output_tokens = sample_length(rng, opts.base.lengths.output_mu,
                                    opts.base.lengths.output_sigma,
                                    opts.base.lengths.output_min,
                                    opts.base.lengths.output_max);
    trace.push_back(r);
  }
  return trace;
}

Trace generate_multiturn_trace(const MultiturnOptions& opts) {
  if (opts.base.rate <= 0.0) {
    throw std::invalid_argument("generate_multiturn_trace: rate");
  }
  if (opts.mean_turns < 1.0) {
    throw std::invalid_argument("generate_multiturn_trace: mean_turns >= 1");
  }
  if (opts.multi_turn_fraction < 0.0 || opts.multi_turn_fraction > 1.0) {
    throw std::invalid_argument(
        "generate_multiturn_trace: multi_turn_fraction in [0,1]");
  }
  if (opts.think_mean <= 0.0) {
    throw std::invalid_argument("generate_multiturn_trace: think_mean");
  }
  Rng rng(opts.base.seed);

  // Sessions arrive so that the *request* rate matches base.rate in
  // expectation: expected turns per session is a mix of one-shots and
  // geometric multi-turn sessions.
  const double expected_turns =
      (1.0 - opts.multi_turn_fraction) +
      opts.multi_turn_fraction * opts.mean_turns;
  const Rate session_rate = opts.base.rate / expected_turns;
  const double continue_p =
      opts.mean_turns > 1.0 ? 1.0 - 1.0 / opts.mean_turns : 0.0;

  Trace trace;
  trace.reserve(opts.base.count + opts.base.count / 4);
  Time session_clock = 0.0;
  std::uint64_t session_id = 0;
  while (trace.size() < opts.base.count) {
    session_clock += rng.exponential(raw(session_rate));
    ++session_id;
    const bool multi_turn = rng.bernoulli(opts.multi_turn_fraction);

    Time now = session_clock;
    std::size_t context = 0;  // accumulated shareable prefix
    for (std::size_t turn = 0;; ++turn) {
      const std::size_t user = sample_length(rng, opts.base.lengths.input_mu,
                                             opts.base.lengths.input_sigma,
                                             opts.base.lengths.input_min,
                                             opts.base.lengths.input_max);
      Request r;
      r.arrival = now;
      r.session_id = session_id;
      r.prefix_tokens = context;
      r.input_tokens =
          context + user + (turn == 0 ? kSystemPromptTokens : 0);
      r.output_tokens = sample_length(rng, opts.base.lengths.output_mu,
                                      opts.base.lengths.output_sigma,
                                      opts.base.lengths.output_min,
                                      opts.base.lengths.output_max);
      trace.push_back(r);

      context = r.input_tokens + r.output_tokens;
      if (!multi_turn || context > opts.max_context_tokens ||
          !rng.bernoulli(continue_p)) {
        break;
      }
      now += rng.exponential(raw(1.0 / opts.think_mean));
    }
  }

  // Sessions were emitted whole, so interleave and trim to the requested
  // count. stable_sort keeps within-session turn order on (impossible in
  // practice, but deterministic) arrival ties.
  std::stable_sort(trace.begin(), trace.end(),
                   [](const Request& a, const Request& b) {
                     return a.arrival < b.arrival;
                   });
  trace.resize(opts.base.count);
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i].id = i;
  return trace;
}

WorkloadEstimator::WorkloadEstimator(std::size_t window)
    : input_len_(window), input_len_sq_(window), output_len_(window) {}

void WorkloadEstimator::observe(const Request& request) {
  const double in = static_cast<double>(request.input_tokens);
  input_len_.add(in);
  input_len_sq_.add(in * in);
  output_len_.add(static_cast<double>(request.output_tokens));
  ++observed_;
}

std::size_t WorkloadEstimator::k_in(std::size_t batch) const {
  return static_cast<std::size_t>(
      std::llround(static_cast<double>(batch) * input_len_.value()));
}

std::size_t WorkloadEstimator::k_in2(std::size_t batch) const {
  return static_cast<std::size_t>(
      std::llround(static_cast<double>(batch) * input_len_sq_.value()));
}

std::size_t WorkloadEstimator::k_out(std::size_t batch) const {
  return static_cast<std::size_t>(
      std::llround(static_cast<double>(batch) * output_len_.value()));
}

TraceStats summarize(const Trace& trace) {
  TraceStats stats;
  stats.count = trace.size();
  if (trace.empty()) return stats;
  double in = 0.0, out = 0.0, prefix = 0.0;
  std::set<std::uint64_t> sessions;
  for (const Request& r : trace) {
    in += static_cast<double>(r.input_tokens);
    out += static_cast<double>(r.output_tokens);
    prefix += static_cast<double>(r.prefix_tokens);
    if (r.session_id != 0) sessions.insert(r.session_id);
  }
  stats.mean_input = in / static_cast<double>(trace.size());
  stats.mean_output = out / static_cast<double>(trace.size());
  stats.sessions = sessions.size();
  stats.shareable_fraction = in > 0.0 ? prefix / in : 0.0;
  const Time makespan = trace.back().arrival - trace.front().arrival;
  stats.mean_rate = makespan > 0
                        ? static_cast<double>(trace.size() - 1) / makespan
                        : 0.0;
  return stats;
}

}  // namespace hero::wl
