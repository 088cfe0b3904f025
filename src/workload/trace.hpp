// Inference request traces (paper SV "Model and workloads setup").
//
// The paper replays ShareGPT (chatbot) and LongBench (summarization)
// requests and, because those datasets carry no timestamps, draws arrival
// times from a Poisson process at a configurable rate. We reproduce that
// setup synthetically: per-dataset token-length distributions (lognormal,
// clamped to the datasets' observed ranges) plus Poisson — or optionally
// bursty Markov-modulated Poisson — arrivals. Burstiness matters: it is the
// regime where homogeneous INA collapses (SII-C) and HeroServe's online
// scheduler earns its keep.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"

namespace hero::wl {

struct Request {
  std::uint64_t id = 0;
  Time arrival = 0.0;
  std::size_t input_tokens = 0;
  std::size_t output_tokens = 0;
  /// Conversation session of a multi-turn trace. 0 = sessionless: the
  /// prefix/KV tier ignores the request entirely.
  std::uint64_t session_id = 0;
  /// Leading tokens of input_tokens that are the session's accumulated
  /// context (system prompt + prior turns, the shareable prefix); the
  /// remainder is the new user turn. Always < input_tokens.
  std::size_t prefix_tokens = 0;
};

using Trace = std::vector<Request>;

/// Clamped lognormal over request lengths.
struct LengthDistribution {
  double input_mu = 5.5;
  double input_sigma = 1.0;
  std::size_t input_min = 4;
  std::size_t input_max = 2048;
  double output_mu = 5.1;
  double output_sigma = 0.8;
  std::size_t output_min = 4;
  std::size_t output_max = 1024;
};

/// Chatbot lengths in the spirit of ShareGPT: median prompt ~250 tokens,
/// heavy right tail, replies a couple hundred tokens.
[[nodiscard]] LengthDistribution sharegpt_lengths();

/// Summarization lengths in the spirit of LongBench: prompts of several
/// thousand tokens, short generated summaries.
[[nodiscard]] LengthDistribution longbench_lengths();

struct TraceOptions {
  Rate rate = 1.0;          ///< mean arrivals per second (lambda of Table I)
  std::size_t count = 100;  ///< number of requests
  LengthDistribution lengths;
  std::uint64_t seed = 42;

  /// Markov-modulated burstiness: a fraction of time runs at
  /// `burst_multiplier` x rate, the rest at a reduced rate preserving the
  /// mean. Plain Poisson when disabled.
  bool bursty = false;
  double burst_multiplier = 3.0;
  double burst_fraction = 0.2;
  Time burst_mean_duration = 5.0;  ///< mean sojourn in the bursty state
};

[[nodiscard]] Trace generate_trace(const TraceOptions& opts);

/// Diurnal (time-of-day) rate modulation: a sinusoidal envelope over the
/// base rate, as production serving traces exhibit. `period` is the cycle
/// length in simulated seconds and `amplitude` in [0, 1) the peak-to-mean
/// swing; the mean rate is preserved. Arrivals are a non-homogeneous
/// Poisson process sampled by thinning.
struct DiurnalOptions {
  TraceOptions base;
  Time period = 600.0;
  double amplitude = 0.5;
};

[[nodiscard]] Trace generate_diurnal_trace(const DiurnalOptions& opts);

/// Flash crowd: a step burst on top of steady background traffic. The rate
/// runs at `base.rate` until `burst_start`, jumps to `burst_multiplier` x
/// the base rate for `burst_duration` seconds, then falls back — the
/// viral-moment trace an autoscaler must absorb (and recover p99 TTFT
/// from) within the window. Piecewise-homogeneous Poisson, seeded through
/// hero::Rng like every other generator.
struct FlashCrowdOptions {
  TraceOptions base;
  Time burst_start = 60.0;
  Time burst_duration = 60.0;
  double burst_multiplier = 4.0;
};

[[nodiscard]] Trace generate_flash_crowd_trace(const FlashCrowdOptions& opts);

/// Multi-turn chatbot sessions (the prefix/KV-tier workload): every session
/// opens with a system prompt, and each follow-up turn resubmits the whole
/// accumulated context (prior inputs + responses) plus a fresh user turn —
/// so `prefix_tokens` of each follow-up is exactly the context a cache that
/// saw the previous turn retire can reuse. Sessions arrive as a Poisson
/// process; turns within a session are spaced by exponential think time.
struct MultiturnOptions {
  /// rate = mean *request* arrivals per second (sessions arrive at
  /// rate / mean_turns); count, lengths (per-turn user input + response
  /// lengths) and seed as usual. Burstiness fields are ignored.
  TraceOptions base;
  /// Mean turns per multi-turn session (geometric, >= 1).
  double mean_turns = 4.0;
  /// Fraction of sessions that get follow-up turns at all; the rest are
  /// one-shot (0.0 makes the whole trace prefix-free in practice).
  double multi_turn_fraction = 1.0;
  /// Mean think time between a session's turns (simulated seconds). Keep
  /// well above typical request completion so follow-ups find their
  /// context already cached.
  Time think_mean = 30.0;
  /// A session ends once its accumulated context would exceed this.
  std::size_t max_context_tokens = 8192;
};

[[nodiscard]] Trace generate_multiturn_trace(const MultiturnOptions& opts);

/// Moving-average workload estimator (paper SIII-B: "we utilize state
/// information collected by the online scheduler module and apply a moving
/// average method to dynamically update K_in and K_out"). Feeds the
/// planner's K_in / K_out / K_in2 inputs for a hypothetical batch size Q.
class WorkloadEstimator {
 public:
  explicit WorkloadEstimator(std::size_t window = 64);

  void observe(const Request& request);

  [[nodiscard]] std::size_t observed() const { return observed_; }
  /// Estimated total input tokens of a Q-request batch (K_in).
  [[nodiscard]] std::size_t k_in(std::size_t batch) const;
  /// Estimated sum of squared input lengths (K_in2).
  [[nodiscard]] std::size_t k_in2(std::size_t batch) const;
  /// Estimated total output tokens of a Q-request batch (K_out).
  [[nodiscard]] std::size_t k_out(std::size_t batch) const;

 private:
  MovingAverage input_len_;
  MovingAverage input_len_sq_;
  MovingAverage output_len_;
  std::size_t observed_ = 0;
};

/// Summary statistics of a trace (tests / harness reporting).
struct TraceStats {
  double mean_input = 0.0;
  double mean_output = 0.0;
  Rate mean_rate = 0.0;  ///< count / makespan
  std::size_t count = 0;
  std::size_t sessions = 0;  ///< distinct non-zero session ids
  /// sum(prefix_tokens) / sum(input_tokens): the fraction of all prefill
  /// work that is a previously-served context (the KV tier's upper bound).
  double shareable_fraction = 0.0;
};

[[nodiscard]] TraceStats summarize(const Trace& trace);

}  // namespace hero::wl
