// Tests for trace generation (Poisson and bursty arrivals, dataset-style
// length distributions) and the moving-average workload estimator.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>

#include "workload/trace.hpp"

namespace hero::wl {
namespace {

TEST(Trace, DeterministicForSeed) {
  TraceOptions opts;
  opts.rate = 2.0;
  opts.count = 50;
  opts.seed = 9;
  const Trace a = generate_trace(opts);
  const Trace b = generate_trace(opts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(raw(a[i].arrival), raw(b[i].arrival));
    EXPECT_EQ(a[i].input_tokens, b[i].input_tokens);
    EXPECT_EQ(a[i].output_tokens, b[i].output_tokens);
  }
}

TEST(Trace, ArrivalsMonotoneAndIdsSequential) {
  const Trace t = generate_trace(
      {.rate = 5.0, .count = 100, .lengths = {}, .seed = 1});
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_GE(t[i].arrival, t[i - 1].arrival);
    EXPECT_EQ(t[i].id, i);
  }
}

TEST(Trace, PoissonRateMatches) {
  TraceOptions opts;
  opts.rate = 10.0;
  opts.count = 5000;
  const TraceStats stats = summarize(generate_trace(opts));
  EXPECT_NEAR(raw(stats.mean_rate), raw(10.0), 0.5);
}

TEST(Trace, RejectsNonPositiveRate) {
  TraceOptions opts;
  opts.rate = 0.0;
  EXPECT_THROW(generate_trace(opts), std::invalid_argument);
}

TEST(Trace, LengthsWithinClamps) {
  TraceOptions opts;
  opts.count = 500;
  opts.lengths = sharegpt_lengths();
  for (const Request& r : generate_trace(opts)) {
    EXPECT_GE(r.input_tokens, opts.lengths.input_min);
    EXPECT_LE(r.input_tokens, opts.lengths.input_max);
    EXPECT_GE(r.output_tokens, opts.lengths.output_min);
    EXPECT_LE(r.output_tokens, opts.lengths.output_max);
  }
}

TEST(Trace, ShareGptVersusLongBenchShapes) {
  TraceOptions chat;
  chat.count = 2000;
  chat.lengths = sharegpt_lengths();
  TraceOptions summ;
  summ.count = 2000;
  summ.lengths = longbench_lengths();
  const TraceStats c = summarize(generate_trace(chat));
  const TraceStats s = summarize(generate_trace(summ));
  // Summarization prompts are an order of magnitude longer, outputs shorter.
  EXPECT_GT(s.mean_input, 8.0 * c.mean_input);
  EXPECT_LT(s.mean_output, c.mean_output);
  EXPECT_NEAR(c.mean_input, 300.0, 120.0);
  EXPECT_NEAR(s.mean_input, 7500.0, 1500.0);
}

TEST(Trace, BurstyPreservesMeanRate) {
  TraceOptions opts;
  opts.rate = 10.0;
  opts.count = 8000;
  opts.bursty = true;
  opts.burst_multiplier = 4.0;
  opts.burst_fraction = 0.2;
  const TraceStats stats = summarize(generate_trace(opts));
  EXPECT_NEAR(raw(stats.mean_rate), raw(10.0), 2.0);
}

TEST(Trace, BurstyHasHigherVariance) {
  TraceOptions opts;
  opts.rate = 10.0;
  opts.count = 4000;
  auto gap_var = [](const Trace& t) {
    const double n = static_cast<double>(t.size() - 1);
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t i = 1; i < t.size(); ++i) {
      const double gap = raw(t[i].arrival - t[i - 1].arrival);
      sum += gap;
      sum_sq += gap * gap;
    }
    return (sum_sq - sum * sum / n) / (n - 1.0);
  };
  const double poisson_var = gap_var(generate_trace(opts));
  opts.bursty = true;
  opts.burst_multiplier = 5.0;
  const double bursty_var = gap_var(generate_trace(opts));
  EXPECT_GT(bursty_var, 1.5 * poisson_var);
}

// --- diurnal + flash-crowd generators (autoscaling traces) ---

TEST(Diurnal, DeterministicForSeed) {
  DiurnalOptions opts;
  opts.base.rate = 4.0;
  opts.base.count = 200;
  opts.base.seed = 21;
  opts.period = 120.0;
  opts.amplitude = 0.6;
  const Trace a = generate_diurnal_trace(opts);
  const Trace b = generate_diurnal_trace(opts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(raw(a[i].arrival), raw(b[i].arrival));
    EXPECT_EQ(a[i].input_tokens, b[i].input_tokens);
    EXPECT_EQ(a[i].output_tokens, b[i].output_tokens);
  }
  opts.base.seed = 22;
  const Trace c = generate_diurnal_trace(opts);
  ASSERT_EQ(c.size(), a.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = raw(a[i].arrival) < raw(c[i].arrival) ||
              raw(c[i].arrival) < raw(a[i].arrival);
  }
  EXPECT_TRUE(differs) << "different seeds produced identical arrivals";
}

TEST(Diurnal, ModulatesRateAroundTheMean) {
  // Peak half-period carries more arrivals than the trough half-period.
  DiurnalOptions opts;
  opts.base.rate = 10.0;
  opts.base.count = 4000;
  opts.period = 200.0;
  opts.amplitude = 0.8;
  const Trace t = generate_diurnal_trace(opts);
  std::size_t peak_half = 0, trough_half = 0;
  for (const Request& r : t) {
    const double phase =
        raw(r.arrival) / raw(opts.period) -
        std::floor(raw(r.arrival) / raw(opts.period));
    (phase < 0.5 ? peak_half : trough_half) += 1;
  }
  EXPECT_GT(peak_half, trough_half + trough_half / 2);
}

TEST(Diurnal, PreservesMeanRate) {
  DiurnalOptions opts;
  opts.base.rate = 10.0;
  opts.base.count = 8000;
  opts.period = 100.0;
  opts.amplitude = 0.6;
  const Trace t = generate_diurnal_trace(opts);
  EXPECT_NEAR(raw(summarize(t).mean_rate), raw(10.0), 1.0);
}

TEST(Diurnal, Validation) {
  DiurnalOptions opts;
  opts.amplitude = 1.5;
  EXPECT_THROW(generate_diurnal_trace(opts), std::invalid_argument);
  opts.amplitude = 0.5;
  opts.period = 0.0;
  EXPECT_THROW(generate_diurnal_trace(opts), std::invalid_argument);
}

TEST(FlashCrowd, DeterministicForSeed) {
  FlashCrowdOptions opts;
  opts.base.rate = 3.0;
  opts.base.count = 300;
  opts.base.seed = 33;
  opts.burst_start = 20.0;
  opts.burst_duration = 30.0;
  opts.burst_multiplier = 5.0;
  const Trace a = generate_flash_crowd_trace(opts);
  const Trace b = generate_flash_crowd_trace(opts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(raw(a[i].arrival), raw(b[i].arrival));
    EXPECT_EQ(a[i].input_tokens, b[i].input_tokens);
    EXPECT_EQ(a[i].output_tokens, b[i].output_tokens);
  }
}

TEST(FlashCrowd, BurstWindowRunsAtMultipliedRate) {
  FlashCrowdOptions opts;
  opts.base.rate = 5.0;
  opts.base.count = 4000;
  opts.burst_start = 100.0;
  opts.burst_duration = 100.0;
  opts.burst_multiplier = 4.0;
  const Trace t = generate_flash_crowd_trace(opts);
  std::size_t in_burst = 0, before = 0;
  for (const Request& r : t) {
    if (r.arrival >= opts.burst_start &&
        r.arrival < opts.burst_start + opts.burst_duration) {
      ++in_burst;
    } else if (r.arrival < opts.burst_start) {
      ++before;
    }
  }
  // Equal-length windows: the burst should carry ~4x the arrivals.
  EXPECT_GT(in_burst, 3 * before);
  EXPECT_GT(before, 0u);
}

TEST(FlashCrowd, RejectsBadOptions) {
  FlashCrowdOptions opts;
  opts.burst_multiplier = 0.5;
  EXPECT_THROW(generate_flash_crowd_trace(opts), std::invalid_argument);
  opts.burst_multiplier = 2.0;
  opts.burst_duration = 0.0;
  EXPECT_THROW(generate_flash_crowd_trace(opts), std::invalid_argument);
}

// --- multi-turn sessions (prefix/KV-tier workload) ---

TEST(Multiturn, DeterministicForSeed) {
  MultiturnOptions opts;
  opts.base.rate = 4.0;
  opts.base.count = 300;
  opts.base.seed = 17;
  const Trace a = generate_multiturn_trace(opts);
  const Trace b = generate_multiturn_trace(opts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(raw(a[i].arrival), raw(b[i].arrival));
    EXPECT_EQ(a[i].input_tokens, b[i].input_tokens);
    EXPECT_EQ(a[i].output_tokens, b[i].output_tokens);
    EXPECT_EQ(a[i].session_id, b[i].session_id);
    EXPECT_EQ(a[i].prefix_tokens, b[i].prefix_tokens);
  }
}

TEST(Multiturn, PrefixChainsAreConsistent) {
  MultiturnOptions opts;
  opts.base.rate = 5.0;
  opts.base.count = 500;
  opts.base.seed = 3;
  const Trace t = generate_multiturn_trace(opts);
  // Per-session bookkeeping: last seen turn's input+output per session.
  std::map<std::uint64_t, std::size_t> context;
  std::map<std::uint64_t, Time> last_arrival;
  for (const Request& r : t) {
    ASSERT_NE(r.session_id, 0u);  // every multiturn request has a session
    ASSERT_LT(r.prefix_tokens, r.input_tokens);
    const auto it = context.find(r.session_id);
    if (it == context.end()) {
      // First turn: the only shareable prefix is the system prompt, which
      // no earlier request served -> prefix_tokens must be 0.
      EXPECT_EQ(r.prefix_tokens, 0u);
    } else {
      // Follow-up: the declared prefix is exactly the accumulated context
      // (previous turn's input + output), and turns are time-ordered.
      EXPECT_EQ(r.prefix_tokens, it->second);
      EXPECT_GT(r.arrival, last_arrival[r.session_id]);
    }
    context[r.session_id] = r.input_tokens + r.output_tokens;
    last_arrival[r.session_id] = r.arrival;
  }
}

TEST(Multiturn, ContextCapEndsSessions) {
  MultiturnOptions opts;
  opts.base.rate = 5.0;
  opts.base.count = 800;
  opts.mean_turns = 50.0;  // would run forever without the cap
  opts.max_context_tokens = 2048;
  const Trace t = generate_multiturn_trace(opts);
  for (const Request& r : t) {
    EXPECT_LE(r.prefix_tokens, opts.max_context_tokens);
  }
}

TEST(Multiturn, ShareableFractionScalesWithTurns) {
  MultiturnOptions oneshot;
  oneshot.base.rate = 8.0;
  oneshot.base.count = 1500;
  oneshot.multi_turn_fraction = 0.0;
  const TraceStats a = summarize(generate_multiturn_trace(oneshot));
  EXPECT_DOUBLE_EQ(a.shareable_fraction, 0.0);
  EXPECT_GT(a.sessions, 0u);

  MultiturnOptions chat = oneshot;
  chat.multi_turn_fraction = 1.0;
  chat.mean_turns = 5.0;
  const TraceStats b = summarize(generate_multiturn_trace(chat));
  // Accumulated contexts dominate long sessions' prefill.
  EXPECT_GT(b.shareable_fraction, 0.4);
  EXPECT_LT(b.shareable_fraction, 1.0);
  EXPECT_LT(b.sessions, a.sessions);  // same request count, longer sessions
}

TEST(Multiturn, RejectsBadOptions) {
  MultiturnOptions opts;
  opts.mean_turns = 0.5;
  EXPECT_THROW(generate_multiturn_trace(opts), std::invalid_argument);
  opts.mean_turns = 4.0;
  opts.multi_turn_fraction = 1.5;
  EXPECT_THROW(generate_multiturn_trace(opts), std::invalid_argument);
  opts.multi_turn_fraction = 1.0;
  opts.think_mean = 0.0;
  EXPECT_THROW(generate_multiturn_trace(opts), std::invalid_argument);
}

TEST(Summarize, EmptyTrace) {
  const TraceStats s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(raw(s.mean_rate), raw(0.0));
}

// --- estimator ---

TEST(Estimator, TracksMovingAverages) {
  WorkloadEstimator est(4);
  est.observe(Request{0, 0, 100, 50});
  est.observe(Request{1, 0, 200, 100});
  EXPECT_EQ(est.observed(), 2u);
  EXPECT_EQ(est.k_in(2), 300u);   // 2 * avg(150)
  EXPECT_EQ(est.k_out(2), 150u);  // 2 * avg(75)
  // K_in2 = Q * avg(l^2) = 2 * (100^2 + 200^2)/2.
  EXPECT_EQ(est.k_in2(2), 50000u);
}

TEST(Estimator, WindowEvictsOldSamples) {
  WorkloadEstimator est(2);
  est.observe(Request{0, 0, 1000, 1});
  est.observe(Request{1, 0, 100, 1});
  est.observe(Request{2, 0, 100, 1});  // evicts the 1000
  EXPECT_EQ(est.k_in(1), 100u);
}

TEST(Estimator, PaperEstimatesForBatch) {
  // Feeding a ShareGPT-like trace gives K_in near Q * mean-input.
  WorkloadEstimator est(64);
  TraceOptions opts;
  opts.count = 64;
  opts.lengths = sharegpt_lengths();
  const Trace t = generate_trace(opts);
  for (const Request& r : t) est.observe(r);
  const TraceStats stats = summarize(t);
  EXPECT_NEAR(static_cast<double>(est.k_in(8)), 8.0 * stats.mean_input,
              8.0);
}

}  // namespace
}  // namespace hero::wl
