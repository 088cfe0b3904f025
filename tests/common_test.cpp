// Unit tests for the common utilities: RNG, statistics, fixed point,
// formatting, tables, unit conversions, and command-line parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/fixed_point.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace hero {
namespace {

// --- units ---

TEST(Units, BandwidthConversions) {
  EXPECT_DOUBLE_EQ(raw(100.0 * units::Gbps), 12.5e9);  // 100 Gbit/s = 12.5 GB/s
  EXPECT_DOUBLE_EQ(raw(600.0 * units::GBps), 600e9);
  EXPECT_DOUBLE_EQ(raw(1.0 * units::MiB), 1048576.0);
}

TEST(Units, TransferTime) {
  // 1 MB over 100 Gbps is 80 us (the Fig. 2 per-hop number).
  EXPECT_NEAR(raw(transfer_time(1.0 * units::MB, 100.0 * units::Gbps)),
              raw(80.0 * units::us), 1e-12);
}

TEST(Units, TransferOverDeadLinkNeverCompletes) {
  // Regression: a zero-bandwidth link used to "complete" transfers in 0 s,
  // silently pricing dead paths as free. It must be infinitely slow.
  EXPECT_TRUE(std::isinf(raw(transfer_time(123.0 * units::B, Bandwidth{0.0}))));
  EXPECT_GT(transfer_time(1.0 * units::B, Bandwidth{0.0}),
            transfer_time(1.0 * units::GiB, 1.0 * units::bps));
  EXPECT_TRUE(
      std::isinf(raw(transfer_time(1.0 * units::MiB, -1.0 * units::GBps))));
}

// --- rng ---

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_int(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntZeroIsZero) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform_int(0), 0u);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.08);
  EXPECT_NEAR(s.stddev(), 2.0, 0.08);
}

TEST(Rng, LognormalMedian) {
  Rng rng(17);
  Percentiles p;
  for (int i = 0; i < 20000; ++i) p.add(rng.lognormal(std::log(100.0), 0.5));
  EXPECT_NEAR(p.median(), 100.0, 5.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(23);
  std::vector<double> w{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 10000.0, 0.75, 0.03);
}

TEST(Rng, WeightedIndexEmptyOrNonpositive) {
  Rng rng(29);
  EXPECT_EQ(rng.weighted_index({}), 0u);
  EXPECT_EQ(rng.weighted_index({0.0, 0.0}), 0u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

// --- Summary ---

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, MergeMatchesCombined) {
  Summary a, b, all;
  Rng rng(41);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.normal();
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

// --- Percentiles ---

TEST(Percentiles, ExactQuantiles) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 100.0);
  EXPECT_NEAR(p.median(), 50.5, 1e-9);
  EXPECT_NEAR(p.p90(), 90.1, 1e-9);
}

TEST(Percentiles, InterpolatesBetweenSamples) {
  Percentiles p;
  p.add(0.0);
  p.add(10.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.25), 2.5);
}

TEST(Percentiles, FractionBelow) {
  Percentiles p;
  for (int i = 1; i <= 10; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.fraction_below(5.0), 0.5);
  EXPECT_DOUBLE_EQ(p.fraction_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(p.fraction_below(10.0), 1.0);
}

TEST(Percentiles, EmptyReturnsZero) {
  Percentiles p;
  EXPECT_DOUBLE_EQ(p.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(p.mean(), 0.0);
  EXPECT_DOUBLE_EQ(p.fraction_below(1.0), 0.0);
}

TEST(Percentiles, AddAfterQuantileStillSorted) {
  Percentiles p;
  p.add(5.0);
  EXPECT_DOUBLE_EQ(p.median(), 5.0);
  p.add(1.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
}

// --- Ewma ---

TEST(Ewma, FirstObservationSeeds) {
  Ewma e(0.5);
  e.observe(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, SmoothsTowardNewValues) {
  Ewma e(0.5);
  e.observe(0.0);
  e.observe(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
  e.observe(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 7.5);
}

// --- TimeWeighted ---

TEST(TimeWeighted, PiecewiseConstantAverage) {
  TimeWeighted tw;
  tw.observe(0.0, 1.0);
  tw.observe(1.0, 3.0);  // value was 1.0 on [0,1)
  tw.observe(3.0, 0.0);  // value was 3.0 on [1,3)
  EXPECT_DOUBLE_EQ(tw.average(), (1.0 * 1.0 + 3.0 * 2.0) / 3.0);
  EXPECT_DOUBLE_EQ(tw.peak(), 3.0);
  EXPECT_DOUBLE_EQ(tw.current(), 0.0);
}

TEST(TimeWeighted, SingleObservationAverageIsValue) {
  TimeWeighted tw;
  tw.observe(5.0, 2.0);
  EXPECT_DOUBLE_EQ(tw.average(), 2.0);
}

// --- Histogram ---

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bucket 0
  h.add(9.99);  // bucket 4
  h.add(-1.0);  // clamps to 0
  h.add(100.0); // clamps to 4
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(1), 4.0);
}

TEST(Histogram, RejectsDegenerateShapes) {
  EXPECT_THROW(Histogram(0.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

// --- MovingAverage ---

TEST(MovingAverage, WindowedMean) {
  MovingAverage ma(3);
  ma.add(1.0);
  EXPECT_DOUBLE_EQ(ma.value(), 1.0);
  ma.add(2.0);
  ma.add(3.0);
  EXPECT_DOUBLE_EQ(ma.value(), 2.0);
  ma.add(10.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(ma.value(), 5.0);
}

TEST(MovingAverage, RejectsZeroWindow) {
  EXPECT_THROW(MovingAverage(0), std::invalid_argument);
}

// --- fixed point ---

TEST(FixedPoint, RoundTripSmallValues) {
  FixedPointFormat fmt;
  for (double v : {0.0, 1.0, -1.0, 0.5, 3.14159, -123.456}) {
    EXPECT_NEAR(from_fixed(to_fixed(v, fmt), fmt), v, 1.0 / fmt.scale());
  }
}

TEST(FixedPoint, EncodeSaturates) {
  FixedPointFormat fmt{16};
  EXPECT_EQ(to_fixed(1e12, fmt), std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(to_fixed(-1e12, fmt), std::numeric_limits<std::int32_t>::min());
}

TEST(FixedPoint, SaturatingAdd) {
  EXPECT_EQ(saturating_add(1, 2), 3);
  EXPECT_EQ(saturating_add(std::numeric_limits<std::int32_t>::max(), 1),
            std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(saturating_add(std::numeric_limits<std::int32_t>::min(), -1),
            std::numeric_limits<std::int32_t>::min());
}

TEST(FixedPoint, VectorAggregationMatchesFloatSum) {
  FixedPointFormat fmt;
  Rng rng(43);
  std::vector<double> a(32), b(32), c(32);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.normal();
    b[i] = rng.normal();
    c[i] = rng.normal();
  }
  auto acc = encode_vector(a, fmt);
  aggregate_into(acc, encode_vector(b, fmt));
  aggregate_into(acc, encode_vector(c, fmt));
  const auto sum = decode_vector(acc, fmt);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(sum[i], a[i] + b[i] + c[i], 3.0 / fmt.scale());
  }
}

TEST(FixedPoint, AggregateSizeMismatchThrows) {
  std::vector<std::int32_t> a(4, 0), b(5, 0);
  EXPECT_THROW(aggregate_into(a, b), std::invalid_argument);
}

/// Precision property across fixed-point formats.
class FixedPointFormatTest : public ::testing::TestWithParam<int> {};

TEST_P(FixedPointFormatTest, QuantizationErrorBounded) {
  const FixedPointFormat fmt{GetParam()};
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(-100.0, 100.0);
    EXPECT_LE(std::abs(from_fixed(to_fixed(v, fmt), fmt) - v),
              0.5 / fmt.scale() + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(FracBits, FixedPointFormatTest,
                         ::testing::Values(8, 12, 16, 20));

// --- format ---

TEST(Format, ReplacesPlaceholders) {
  EXPECT_EQ(strfmt("a={} b={}", 1, "x"), "a=1 b=x");
}

TEST(Format, LiteralBraces) {
  EXPECT_EQ(strfmt("{{}} {}", 5), "{} 5");
}

TEST(Format, ExtraArgumentsDropped) {
  EXPECT_EQ(strfmt("only {}", 1, 2, 3), "only 1");
}

TEST(Format, MissingArgumentsLeaveTail) {
  EXPECT_EQ(strfmt("a={} b={}", 1), "a=1 b={}");
}

// --- table ---

TEST(Table, RendersAlignedGrid) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row_values("y", {2.5}, 1);
  const std::string out = t.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| x"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
  // Header, 2 rows, 3 separators = 6 lines.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 6);
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NE(t.render().find("only"), std::string::npos);
}

TEST(FmtDouble, Precision) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(1.0, 0), "1");
}

// --- command line ---

/// parse_args over `args` (argv[0] supplied), as a binary's main sees it.
cli::Options parse(std::vector<std::string> args) {
  std::vector<char*> argv{const_cast<char*>("demo")};
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(argv.size()) - 1;
  return cli::parse_args(argc, argv.data(), "demo [rate] [count]");
}

TEST(Cli, PositionalsParseWholeTokens) {
  const cli::Options opts = parse({"2.5", "80", "--seed", "4"});
  EXPECT_EQ(opts.seed, 4u);
  EXPECT_DOUBLE_EQ(cli::positional_double(opts, 0, 1.0), 2.5);
  EXPECT_EQ(cli::positional_size(opts, 1, 1), 80u);
  EXPECT_DOUBLE_EQ(cli::positional_double(opts, 2, 1.5), 1.5);
  EXPECT_EQ(cli::positional_size(opts, 2, 7), 7u);
  EXPECT_DOUBLE_EQ(cli::positional_double(parse({"1e1"}), 0, 1.0), 10.0);
}

TEST(CliDeathTest, RejectsMalformedNumbers) {
  EXPECT_EXIT((void)cli::positional_double(parse({"junk"}), 0, 1.0),
              ::testing::ExitedWithCode(1),
              "bad argument 'junk'.*usage: demo");
  EXPECT_EXIT((void)cli::positional_double(parse({"2x"}), 0, 1.0),
              ::testing::ExitedWithCode(1), "bad argument '2x'");
  EXPECT_EXIT((void)cli::positional_double(parse({"nan"}), 0, 1.0),
              ::testing::ExitedWithCode(1), "finite number");
  EXPECT_EXIT((void)cli::positional_double(parse({"inf"}), 0, 1.0),
              ::testing::ExitedWithCode(1), "finite number");
}

TEST(CliDeathTest, RejectsMalformedCounts) {
  EXPECT_EXIT((void)cli::positional_size(parse({"abc"}), 0, 1),
              ::testing::ExitedWithCode(1),
              "bad argument 'abc'.*usage: demo");
  EXPECT_EXIT((void)cli::positional_size(parse({"1.5"}), 0, 1),
              ::testing::ExitedWithCode(1), "non-negative integer");
  EXPECT_EXIT((void)cli::positional_size(parse({"10abc"}), 0, 1),
              ::testing::ExitedWithCode(1), "bad argument '10abc'");
}

TEST(CliDeathTest, BadPositionalNamesTokenAndReason) {
  EXPECT_EXIT(cli::bad_positional(parse({"2", "0"}), 1, "count must be >= 1"),
              ::testing::ExitedWithCode(1),
              "bad argument '0': count must be >= 1.*usage: demo");
}

TEST(Cli, LoadOrExitPassesValueThrough) {
  EXPECT_EQ(cli::load_or_exit([] { return 42; }), 42);
}

TEST(CliDeathTest, LoadOrExitTurnsThrowIntoCleanError) {
  EXPECT_EXIT(cli::load_or_exit([]() -> int {
                throw std::runtime_error("cannot open plan.json");
              }),
              ::testing::ExitedWithCode(1), "error: cannot open plan.json");
}

}  // namespace
}  // namespace hero
