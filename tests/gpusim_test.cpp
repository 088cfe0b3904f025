// Tests for GPU specs and presets, the roofline kernel model, the least-squares solver,
// and the Eq. 12-13 profiling fit.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gpusim/latency_model.hpp"

namespace hero::gpu {
namespace {

TEST(GpuSpec, DatasheetValues) {
  const GpuSpec a100 = spec_of(topo::GpuModel::kA100_40);
  EXPECT_EQ(a100.name, "A100-40GB");
  EXPECT_DOUBLE_EQ(a100.fp16_tflops, 312.0);
  EXPECT_DOUBLE_EQ(raw(a100.memory), raw(40.0 * units::GB));
  EXPECT_GT(a100.flops(), 1e14);

  const GpuSpec v100 = spec_of(topo::GpuModel::kV100_32);
  EXPECT_LT(v100.flops(), a100.flops());
  EXPECT_LT(v100.mem_bw(), a100.mem_bw());
}

TEST(GpuPresets, H100AndL4) {
  const GpuSpec h100 = spec_of(topo::GpuModel::kH100_80);
  EXPECT_EQ(h100.name, "H100-80GB");
  EXPECT_GT(h100.flops(), spec_of(topo::GpuModel::kA100_80).flops());
  const GpuSpec l4 = spec_of(topo::GpuModel::kL4_24);
  EXPECT_DOUBLE_EQ(raw(l4.memory), raw(24.0 * units::GB));
  EXPECT_STREQ(topo::to_string(topo::GpuModel::kH100_80), "H100-80GB");
}

KernelModel a100_model(double noise = 0.0) {
  KernelModelOptions opts;
  opts.noise_sigma = noise;
  return KernelModel(spec_of(topo::GpuModel::kA100_40), llm::opt_66b(), opts,
                     1);
}

TEST(KernelModel, PrefillScalesWithTokens) {
  const KernelModel hw = a100_model();
  const Time t1 = hw.prefill_time(1024, 1024 * 1024, 64, 4);
  const Time t2 = hw.prefill_time(2048, 2048 * 2048, 64, 4);
  EXPECT_GT(t2, 1.5 * t1);
}

TEST(KernelModel, PrefillScalesInverselyWithTp) {
  const KernelModel hw = a100_model();
  const Time t1 = hw.prefill_time(2048, 1 << 21, 64, 1);
  const Time t8 = hw.prefill_time(2048, 1 << 21, 64, 8);
  EXPECT_GT(t1, 4.0 * t8);
}

TEST(KernelModel, PrefillScalesWithLayers) {
  const KernelModel hw = a100_model();
  EXPECT_NEAR(raw(hw.prefill_time(2048, 1 << 21, 64, 4)),
              raw(2.0 * hw.prefill_time(2048, 1 << 21, 32, 4)),
              raw(0.1 * hw.prefill_time(2048, 1 << 21, 64, 4)));
}

TEST(KernelModel, ZeroWorkIsFree) {
  const KernelModel hw = a100_model();
  EXPECT_DOUBLE_EQ(raw(hw.prefill_time(0, 0, 64, 4)), raw(0.0));
  EXPECT_DOUBLE_EQ(raw(hw.decode_time(0, 100, 64, 4)), raw(0.0));
  EXPECT_DOUBLE_EQ(raw(hw.decode_time(4, 100, 0, 4)), raw(0.0));
}

TEST(KernelModel, DecodeIsMemoryBoundAtSmallBatch) {
  // Weight streaming dominates: batch 1 vs batch 8 differ by < 2x.
  const KernelModel hw = a100_model();
  const Time b1 = hw.decode_time(1, 512, 64, 4);
  const Time b8 = hw.decode_time(8, 4096, 64, 4);
  EXPECT_LT(b8, 2.0 * b1);
}

TEST(KernelModel, DecodeGrowsWithContext) {
  const KernelModel hw = a100_model();
  EXPECT_GT(hw.decode_time(8, 100000, 64, 4),
            hw.decode_time(8, 1000, 64, 4));
}

TEST(KernelModel, NoiseJittersResults) {
  const KernelModel hw = a100_model(0.05);
  const Time a = hw.prefill_time(2048, 1 << 21, 64, 4);
  const Time b = hw.prefill_time(2048, 1 << 21, 64, 4);
  EXPECT_NE(a, b);
  EXPECT_NEAR(raw(a), raw(b), raw(0.5 * a));
}

TEST(KernelModel, A100PrefillLatencyPlausible) {
  // OPT-66B, 2048-token prompt, TP=8: FLOPs ~ 2*2048*1.02e9*64 / 8 per GPU
  // => a few hundred ms on effective ~140 TFLOPS.
  const KernelModel hw = a100_model();
  const Time t = hw.prefill_time(2048, 2048 * 2048, 64, 8);
  EXPECT_GT(t, 50.0 * units::ms);
  EXPECT_LT(t, 1.0);
}

// --- least squares ---

TEST(LeastSquares, RecoversExactLinearModel) {
  // y = 2 x0 - 3 x1 + 0.5
  std::vector<double> rows, y;
  for (double x0 = 0; x0 < 4; ++x0) {
    for (double x1 = 0; x1 < 4; ++x1) {
      rows.insert(rows.end(), {x0, x1, 1.0});
      y.push_back(2.0 * x0 - 3.0 * x1 + 0.5);
    }
  }
  const auto beta = solve_least_squares(rows, y, 3);
  EXPECT_NEAR(beta[0], 2.0, 1e-9);
  EXPECT_NEAR(beta[1], -3.0, 1e-9);
  EXPECT_NEAR(beta[2], 0.5, 1e-9);
}

TEST(LeastSquares, HandlesWildlyDifferentColumnScales) {
  // Column magnitudes spanning 1e15 vs 1 (the Eq. 12 situation).
  std::vector<double> rows, y;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const double a = rng.uniform(0.5, 2.0) * 1e15;
    const double b = rng.uniform(0.5, 2.0);
    rows.insert(rows.end(), {a, b});
    y.push_back(3e-15 * a + 0.25 * b);
  }
  const auto beta = solve_least_squares(rows, y, 2);
  EXPECT_NEAR(beta[0], 3e-15, 1e-18);
  EXPECT_NEAR(beta[1], 0.25, 1e-6);
}

TEST(LeastSquares, ValidatesShapes) {
  std::vector<double> rows{1.0, 2.0, 3.0};
  std::vector<double> y{1.0};
  EXPECT_THROW(solve_least_squares(rows, y, 2), std::invalid_argument);
  EXPECT_THROW(solve_least_squares(rows, y, 0), std::invalid_argument);
  // Singular: duplicated column.
  std::vector<double> srows{1.0, 1.0, 2.0, 2.0, 3.0, 3.0};
  std::vector<double> sy{1.0, 2.0, 3.0};
  EXPECT_THROW(solve_least_squares(srows, sy, 2), std::invalid_argument);
}

// --- profiling fit (Eq. 12-13) ---

TEST(ProfileFit, LowRelativeError) {
  const KernelModel hw = a100_model(0.02);
  const FitReport report = profile_and_fit(hw);
  EXPECT_GT(report.samples, 100u);
  EXPECT_LT(report.prefill_rel_err, 0.08);
  EXPECT_LT(report.decode_rel_err, 0.12);
  EXPECT_GT(report.prefill.c1, 0.0);
  EXPECT_GT(report.decode.c4, 0.0);
}

TEST(ProfileFit, PredictsHeldOutShapes) {
  const KernelModel hw = a100_model(0.0);
  const LatencyModel model = fit_latency_model(hw);
  // Shapes not on the profiling grid.
  const Time pred = model.prefill(3000, 3000 * 750, 48, 4);
  const Time truth = hw.prefill_time(3000, 3000 * 750, 48, 4);
  EXPECT_NEAR(raw(pred), raw(truth), raw(0.15 * truth));

  const Time dpred = model.decode(3000, 48, 4);
  const Time dtruth = hw.decode_time(4, 3000, 48, 4);
  EXPECT_NEAR(raw(dpred), raw(dtruth), raw(0.25 * dtruth));
}

TEST(LatencyModel, Eq12Eq13Structure) {
  // Latency is linear in the feature terms: doubling layers doubles the
  // layer-proportional parts.
  const KernelModel hw = a100_model(0.0);
  const LatencyModel model = fit_latency_model(hw);
  const Time full = model.prefill(2048, 1 << 21, 64, 4);
  const Time half = model.prefill(2048, 1 << 21, 32, 4);
  // T(L) = a*L + C3 with small C3: doubling layers roughly doubles latency.
  EXPECT_NEAR(raw(full), raw(2.0 * half), raw(0.1 * full));
  EXPECT_DOUBLE_EQ(raw(model.prefill(0, 0, 64, 4)), raw(0.0));
  EXPECT_DOUBLE_EQ(raw(model.decode(100, 0, 4)), raw(0.0));
}

TEST(LatencyModel, TpReducesPrefill) {
  const KernelModel hw = a100_model(0.0);
  const LatencyModel model = fit_latency_model(hw);
  EXPECT_GT(model.prefill(2048, 1 << 21, 64, 2),
            model.prefill(2048, 1 << 21, 64, 8));
}

}  // namespace
}  // namespace hero::gpu
