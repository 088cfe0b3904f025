// The paper's fitted compute-latency model (Eq. 12-13) and the profiler
// that produces it.
//
//   T_c^pre = C1/P_t * (4h^2 K_in + 2hm K_in) + C2/(b P_t) * 3h K_in2 + C3
//   T_c^dec = C4/(P_t P_p) * (4h^2 + 2hm)     + C5/(P_t P_p) * 3h K_in + C6
//
// "Similar to the existing works, we use a profiling and interpolation
//  approach to figure out the values of C1 to C6." (SIII-C2)
//
// Here profiling means timing the ground-truth KernelModel over a grid of
// batch shapes and parallelism widths, then solving the linear
// least-squares system for C1..C3 and C4..C6. The planner consumes the
// fitted LatencyModel; the serving simulator keeps running on KernelModel,
// so planner estimates carry realistic fitting error.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "gpusim/kernel_model.hpp"

namespace hero::gpu {

/// Solve min ||X beta - y||_2 for small column counts via normal equations
/// (Gaussian elimination with partial pivoting). `rows` is row-major with
/// `cols` entries per sample. Throws std::invalid_argument on shape errors
/// or a singular system.
[[nodiscard]] std::vector<double> solve_least_squares(
    std::span<const double> rows, std::span<const double> y,
    std::size_t cols);

struct PrefillCoeffs {
  double c1 = 0, c2 = 0, c3 = 0;
};
struct DecodeCoeffs {
  double c4 = 0, c5 = 0, c6 = 0;
};

class LatencyModel {
 public:
  LatencyModel(llm::ModelConfig model, PrefillCoeffs pre, DecodeCoeffs dec,
               std::size_t attn_block = 16);

  /// Eq. 12 evaluated per pipeline stage (`stage_layers` of the model's L
  /// layers; L is folded out of C1/C2 so stages scale linearly).
  [[nodiscard]] Time prefill(std::size_t k_in, std::size_t k_in2,
                             std::size_t stage_layers,
                             std::size_t p_tens) const;

  /// Eq. 13 per pipeline stage; `k_ctx` is the batch's total context tokens
  /// (the paper's K_in at decode time).
  [[nodiscard]] Time decode(std::size_t k_ctx, std::size_t stage_layers,
                            std::size_t p_tens) const;

  [[nodiscard]] const llm::ModelConfig& model() const { return model_; }

 private:
  llm::ModelConfig model_;
  PrefillCoeffs pre_;
  DecodeCoeffs dec_;
  std::size_t attn_block_;
};

struct FitReport {
  PrefillCoeffs prefill;
  DecodeCoeffs decode;
  double prefill_rel_err = 0.0;  ///< mean |pred-true|/true over the grid
  double decode_rel_err = 0.0;
  std::size_t samples = 0;
};

/// Profile `hw` over a grid of (K_in, K_in2, stage_layers, P_tens) shapes
/// and fit C1..C6. `repeats` timing runs are averaged per grid point to tame
/// the kernel jitter.
[[nodiscard]] FitReport profile_and_fit(const KernelModel& hw,
                                        std::size_t attn_block = 16,
                                        std::size_t repeats = 3);

/// Convenience: profile + wrap into a LatencyModel.
[[nodiscard]] LatencyModel fit_latency_model(const KernelModel& hw,
                                             std::size_t attn_block = 16);

}  // namespace hero::gpu
