// Ground-truth GPU kernel timing — the simulated "hardware" that iterations
// actually run on.
//
// The serving simulator executes compute through this roofline model, while
// the planner only sees the *fitted* linear model of Eq. 12-13 obtained by
// profiling it (see latency_model.hpp). Keeping the two distinct reproduces
// the real profile-vs-hardware gap that the paper's planner tolerates.
//
// Prefill (compute bound):  FLOPs = K_in * (4h^2 + 2hm) * 2 per layer for
// the GEMMs plus 4 * K_in^2 * h for attention score/value matmuls, divided
// across P_tens tensor shards.
// Decode (memory bound):    every generated token streams the stage's
// weights and the batch's KV cache from HBM; the roofline takes
// max(compute, memory) plus fixed kernel overheads.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "gpusim/gpu_spec.hpp"
#include "llm/model.hpp"

namespace hero::gpu {

struct KernelModelOptions {
  double noise_sigma = 0.02;      ///< lognormal run-to-run jitter
};

class KernelModel {
 public:
  KernelModel(GpuSpec spec, llm::ModelConfig model,
              KernelModelOptions opts = {}, std::uint64_t seed = 1);

  /// One prefill iteration on one pipeline stage.
  /// `k_in`  — total input tokens in the batch (K_in);
  /// `k_in2` — sum of squared per-request input lengths (K_in2);
  /// `stage_layers` — transformer layers hosted by this stage;
  /// `p_tens` — tensor-parallel width.
  [[nodiscard]] Time prefill_time(std::size_t k_in, std::size_t k_in2,
                                  std::size_t stage_layers,
                                  std::size_t p_tens) const;

  /// One decode iteration on one pipeline stage.
  /// `batch` — requests decoding this iteration (each producing one token);
  /// `context_tokens` — total KV-cache tokens read (sum of context lengths).
  [[nodiscard]] Time decode_time(std::size_t batch,
                                 std::size_t context_tokens,
                                 std::size_t stage_layers,
                                 std::size_t p_tens) const;

  [[nodiscard]] const GpuSpec& spec() const { return spec_; }
  [[nodiscard]] const llm::ModelConfig& model() const { return model_; }

 private:
  GpuSpec spec_;
  llm::ModelConfig model_;
  KernelModelOptions opts_;
  mutable Rng rng_;

  [[nodiscard]] double noise() const;
};

}  // namespace hero::gpu
