// Transformer model descriptions and the data-volume arithmetic of Table I.
//
// Everything the planner and serving simulator need to know about a model:
// its shape (L, h, A, m of Table I), parameter footprint R, KV-cache bytes
// per token, and the synchronization volumes each parallel inference step
// ships over the network (paper SIII-C2: D_col(a) = D_col(f) = K_in * h per
// tensor-parallel sync step, two steps per layer).
#pragma once

#include <cstddef>
#include <string>

#include "common/units.hpp"

namespace hero::llm {

struct ModelConfig {
  std::string name;
  std::size_t layers = 0;   ///< L
  std::size_t hidden = 0;   ///< h
  std::size_t heads = 0;    ///< A
  std::size_t ffn = 0;      ///< m (FFN intermediate size)
  std::size_t vocab = 50272;
  Bytes dtype_bytes = 2.0;  ///< FP16 throughout the paper's evaluation

  /// R of Table I: weight bytes = dtype * (V*h + L*(4h^2 + 2*h*m)).
  [[nodiscard]] Bytes param_bytes() const;

  /// KV-cache bytes per token across the whole model: 2 * L * h * dtype.
  [[nodiscard]] Bytes kv_bytes_per_token() const;

  /// Tensor-parallel synchronization volume of ONE sync step for `tokens`
  /// tokens: D = tokens * h elements (paper: D_col(a) = D_col(f) = K_in h).
  [[nodiscard]] Bytes sync_volume_per_step(std::size_t tokens) const;

  /// Sync steps per transformer layer (attention output + FFN output).
  static constexpr std::size_t kSyncStepsPerLayer = 2;

  /// Total TP sync volume of one iteration on a pipeline stage holding
  /// `stage_layers` layers, for a batch carrying `tokens` tokens.
  [[nodiscard]] Bytes iteration_sync_volume(std::size_t tokens,
                                            std::size_t stage_layers) const;

  /// KV bytes one prefill GPU ships to its decode twin for a request of
  /// `k_in` tokens when the model is split `p_tens` ways (Eq. 15's D_ij
  /// summed over the layers/segments a GPU owns).
  [[nodiscard]] Bytes kv_transfer_bytes_per_gpu(std::size_t k_in,
                                                std::size_t p_tens) const;
};

/// OPT-66B (testbed model, SV).
[[nodiscard]] ModelConfig opt_66b();
/// OPT-175B (large-scale simulation model, SV).
[[nodiscard]] ModelConfig opt_175b();
/// LLaMA-3-70B (Fig. 1 cost-breakdown model).
[[nodiscard]] ModelConfig llama3_70b();
/// OPT-13B — a small model handy for tests and the quickstart example.
[[nodiscard]] ModelConfig opt_13b();

}  // namespace hero::llm
