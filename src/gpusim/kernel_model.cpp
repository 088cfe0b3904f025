#include "gpusim/kernel_model.hpp"

#include <algorithm>
#include <cmath>

namespace hero::gpu {
namespace {

/// Kernel launch overhead, per layer.
constexpr Time kKernelOverhead = 15.0 * units::us;
/// Per-iteration overhead: Python runtime etc. (C3).
constexpr Time kIterationOverhead = 250.0 * units::us;

}  // namespace

KernelModel::KernelModel(GpuSpec spec, llm::ModelConfig model,
                         KernelModelOptions opts, std::uint64_t seed)
    : spec_(std::move(spec)), model_(std::move(model)), opts_(opts),
      rng_(seed) {}

double KernelModel::noise() const {
  if (opts_.noise_sigma <= 0) return 1.0;
  return rng_.lognormal(0.0, opts_.noise_sigma);
}

Time KernelModel::prefill_time(std::size_t k_in, std::size_t k_in2,
                               std::size_t stage_layers,
                               std::size_t p_tens) const {
  if (k_in == 0 || stage_layers == 0) return 0.0;
  p_tens = std::max<std::size_t>(p_tens, 1);
  const double h = static_cast<double>(model_.hidden);
  const double m = static_cast<double>(model_.ffn);
  const double kin = static_cast<double>(k_in);
  const double kin2 = static_cast<double>(std::max(k_in2, k_in));

  // GEMMs: QKV+O projections (4h^2) and the two FFN matmuls (2hm), 2 FLOPs
  // per MAC, sharded across tensor-parallel workers.
  const WorkUnits gemm_flops = 2.0 * kin * (4.0 * h * h + 2.0 * h * m);
  // Attention: QK^T and PV, each 2 * l_i^2 * h FLOPs per request.
  const WorkUnits attn_flops = 4.0 * kin2 * h;
  const WorkUnits flops_per_layer =
      (gemm_flops + attn_flops) / static_cast<double>(p_tens);

  const double layers = static_cast<double>(stage_layers);
  const Time compute = layers * flops_per_layer / spec_.flops();
  const Time overhead = layers * kKernelOverhead + kIterationOverhead;
  return (compute + overhead) * noise();
}

Time KernelModel::decode_time(std::size_t batch, std::size_t context_tokens,
                              std::size_t stage_layers,
                              std::size_t p_tens) const {
  if (batch == 0 || stage_layers == 0) return 0.0;
  p_tens = std::max<std::size_t>(p_tens, 1);
  const double h = static_cast<double>(model_.hidden);
  const double m = static_cast<double>(model_.ffn);
  const double q = static_cast<double>(batch);
  const double ctx = static_cast<double>(context_tokens);
  const double shard = 1.0 / static_cast<double>(p_tens);

  // Weight streaming: every decode step reads the stage's weight shard once.
  const Bytes weight_bytes =
      model_.dtype_bytes * (4.0 * h * h + 2.0 * h * m) * shard;
  // KV streaming: attention reads the cached keys/values of every context
  // token in the batch.
  const Bytes kv_bytes = model_.dtype_bytes * 2.0 * ctx * h * shard;
  const Time mem_per_layer = (weight_bytes + kv_bytes) / spec_.mem_bw();

  const WorkUnits gemm_flops = 2.0 * q * (4.0 * h * h + 2.0 * h * m) * shard;
  const WorkUnits attn_flops = 4.0 * ctx * h * shard;
  const Time compute_per_layer = (gemm_flops + attn_flops) / spec_.flops();

  const double layers = static_cast<double>(stage_layers);
  const Time busy = layers * std::max(mem_per_layer, compute_per_layer);
  const Time overhead = layers * kKernelOverhead + kIterationOverhead;
  return (busy + overhead) * noise();
}

}  // namespace hero::gpu
