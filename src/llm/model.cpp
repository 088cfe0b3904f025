#include "llm/model.hpp"

namespace hero::llm {

Bytes ModelConfig::param_bytes() const {
  const double h = static_cast<double>(hidden);
  const double per_layer = 4.0 * h * h + 2.0 * h * static_cast<double>(ffn);
  const double embed = static_cast<double>(vocab) * h;
  return dtype_bytes * (embed + static_cast<double>(layers) * per_layer);
}

Bytes ModelConfig::kv_bytes_per_token() const {
  return dtype_bytes * 2.0 * static_cast<double>(layers) *
         static_cast<double>(hidden);
}

Bytes ModelConfig::sync_volume_per_step(std::size_t tokens) const {
  return dtype_bytes * static_cast<double>(tokens) *
         static_cast<double>(hidden);
}

Bytes ModelConfig::iteration_sync_volume(std::size_t tokens,
                                         std::size_t stage_layers) const {
  return static_cast<double>(kSyncStepsPerLayer) *
         static_cast<double>(stage_layers) * sync_volume_per_step(tokens);
}

Bytes ModelConfig::kv_transfer_bytes_per_gpu(std::size_t k_in,
                                             std::size_t p_tens) const {
  if (p_tens == 0) p_tens = 1;
  return kv_bytes_per_token() * static_cast<double>(k_in) /
         static_cast<double>(p_tens);
}

ModelConfig opt_66b() {
  return ModelConfig{"OPT-66B", 64, 9216, 72, 4 * 9216};
}

ModelConfig opt_175b() {
  return ModelConfig{"OPT-175B", 96, 12288, 96, 4 * 12288};
}

ModelConfig llama3_70b() {
  ModelConfig cfg{"LLaMA-3-70B", 80, 8192, 64, 28672};
  cfg.vocab = 128256;
  return cfg;
}

ModelConfig opt_13b() {
  return ModelConfig{"OPT-13B", 40, 5120, 40, 4 * 5120};
}

}  // namespace hero::llm
