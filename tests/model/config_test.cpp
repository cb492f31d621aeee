#include "model/config.hpp"

#include <gtest/gtest.h>

namespace daop::model {
namespace {

TEST(Config, MixtralMatchesPaperTableIII) {
  const ModelConfig c = mixtral_8x7b();
  EXPECT_EQ(c.n_layers, 32);
  EXPECT_EQ(c.n_experts, 8);
  EXPECT_EQ(c.top_k, 2);
  // Paper Table III: 45.1B expert params, 46.6B total.
  EXPECT_NEAR(c.expert_params_total() / 1e9, 45.1, 0.2);
  EXPECT_NEAR(c.total_params() / 1e9, 46.6, 0.3);
}

TEST(Config, PhiMatchesPaperTableIII) {
  const ModelConfig c = phi35_moe();
  EXPECT_EQ(c.n_layers, 32);
  EXPECT_EQ(c.n_experts, 16);
  EXPECT_EQ(c.top_k, 2);
  // Paper Table III: 40.3B expert params, 41.7B total.
  EXPECT_NEAR(c.expert_params_total() / 1e9, 40.3, 0.3);
  EXPECT_NEAR(c.total_params() / 1e9, 41.7, 0.4);
}

TEST(Config, MixtralExpertSizeIsAboutThreeHundredMiB) {
  const ModelConfig c = mixtral_8x7b();
  // 3 x 4096 x 14336 fp16 = 336 MiB: the object whose migration costs
  // ~40 ms in Table I.
  EXPECT_NEAR(c.expert_bytes() / (1024.0 * 1024.0), 336.0, 1.0);
}

TEST(Config, SparseActivationFractionMatchesFig1) {
  const ModelConfig c = mixtral_8x7b();
  // Fig. 1: ~27.4% of parameters activated per sequence (non-MoE + 2 of 8
  // experts per layer).
  const double activated =
      c.total_params() - c.expert_params_total() +
      static_cast<double>(c.n_layers) * c.top_k * c.expert_params();
  EXPECT_NEAR(activated / c.total_params(), 0.274, 0.02);
}

TEST(Config, DerivedByteSizes) {
  const ModelConfig c = mixtral_8x7b();
  EXPECT_DOUBLE_EQ(c.hidden_state_bytes(), 4096 * 2.0);
  EXPECT_DOUBLE_EQ(c.kv_bytes_per_token_per_layer(), 2.0 * 8 * 128 * 2.0);
  EXPECT_EQ(c.n_layers * c.n_experts, 256);
}

TEST(Config, TinyConfigsShareArchitectureShape) {
  for (const ModelConfig& c : {tiny_mixtral(), tiny_phi()}) {
    EXPECT_EQ(c.top_k, 2);
    EXPECT_GE(c.n_layers, 6);  // enough layers to exercise min_predict_layer
    EXPECT_EQ(c.n_heads % c.n_kv_heads, 0);
    EXPECT_GT(c.vocab_size, 0);
  }
  EXPECT_EQ(tiny_mixtral().n_experts, 8);
  EXPECT_EQ(tiny_phi().n_experts, 16);
}

TEST(Config, GateParamsAreTiny) {
  const ModelConfig c = mixtral_8x7b();
  EXPECT_LT(c.gate_params(), c.expert_params() / 1000);
}

}  // namespace
}  // namespace daop::model
