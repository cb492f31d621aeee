#include "model/quantized_expert.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "model/config.hpp"
#include "tensor/ops.hpp"

namespace daop::model {
namespace {

double cosine(const std::vector<float>& a, const std::vector<float>& b) {
  const std::vector<double> da(a.begin(), a.end());
  const std::vector<double> db(b.begin(), b.end());
  return cosine_similarity(da, db);
}

class QuantizedExpertTest : public ::testing::Test {
 protected:
  QuantizedExpertTest() : model_(tiny_mixtral(), 11) {}
  FunctionalModel model_;
};

TEST_F(QuantizedExpertTest, Int8TracksFullPrecisionClosely) {
  const auto& cfg = model_.config();
  const QuantizedExpertSet qset(model_, QuantSpec{8, 32});
  std::vector<float> h(static_cast<std::size_t>(cfg.d_model));
  for (int i = 0; i < cfg.d_model; ++i) {
    h[static_cast<std::size_t>(i)] = 0.05F * static_cast<float>(i % 7 - 3);
  }
  std::vector<float> exact(static_cast<std::size_t>(cfg.d_model));
  std::vector<float> quant(static_cast<std::size_t>(cfg.d_model));
  model_.expert_forward(0, 3, h, exact);
  qset.forward(0, 3, h, quant);
  const double cos = cosine(exact, quant);
  EXPECT_GT(cos, 0.999);
}

TEST_F(QuantizedExpertTest, LowerBitsDriftFurther) {
  const auto& cfg = model_.config();
  std::vector<float> h(static_cast<std::size_t>(cfg.d_model), 0.1F);
  std::vector<float> exact(static_cast<std::size_t>(cfg.d_model));
  model_.expert_forward(2, 1, h, exact);

  double prev_cos = 1.0;
  for (int bits : {8, 4, 2}) {
    const QuantizedExpertSet qset(model_, QuantSpec{bits, 32});
    std::vector<float> quant(static_cast<std::size_t>(cfg.d_model));
    qset.forward(2, 1, h, quant);
    const double cos = cosine(exact, quant);
    EXPECT_LT(cos, prev_cos + 1e-9) << bits;
    prev_cos = cos;
  }
  EXPECT_LT(prev_cos, 0.999);  // 2-bit visibly diverges
}

TEST_F(QuantizedExpertTest, CoversAllLayersAndExperts) {
  const auto& cfg = model_.config();
  const QuantizedExpertSet qset(model_, QuantSpec{4, 64});
  std::vector<float> h(static_cast<std::size_t>(cfg.d_model), 0.2F);
  std::vector<float> out(static_cast<std::size_t>(cfg.d_model));
  for (int l = 0; l < cfg.n_layers; ++l) {
    for (int e = 0; e < cfg.n_experts; ++e) {
      qset.forward(l, e, h, out);  // must not throw
    }
  }
  EXPECT_THROW(qset.get(cfg.n_layers, 0), CheckError);
  EXPECT_THROW(qset.get(0, cfg.n_experts), CheckError);
}

TEST_F(QuantizedExpertTest, DifferentExpertsStayDifferent) {
  const auto& cfg = model_.config();
  const QuantizedExpertSet qset(model_, QuantSpec{8, 64});
  std::vector<float> h(static_cast<std::size_t>(cfg.d_model), 0.3F);
  std::vector<float> a(static_cast<std::size_t>(cfg.d_model));
  std::vector<float> b(static_cast<std::size_t>(cfg.d_model));
  qset.forward(0, 0, h, a);
  qset.forward(0, 1, h, b);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace daop::model
