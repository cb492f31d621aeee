#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace daop {
namespace {

// Reference kernels for the checks below; production runs matvec only.

float dot(std::span<const float> a, std::span<const float> b) {
  float acc = 0.0F;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

float l2_norm(std::span<const float> a) { return std::sqrt(dot(a, a)); }

/// y = W^T * x where W is [rows, cols] and x has `rows` elements.
void matvec_transposed(const Tensor& w, std::span<const float> x,
                       std::span<float> y) {
  std::fill(y.begin(), y.end(), 0.0F);
  for (std::int64_t r = 0; r < w.rows(); ++r) {
    for (std::int64_t c = 0; c < w.cols(); ++c) {
      y[static_cast<std::size_t>(c)] +=
          x[static_cast<std::size_t>(r)] * w.at(r, c);
    }
  }
}

/// C = A * B with A [m,k], B [k,n]; C must be preallocated [m,n].
void matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  DAOP_CHECK_EQ(a.cols(), b.rows());
  DAOP_CHECK_EQ(c.rows(), a.rows());
  DAOP_CHECK_EQ(c.cols(), b.cols());
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0F;
      for (std::int64_t k = 0; k < a.cols(); ++k) {
        acc += a.at(i, k) * b.at(k, j);
      }
      c.at(i, j) = acc;
    }
  }
}

TEST(Ops, MatvecSmallKnownValues) {
  Tensor w(2, 3);
  // [[1 2 3], [4 5 6]]
  for (int i = 0; i < 6; ++i) w.data()[i] = static_cast<float>(i + 1);
  const std::vector<float> x = {1.0F, 0.0F, -1.0F};
  std::vector<float> y(2);
  matvec(w, x, y);
  EXPECT_FLOAT_EQ(y[0], -2.0F);
  EXPECT_FLOAT_EQ(y[1], -2.0F);
}

TEST(Ops, MatvecTransposedMatchesExplicit) {
  Rng rng(1);
  const Tensor w = Tensor::randn(5, 7, rng, 1.0F);
  std::vector<float> x(5);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  std::vector<float> y(7);
  matvec_transposed(w, x, y);
  for (int c = 0; c < 7; ++c) {
    float expect = 0.0F;
    for (int r = 0; r < 5; ++r) expect += w.at(r, c) * x[static_cast<std::size_t>(r)];
    EXPECT_NEAR(y[static_cast<std::size_t>(c)], expect, 1e-5F);
  }
}

TEST(Ops, MatmulMatchesNaive) {
  Rng rng(2);
  const Tensor a = Tensor::randn(7, 5, rng, 1.0F);
  const Tensor b = Tensor::randn(5, 9, rng, 1.0F);
  Tensor c(7, 9);
  matmul(a, b, c);
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 9; ++j) {
      float expect = 0.0F;
      for (int k = 0; k < 5; ++k) expect += a.at(i, k) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), expect, 1e-4F);
    }
  }
}

TEST(Ops, MatmulShapeChecked) {
  Tensor a(2, 3);
  Tensor b(4, 2);  // mismatched inner dim
  Tensor c(2, 2);
  EXPECT_THROW(matmul(a, b, c), CheckError);
}

TEST(Ops, ElementwiseHelpers) {
  std::vector<float> a = {1.0F, 2.0F};
  const std::vector<float> b = {3.0F, -1.0F};
  add_inplace(a, b);
  EXPECT_FLOAT_EQ(a[0], 4.0F);
  EXPECT_FLOAT_EQ(a[1], 1.0F);
  axpy_inplace(a, 0.5F, b);
  EXPECT_FLOAT_EQ(a[0], 5.5F);
  EXPECT_FLOAT_EQ(a[1], 0.5F);
}

TEST(Ops, DotAndNorm) {
  const std::vector<float> a = {3.0F, 4.0F};
  EXPECT_FLOAT_EQ(dot(a, a), 25.0F);
  EXPECT_FLOAT_EQ(l2_norm(a), 5.0F);
}

TEST(Ops, CosineSimilarityProperties) {
  const std::vector<double> a = {1.0, 0.0};
  const std::vector<double> b = {0.0, 1.0};
  const std::vector<double> c = {2.0, 0.0};
  const std::vector<double> zero = {0.0, 0.0};
  EXPECT_NEAR(cosine_similarity(a, b), 0.0, 1e-9);
  EXPECT_NEAR(cosine_similarity(a, c), 1.0, 1e-9);
  EXPECT_EQ(cosine_similarity(a, zero), 0.0);
}

TEST(Ops, SoftmaxNormalizesAndOrders) {
  std::vector<float> x = {1.0F, 3.0F, 2.0F};
  softmax_inplace(x);
  EXPECT_NEAR(x[0] + x[1] + x[2], 1.0F, 1e-6F);
  EXPECT_GT(x[1], x[2]);
  EXPECT_GT(x[2], x[0]);
}

TEST(Ops, SoftmaxIsShiftInvariantAndStable) {
  std::vector<float> a = {1000.0F, 1001.0F};
  softmax_inplace(a);
  std::vector<float> b = {0.0F, 1.0F};
  softmax_inplace(b);
  EXPECT_NEAR(a[0], b[0], 1e-6F);
  EXPECT_NEAR(a[1], b[1], 1e-6F);
}

TEST(Ops, SoftmaxSubsetMatchesManual) {
  const std::vector<float> logits = {1.0F, 5.0F, 2.0F, 4.0F};
  const std::vector<int> idx = {1, 3};
  std::vector<float> out(2);
  softmax_subset(logits, idx, out);
  const float z = std::exp(5.0F) + std::exp(4.0F);
  EXPECT_NEAR(out[0], std::exp(5.0F) / z, 1e-6F);
  EXPECT_NEAR(out[1], std::exp(4.0F) / z, 1e-6F);
}

TEST(Ops, RmsnormUnitGainGivesUnitRms) {
  Rng rng(3);
  std::vector<float> x(64);
  for (auto& v : x) v = static_cast<float>(rng.normal(0.0, 3.0));
  std::vector<float> gain(64, 1.0F);
  std::vector<float> out(64);
  rmsnorm(x, gain, 1e-6F, out);
  double ss = 0.0;
  for (float v : out) ss += static_cast<double>(v) * v;
  EXPECT_NEAR(std::sqrt(ss / 64.0), 1.0, 1e-3);
}

TEST(Ops, RmsnormAppliesGain) {
  const std::vector<float> x = {2.0F, 2.0F};
  const std::vector<float> gain = {1.0F, 3.0F};
  std::vector<float> out(2);
  rmsnorm(x, gain, 0.0F, out);
  EXPECT_NEAR(out[1], 3.0F * out[0], 1e-5F);
}

TEST(Ops, SiluKnownValues) {
  EXPECT_NEAR(silu(0.0F), 0.0F, 1e-7F);
  EXPECT_NEAR(silu(10.0F), 10.0F, 1e-3F);   // approximately identity
  EXPECT_NEAR(silu(-10.0F), 0.0F, 1e-3F);   // approximately zero
}

TEST(Ops, RopePreservesNormAndIsPositionDependent) {
  Rng rng(4);
  std::vector<float> x(32);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  const std::vector<float> orig = x;

  std::vector<float> x0 = orig;
  rope_inplace(x0, 2, 16, 0, 1e4F);
  EXPECT_EQ(x0, orig);  // position 0 is identity

  std::vector<float> x5 = orig;
  rope_inplace(x5, 2, 16, 5, 1e4F);
  EXPECT_NE(x5, orig);
  EXPECT_NEAR(l2_norm(x5), l2_norm(std::span<const float>(orig)), 1e-4F);
}

TEST(Ops, RopeRelativePhaseProperty) {
  // <rope(q, m), rope(k, n)> depends only on m - n for single-pair vectors.
  std::vector<float> q = {1.0F, 0.5F};
  std::vector<float> k = {0.3F, -0.7F};
  auto dotted = [&](int m, int n) {
    std::vector<float> qm = q;
    std::vector<float> kn = k;
    rope_inplace(qm, 1, 2, m, 1e4F);
    rope_inplace(kn, 1, 2, n, 1e4F);
    return dot(qm, kn);
  };
  EXPECT_NEAR(dotted(3, 1), dotted(7, 5), 1e-5F);
  EXPECT_NEAR(dotted(10, 0), dotted(12, 2), 1e-5F);
}

TEST(Ops, TopkOrderedDescendingDeterministicTies) {
  const std::vector<float> x = {1.0F, 5.0F, 5.0F, 0.0F, 4.0F};
  const auto top3 = topk_indices(x, 3);
  ASSERT_EQ(top3.size(), 3U);
  EXPECT_EQ(top3[0], 1);  // tie broken by lower index
  EXPECT_EQ(top3[1], 2);
  EXPECT_EQ(top3[2], 4);
}

TEST(Ops, TopkFullAndEmpty) {
  const std::vector<float> x = {2.0F, 1.0F};
  EXPECT_TRUE(topk_indices(x, 0).empty());
  const auto all = topk_indices(x, 2);
  EXPECT_EQ(all, (std::vector<int>{0, 1}));
  EXPECT_THROW(topk_indices(x, 3), CheckError);

  // The caller-buffer form: same selection, buffer cleared on entry, and
  // its heap block reused (no reallocation once it holds k entries).
  Rng rng(5);
  std::vector<int> out = {9, 9, 9, 9, 9, 9, 9, 9, 9, 9};
  const std::size_t cap = out.capacity();
  const int* block = out.data();
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 1 + trial % 9;
    std::vector<float> v(static_cast<std::size_t>(n));
    // Three distinct values over up to nine entries force ties.
    for (float& f : v) f = static_cast<float>(rng.uniform_int(0, 2));
    for (const int k : {0, 1, 2, n}) {
      if (k > n) continue;
      topk_indices_into(v, k, out);
      EXPECT_EQ(out, topk_indices(v, k)) << "n " << n << " k " << k;
      EXPECT_EQ(out.capacity(), cap);
      EXPECT_EQ(out.data(), block);
    }
  }
  EXPECT_THROW(topk_indices_into(x, 3, out), CheckError);
}

TEST(Ops, TopkSpanCoreMatchesVectorForm) {
  const std::vector<float> x = {1.0F, 5.0F, 5.0F, 0.0F, 4.0F};
  std::vector<std::uint8_t> ids(3);
  topk_indices_into(x, std::span<std::uint8_t>(ids));
  EXPECT_EQ(std::vector<int>(ids.begin(), ids.end()), topk_indices(x, 3));
  std::vector<std::uint8_t> too_many(6);
  EXPECT_THROW(topk_indices_into(x, std::span<std::uint8_t>(too_many)),
               CheckError);
  // Every index must fit the id type: 257 scores overflow uint8_t.
  const std::vector<float> wide(257, 0.0F);
  EXPECT_THROW(topk_indices_into(wide, std::span<std::uint8_t>(ids)),
               CheckError);
}

TEST(Ops, Argmax) {
  const std::vector<float> x = {0.5F, -1.0F, 3.0F, 3.0F};
  EXPECT_EQ(argmax(x), 2);  // first of equal maxima
}

// Property sweep: the production matvec equals the reference matmul
// row-by-row across shapes.
class MatmulShapeTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulShapeTest, AgreesWithMatvecPerRow) {
  const auto [m, k, n] = GetParam();
  Rng rng(17);
  const Tensor a = Tensor::randn(m, k, rng, 1.0F);
  const Tensor bt = Tensor::randn(n, k, rng, 1.0F);  // rows = output dims
  Tensor b(k, n);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < n; ++j) b.at(i, j) = bt.at(j, i);
  }
  Tensor c(m, n);
  matmul(a, b, c);
  std::vector<float> y(static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i) {
    matvec(bt, a.row(i), y);
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(c.at(i, j), y[static_cast<std::size_t>(j)], 1e-4F);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulShapeTest,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(1, 8, 3),
                                           std::make_tuple(4, 4, 4),
                                           std::make_tuple(16, 3, 1),
                                           std::make_tuple(9, 17, 5)));

}  // namespace
}  // namespace daop
