#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace daop {
namespace {

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.numel(), 0);
  EXPECT_EQ(t.rank(), 0);
}

TEST(Tensor, Rank1ZeroInitialized) {
  Tensor t(5);
  EXPECT_EQ(t.rank(), 1);
  EXPECT_EQ(t.numel(), 5);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(t.at(i), 0.0F);
}

TEST(Tensor, Rank2ShapeAndIndexing) {
  Tensor t(3, 4);
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.numel(), 12);
  t.at(2, 3) = 7.0F;
  EXPECT_EQ(t.at(2, 3), 7.0F);
  // Row-major layout: (2,3) is the last element.
  EXPECT_EQ(t.data()[11], 7.0F);
}

TEST(Tensor, RowView) {
  Tensor t(2, 3);
  t.at(1, 0) = 1.0F;
  t.at(1, 2) = 3.0F;
  const auto r = t.row(1);
  ASSERT_EQ(r.size(), 3U);
  EXPECT_EQ(r[0], 1.0F);
  EXPECT_EQ(r[2], 3.0F);
}

TEST(Tensor, RandnIsDeterministicPerSeed) {
  Rng r1(5);
  Rng r2(5);
  const Tensor a = Tensor::randn(4, 4, r1, 1.0F);
  const Tensor b = Tensor::randn(4, 4, r2, 1.0F);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.at(i / 4, i % 4), b.at(i / 4, i % 4));
}

TEST(Tensor, RandnStddevScales) {
  Rng rng(6);
  const Tensor t = Tensor::randn(100, 100, rng, 0.5F);
  double sq = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    sq += static_cast<double>(t.data()[i]) * t.data()[i];
  }
  EXPECT_NEAR(std::sqrt(sq / t.numel()), 0.5, 0.02);
}

TEST(Tensor, Fill) {
  Tensor t(2, 2);
  t.fill(3.0F);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(t.data()[i], 3.0F);
}

TEST(Tensor, BoundsChecked) {
  Tensor t(2, 2);
  EXPECT_THROW(t.at(2, 0), CheckError);
  EXPECT_THROW(t.at(0, 2), CheckError);
  EXPECT_THROW(t.at(-1), CheckError);
  EXPECT_THROW(t.row(2), CheckError);
}

TEST(Tensor, RowsColsRequireRank2) {
  Tensor t(4);
  EXPECT_THROW(t.rows(), CheckError);
  EXPECT_THROW(t.at(0, 0), CheckError);
}

}  // namespace
}  // namespace daop
