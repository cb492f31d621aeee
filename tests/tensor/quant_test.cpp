#include "tensor/quant.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace daop {
namespace {

// The full-precision approximation a QuantizedTensor holds, read back one
// column at a time through its fused GEMV: with x a unit vector every other
// group contributes an exact zero, so column c is exactly q[r,c] * scale.
Tensor dequantize(const QuantizedTensor& qt) {
  Tensor out(qt.rows(), qt.cols());
  std::vector<float> x(static_cast<std::size_t>(qt.cols()), 0.0F);
  std::vector<float> y(static_cast<std::size_t>(qt.rows()));
  for (std::int64_t c = 0; c < qt.cols(); ++c) {
    x[static_cast<std::size_t>(c)] = 1.0F;
    qt.matvec(x, y);
    x[static_cast<std::size_t>(c)] = 0.0F;
    for (std::int64_t r = 0; r < qt.rows(); ++r) {
      out.at(r, c) = y[static_cast<std::size_t>(r)];
    }
  }
  return out;
}

// ||W - deq(quant(W))||_rms / ||W||_rms; 0 for an exactly representable W.
double quantization_rms_error(const Tensor& w, const QuantSpec& spec) {
  const Tensor deq = dequantize(QuantizedTensor::quantize(w, spec));
  double err = 0.0;
  double ref = 0.0;
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    const double d = static_cast<double>(w.data()[i]) - deq.data()[i];
    err += d * d;
    ref += static_cast<double>(w.data()[i]) * w.data()[i];
  }
  if (ref == 0.0) return 0.0;
  return std::sqrt(err / ref);
}

TEST(Quant, RoundTripWithinScaleQuantum) {
  Rng rng(1);
  const Tensor w = Tensor::randn(16, 128, rng, 0.5F);
  const QuantSpec spec{8, 64};
  const Tensor deq = dequantize(QuantizedTensor::quantize(w, spec));
  const int qmax = 127;
  for (std::int64_t r = 0; r < w.rows(); ++r) {
    for (std::int64_t c = 0; c < w.cols(); ++c) {
      // Error bounded by half a quantization step of the group's scale.
      // The scale is at most group_absmax / qmax <= row_absmax / qmax.
      float absmax = 0.0F;
      for (std::int64_t cc = 0; cc < w.cols(); ++cc) {
        absmax = std::max(absmax, std::abs(w.at(r, cc)));
      }
      EXPECT_NEAR(deq.at(r, c), w.at(r, c), absmax / qmax * 0.51F);
    }
  }
}

TEST(Quant, FewerBitsMoreError) {
  Rng rng(2);
  const Tensor w = Tensor::randn(8, 256, rng, 1.0F);
  double prev = 0.0;
  for (int bits : {8, 6, 4, 3, 2}) {
    const double err = quantization_rms_error(w, QuantSpec{bits, 64});
    EXPECT_GT(err, prev) << bits;
    prev = err;
  }
  // int8 grouped error is small, 2-bit error is large.
  EXPECT_LT(quantization_rms_error(w, (QuantSpec{8, 64})), 0.01);
  EXPECT_GT(quantization_rms_error(w, (QuantSpec{2, 64})), 0.15);
}

TEST(Quant, SmallerGroupsLowerError) {
  Rng rng(3);
  const Tensor w = Tensor::randn(8, 256, rng, 1.0F);
  EXPECT_LE(quantization_rms_error(w, (QuantSpec{4, 16})),
            quantization_rms_error(w, (QuantSpec{4, 256})));
}

TEST(Quant, MatvecMatchesDequantizedMatvec) {
  Rng rng(4);
  const Tensor w = Tensor::randn(24, 100, rng, 0.3F);  // non-multiple group
  const QuantSpec spec{6, 32};
  const QuantizedTensor qt = QuantizedTensor::quantize(w, spec);
  const Tensor deq = dequantize(qt);
  std::vector<float> x(100);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  std::vector<float> y_quant(24);
  std::vector<float> y_ref(24);
  qt.matvec(x, y_quant);
  matvec(deq, x, y_ref);
  for (int r = 0; r < 24; ++r) {
    EXPECT_NEAR(y_quant[static_cast<std::size_t>(r)],
                y_ref[static_cast<std::size_t>(r)], 1e-3F);
  }
}

TEST(Quant, ZeroMatrixIsExact) {
  const Tensor w(4, 32);
  EXPECT_EQ(quantization_rms_error(w, (QuantSpec{4, 16})), 0.0);
  const Tensor deq =
      dequantize(QuantizedTensor::quantize(w, (QuantSpec{4, 16})));
  for (std::int64_t i = 0; i < w.numel(); ++i) EXPECT_EQ(deq.data()[i], 0.0F);
}

TEST(Quant, BytesPerWeightAccounting) {
  EXPECT_NEAR((QuantSpec{8, 64}).bytes_per_weight(), 1.0 + 2.0 / 64, 1e-12);
  EXPECT_NEAR((QuantSpec{4, 64}).bytes_per_weight(), 0.5 + 2.0 / 64, 1e-12);
  // 4-bit grouped weights are ~3.8x smaller than fp16.
  EXPECT_LT((QuantSpec{4, 64}).bytes_per_weight() / 2.0, 0.27);
}

TEST(Quant, RejectsBadSpecs) {
  Rng rng(5);
  const Tensor w = Tensor::randn(2, 8, rng, 1.0F);
  EXPECT_THROW(QuantizedTensor::quantize(w, (QuantSpec{1, 8})), CheckError);
  EXPECT_THROW(QuantizedTensor::quantize(w, (QuantSpec{9, 8})), CheckError);
  EXPECT_THROW(QuantizedTensor::quantize(w, (QuantSpec{4, 0})), CheckError);
  const Tensor v(8);  // rank 1
  EXPECT_THROW(QuantizedTensor::quantize(v, (QuantSpec{4, 8})), CheckError);
}

TEST(Quant, MatvecShapeChecked) {
  Rng rng(6);
  const Tensor w = Tensor::randn(4, 8, rng, 1.0F);
  const QuantizedTensor qt = QuantizedTensor::quantize(w, (QuantSpec{8, 4}));
  std::vector<float> x(7);
  std::vector<float> y(4);
  EXPECT_THROW(qt.matvec(x, y), CheckError);
}

}  // namespace
}  // namespace daop
