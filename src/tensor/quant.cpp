#include "tensor/quant.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace daop {

QuantizedTensor QuantizedTensor::quantize(const Tensor& w,
                                          const QuantSpec& spec) {
  DAOP_CHECK_EQ(w.rank(), 2);
  DAOP_CHECK(spec.bits >= 2 && spec.bits <= 8);
  DAOP_CHECK_GT(spec.group_size, 0);

  QuantizedTensor out;
  out.spec_ = spec;
  out.rows_ = w.rows();
  out.cols_ = w.cols();
  out.groups_per_row_ = (w.cols() + spec.group_size - 1) / spec.group_size;
  out.q_.resize(static_cast<std::size_t>(out.rows_ * out.cols_));
  out.scales_.resize(static_cast<std::size_t>(out.rows_ * out.groups_per_row_));

  const int qmax = (1 << (spec.bits - 1)) - 1;  // symmetric: [-qmax, qmax]
  for (std::int64_t r = 0; r < out.rows_; ++r) {
    const auto row = w.row(r);
    for (std::int64_t g = 0; g < out.groups_per_row_; ++g) {
      const std::int64_t c0 = g * spec.group_size;
      const std::int64_t c1 = std::min<std::int64_t>(out.cols_, c0 + spec.group_size);
      float amax = 0.0F;
      for (std::int64_t c = c0; c < c1; ++c) {
        amax = std::max(amax, std::abs(row[static_cast<std::size_t>(c)]));
      }
      const float scale = amax > 0.0F ? amax / static_cast<float>(qmax) : 1.0F;
      out.scales_[static_cast<std::size_t>(r * out.groups_per_row_ + g)] = scale;
      for (std::int64_t c = c0; c < c1; ++c) {
        const float v = row[static_cast<std::size_t>(c)] / scale;
        const int qi = std::clamp(static_cast<int>(std::lround(v)), -qmax, qmax);
        out.q_[static_cast<std::size_t>(r * out.cols_ + c)] =
            static_cast<std::int8_t>(qi);
      }
    }
  }
  return out;
}

void QuantizedTensor::matvec(std::span<const float> x,
                             std::span<float> y) const {
  DAOP_CHECK_EQ(static_cast<std::int64_t>(x.size()), cols_);
  DAOP_CHECK_EQ(static_cast<std::int64_t>(y.size()), rows_);
  for (std::int64_t r = 0; r < rows_; ++r) {
    const std::int8_t* qr = q_.data() + r * cols_;
    const float* sr = scales_.data() + r * groups_per_row_;
    float acc = 0.0F;
    for (std::int64_t g = 0; g < groups_per_row_; ++g) {
      const std::int64_t c0 = g * spec_.group_size;
      const std::int64_t c1 = std::min<std::int64_t>(cols_, c0 + spec_.group_size);
      float gacc = 0.0F;
      for (std::int64_t c = c0; c < c1; ++c) {
        gacc += static_cast<float>(qr[c]) * x[static_cast<std::size_t>(c)];
      }
      acc += gacc * sr[g];
    }
    y[static_cast<std::size_t>(r)] = acc;
  }
}

}  // namespace daop
