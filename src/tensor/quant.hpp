// Grouped symmetric integer quantization for expert weights.
//
// Mixtral-Offloading ships experts with mixed ~4-bit quantization and
// EdgeMoE adapts per-expert bit-width; this module provides the substrate
// those baselines (and the DAOP cpu_quant_bits extension) build on:
// per-row, per-group symmetric quantization with on-the-fly dequant GEMV.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace daop {

struct QuantSpec {
  int bits = 8;        ///< 2..8 (stored one value per int8 slot)
  int group_size = 64; ///< values sharing one scale within a row

  /// Effective bytes per weight including scales (fp16 scale per group),
  /// used by the performance plane to size quantized transfers/reads.
  double bytes_per_weight() const {
    return bits / 8.0 + 2.0 / group_size;
  }
};

/// A rank-2 tensor quantized per row in groups of `spec.group_size`.
class QuantizedTensor {
 public:
  QuantizedTensor() = default;

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }

  /// Quantizes `w` (rank-2). Rows need not be multiples of group_size; the
  /// final group of a row may be short.
  static QuantizedTensor quantize(const Tensor& w, const QuantSpec& spec);

  /// y = Wq * x with dequantization fused into the GEMV.
  void matvec(std::span<const float> x, std::span<float> y) const;

 private:
  QuantSpec spec_;
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t groups_per_row_ = 0;
  std::vector<std::int8_t> q_;      ///< rows * cols values
  std::vector<float> scales_;       ///< rows * groups_per_row
};

}  // namespace daop
