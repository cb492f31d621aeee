// Dense row-major float32 tensor used by the functional model plane.
//
// This is intentionally a small, predictable container rather than a general
// ND framework: the functional MoE model only needs 1-D vectors and 2-D
// matrices, and keeping the type simple keeps the numerics auditable.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace daop {

class Rng;

/// Row-major float tensor of rank 1 or 2.
class Tensor {
 public:
  Tensor() = default;

  /// Rank-1 tensor of `n` zeros.
  explicit Tensor(std::int64_t n);

  /// Rank-2 tensor of zeros with shape [rows, cols].
  Tensor(std::int64_t rows, std::int64_t cols);


  /// Gaussian init with stddev (default scaled for model weights).
  static Tensor randn(std::int64_t rows, std::int64_t cols, Rng& rng,
                      float stddev);

  std::int64_t rank() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t rows() const;
  std::int64_t cols() const;
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> span() { return data_; }
  std::span<const float> span() const { return data_; }

  /// Mutable row view of a rank-2 tensor.
  std::span<float> row(std::int64_t r);
  std::span<const float> row(std::int64_t r) const;

  float& at(std::int64_t i);
  float at(std::int64_t i) const;
  float& at(std::int64_t r, std::int64_t c);
  float at(std::int64_t r, std::int64_t c) const;

  void fill(float v);

 private:
  std::vector<float> data_;
  std::vector<std::int64_t> shape_;
};

}  // namespace daop
