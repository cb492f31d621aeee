#include "tensor/tensor.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"

namespace daop {

Tensor::Tensor(std::int64_t n) {
  DAOP_CHECK_GE(n, 0);
  data_.assign(static_cast<std::size_t>(n), 0.0F);
  shape_ = {n};
}

Tensor::Tensor(std::int64_t rows, std::int64_t cols) {
  DAOP_CHECK_GE(rows, 0);
  DAOP_CHECK_GE(cols, 0);
  data_.assign(static_cast<std::size_t>(rows * cols), 0.0F);
  shape_ = {rows, cols};
}

Tensor Tensor::randn(std::int64_t rows, std::int64_t cols, Rng& rng,
                     float stddev) {
  Tensor t(rows, cols);
  for (auto& v : t.data_) v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

std::int64_t Tensor::rows() const {
  DAOP_CHECK_EQ(rank(), 2);
  return shape_[0];
}

std::int64_t Tensor::cols() const {
  DAOP_CHECK_EQ(rank(), 2);
  return shape_[1];
}

std::span<float> Tensor::row(std::int64_t r) {
  DAOP_CHECK_EQ(rank(), 2);
  DAOP_CHECK(r >= 0 && r < shape_[0]);
  return {data_.data() + r * shape_[1], static_cast<std::size_t>(shape_[1])};
}

std::span<const float> Tensor::row(std::int64_t r) const {
  DAOP_CHECK_EQ(rank(), 2);
  DAOP_CHECK(r >= 0 && r < shape_[0]);
  return {data_.data() + r * shape_[1], static_cast<std::size_t>(shape_[1])};
}

float& Tensor::at(std::int64_t i) {
  DAOP_CHECK(i >= 0 && i < numel());
  return data_[static_cast<std::size_t>(i)];
}

float Tensor::at(std::int64_t i) const {
  DAOP_CHECK(i >= 0 && i < numel());
  return data_[static_cast<std::size_t>(i)];
}

float& Tensor::at(std::int64_t r, std::int64_t c) {
  DAOP_CHECK_EQ(rank(), 2);
  DAOP_CHECK(r >= 0 && r < shape_[0]);
  DAOP_CHECK(c >= 0 && c < shape_[1]);
  return data_[static_cast<std::size_t>(r * shape_[1] + c)];
}

float Tensor::at(std::int64_t r, std::int64_t c) const {
  DAOP_CHECK_EQ(rank(), 2);
  DAOP_CHECK(r >= 0 && r < shape_[0]);
  DAOP_CHECK(c >= 0 && c < shape_[1]);
  return data_[static_cast<std::size_t>(r * shape_[1] + c)];
}

void Tensor::fill(float v) {
  for (auto& x : data_) x = v;
}

}  // namespace daop
