// Per-layer key/value cache for autoregressive decoding.
#pragma once

#include <span>
#include <vector>

#include "model/config.hpp"
#include "tensor/tensor.hpp"

namespace daop::model {

class KvCache {
 public:
  KvCache(const ModelConfig& cfg, int max_seq);

  /// Number of positions currently filled (same across layers by contract).
  int size() const { return size_; }

  /// Appends one position worth of k/v for `layer`; all layers must be
  /// appended for a position before advance() is called.
  std::span<float> k_slot(int layer, int pos);
  std::span<float> v_slot(int layer, int pos);
  std::span<const float> k_at(int layer, int pos) const;
  std::span<const float> v_at(int layer, int pos) const;

  /// Marks position `size()` complete across all layers.
  void advance();

  /// Drops cached positions back to `n` (used to replay a prefix).
  void truncate(int n);

 private:
  int kv_dim_ = 0;
  int max_seq_ = 0;
  int n_layers_ = 0;
  int size_ = 0;
  std::vector<Tensor> k_;  // per layer: [max_seq, kv_dim]
  std::vector<Tensor> v_;
};

}  // namespace daop::model
