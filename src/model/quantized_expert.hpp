// Quantized SwiGLU experts for the functional plane.
//
// Supports the EdgeMoE-style "CPU experts run quantized" extension: CPU
// memory bandwidth, not compute, bounds expert execution, so shrinking
// weights to 4-8 bits speeds the CPU path at a measurable accuracy cost.
// This module provides the numerics; core::DaopConfig::cpu_quant_bits wires
// it into the DAOP executor.
#pragma once

#include <memory>
#include <vector>

#include "model/functional_model.hpp"
#include "tensor/quant.hpp"

namespace daop::model {

struct QuantizedExpert {
  QuantizedTensor w1;
  QuantizedTensor w3;
  QuantizedTensor w2;
};

QuantizedExpert quantize_expert(const ExpertWeights& w, const QuantSpec& spec);

/// out = SwiGLU with quantized weights (dequant fused into the GEMVs).
void expert_forward_quantized(const QuantizedExpert& e,
                              std::span<const float> h, std::span<float> out);

/// Eagerly quantized copies of every expert in a model.
class QuantizedExpertSet {
 public:
  QuantizedExpertSet(const FunctionalModel& model, const QuantSpec& spec);

  const QuantizedExpert& get(int layer, int expert) const;

  /// Forward through the quantized copy of (layer, expert).
  void forward(int layer, int expert, std::span<const float> h,
               std::span<float> out) const;

 private:
  int n_layers_ = 0;
  int n_experts_ = 0;
  std::vector<QuantizedExpert> experts_;  // layer-major
};

}  // namespace daop::model
