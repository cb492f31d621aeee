// Expert placement state: which device holds each (layer, expert).
//
// The Expert Cache Ratio (ECR) — the paper's central resource knob — is the
// fraction of all expert slots resident on the GPU. Placement enforces the
// per-layer GPU capacity invariant; policies (calibrated init, Algorithm 1
// swaps, LRU eviction) live with their owners and mutate state through this
// class so the invariant can never be silently violated.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace daop::cache {

enum class Device : std::uint8_t { Cpu = 0, Gpu = 1 };

class Placement {
 public:
  Placement(int n_layers, int n_experts);

  int n_layers() const { return n_layers_; }
  int n_experts() const { return n_experts_; }

  /// Inline: every scheduling decision of every engine asks this.
  Device device(int layer, int expert) const {
    return device_[static_cast<std::size_t>(index(layer, expert))];
  }
  bool on_gpu(int layer, int expert) const {
    return device(layer, expert) == Device::Gpu;
  }

  /// Residency row of layer `l`, indexed by expert id: one layer check and
  /// no per-expert check. For the per-layer planners, whose ids come from a
  /// routing trace: `SequenceTrace::set_cell` ranks ids inside the trace's
  /// `n_experts`, and sessions check that it equals the model's.
  std::span<const Device> layer(int l) const {
    DAOP_CHECK(l >= 0 && l < n_layers_);
    return {device_.data() + static_cast<std::size_t>(l) *
                                 static_cast<std::size_t>(n_experts_),
            static_cast<std::size_t>(n_experts_)};
  }

  /// GPU slots allowed for `layer`. Moving an expert to the GPU beyond
  /// capacity is a checked error.
  int capacity(int layer) const;
  void set_capacity(int layer, int cap);

  /// Experts currently on the GPU in `layer`.
  int gpu_count(int layer) const;

  /// Places `expert` on the GPU (must have free capacity; no-op if already
  /// there — returns false in that case).
  bool move_to_gpu(int layer, int expert);
  /// Evicts `expert` to the CPU (no-op if already there; returns false).
  bool move_to_cpu(int layer, int expert);
  /// Atomic swap: `expert_out` leaves the GPU, `expert_in` enters.
  void swap(int layer, int expert_in, int expert_out);

 private:
  int index(int layer, int expert) const {
    DAOP_CHECK(layer >= 0 && layer < n_layers_);
    DAOP_CHECK(expert >= 0 && expert < n_experts_);
    return layer * n_experts_ + expert;
  }

  int n_layers_;
  int n_experts_;
  std::vector<Device> device_;
  std::vector<int> capacity_;
  std::vector<int> gpu_count_;
};

/// Number of GPU expert slots implied by an ECR.
int total_slots_for_ecr(int n_layers, int n_experts, double ecr);

/// Paper §IV-A memory initialization: standardize cache size across layers
/// (total_slots / n_layers each), fill every layer with its top experts by
/// calibrated activation counts, then hand the remainder (< n_layers slots)
/// to the globally most-activated uncached experts.
/// `calib_counts[layer][expert]` comes from decoding the calibration set.
Placement init_placement_calibrated(
    int n_layers, int n_experts, double ecr,
    const std::vector<std::vector<double>>& calib_counts);

/// Alternative initialization (ablation of §IV-A's per-layer
/// standardization): hand ALL slots to the globally most-activated
/// (layer, expert) pairs with no per-layer floor. Layers with flat
/// calibration profiles can end up with zero GPU experts.
Placement init_placement_global_greedy(
    int n_layers, int n_experts, double ecr,
    const std::vector<std::vector<double>>& calib_counts);

}  // namespace daop::cache
