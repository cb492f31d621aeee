#include "cache/placement.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace daop::cache {

Placement::Placement(int n_layers, int n_experts)
    : n_layers_(n_layers), n_experts_(n_experts) {
  DAOP_CHECK_GT(n_layers, 0);
  DAOP_CHECK_GT(n_experts, 0);
  device_.assign(static_cast<std::size_t>(n_layers) * n_experts, Device::Cpu);
  capacity_.assign(static_cast<std::size_t>(n_layers), 0);
  gpu_count_.assign(static_cast<std::size_t>(n_layers), 0);
}

int Placement::capacity(int layer) const {
  DAOP_CHECK(layer >= 0 && layer < n_layers_);
  return capacity_[static_cast<std::size_t>(layer)];
}

void Placement::set_capacity(int layer, int cap) {
  DAOP_CHECK(layer >= 0 && layer < n_layers_);
  DAOP_CHECK(cap >= 0 && cap <= n_experts_);
  DAOP_CHECK_GE(cap, gpu_count(layer));
  capacity_[static_cast<std::size_t>(layer)] = cap;
}

int Placement::gpu_count(int layer) const {
  DAOP_CHECK(layer >= 0 && layer < n_layers_);
  return gpu_count_[static_cast<std::size_t>(layer)];
}

bool Placement::move_to_gpu(int layer, int expert) {
  const int i = index(layer, expert);
  if (device_[static_cast<std::size_t>(i)] == Device::Gpu) return false;
  DAOP_CHECK_MSG(gpu_count(layer) < capacity(layer),
                 "GPU expert cache full for layer " << layer);
  device_[static_cast<std::size_t>(i)] = Device::Gpu;
  ++gpu_count_[static_cast<std::size_t>(layer)];
  return true;
}

bool Placement::move_to_cpu(int layer, int expert) {
  const int i = index(layer, expert);
  if (device_[static_cast<std::size_t>(i)] == Device::Cpu) return false;
  device_[static_cast<std::size_t>(i)] = Device::Cpu;
  --gpu_count_[static_cast<std::size_t>(layer)];
  return true;
}

void Placement::swap(int layer, int expert_in, int expert_out) {
  DAOP_CHECK_MSG(device(layer, expert_out) == Device::Gpu,
                 "swap-out expert not on GPU");
  DAOP_CHECK_MSG(device(layer, expert_in) == Device::Cpu,
                 "swap-in expert not on CPU");
  move_to_cpu(layer, expert_out);
  move_to_gpu(layer, expert_in);
}

int total_slots_for_ecr(int n_layers, int n_experts, double ecr) {
  DAOP_CHECK_GE(ecr, 0.0);
  DAOP_CHECK_LE(ecr, 1.0);
  return static_cast<int>(
      std::lround(ecr * static_cast<double>(n_layers) * n_experts));
}

Placement init_placement_calibrated(
    int n_layers, int n_experts, double ecr,
    const std::vector<std::vector<double>>& calib_counts) {
  DAOP_CHECK_EQ(static_cast<int>(calib_counts.size()), n_layers);
  Placement p(n_layers, n_experts);
  const int total_slots = total_slots_for_ecr(n_layers, n_experts, ecr);
  const int per_layer = total_slots / n_layers;
  int remainder = total_slots % n_layers;

  // Per-layer fill: top `per_layer` experts by calibrated activation.
  for (int l = 0; l < n_layers; ++l) {
    const auto& counts = calib_counts[static_cast<std::size_t>(l)];
    DAOP_CHECK_EQ(static_cast<int>(counts.size()), n_experts);
    std::vector<int> order(static_cast<std::size_t>(n_experts));
    for (int e = 0; e < n_experts; ++e) order[static_cast<std::size_t>(e)] = e;
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return counts[static_cast<std::size_t>(a)] >
             counts[static_cast<std::size_t>(b)];
    });
    p.set_capacity(l, per_layer);
    for (int i = 0; i < per_layer; ++i) {
      p.move_to_gpu(l, order[static_cast<std::size_t>(i)]);
    }
  }

  // Remainder: globally most-activated experts not yet cached get one extra
  // slot each (their layer's capacity grows by one).
  if (remainder > 0) {
    struct Cand {
      double count;
      int layer;
      int expert;
    };
    std::vector<Cand> cands;
    for (int l = 0; l < n_layers; ++l) {
      for (int e = 0; e < n_experts; ++e) {
        if (!p.on_gpu(l, e)) {
          cands.push_back({calib_counts[static_cast<std::size_t>(l)]
                                       [static_cast<std::size_t>(e)],
                           l, e});
        }
      }
    }
    std::stable_sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      return a.count > b.count;
    });
    for (const Cand& c : cands) {
      if (remainder == 0) break;
      if (p.capacity(c.layer) >= p.n_experts()) continue;
      p.set_capacity(c.layer, p.capacity(c.layer) + 1);
      p.move_to_gpu(c.layer, c.expert);
      --remainder;
    }
  }
  return p;
}

Placement init_placement_global_greedy(
    int n_layers, int n_experts, double ecr,
    const std::vector<std::vector<double>>& calib_counts) {
  DAOP_CHECK_EQ(static_cast<int>(calib_counts.size()), n_layers);
  Placement p(n_layers, n_experts);
  const int total_slots = total_slots_for_ecr(n_layers, n_experts, ecr);

  struct Cand {
    double count;
    int layer;
    int expert;
  };
  std::vector<Cand> cands;
  cands.reserve(static_cast<std::size_t>(n_layers) * n_experts);
  for (int l = 0; l < n_layers; ++l) {
    DAOP_CHECK_EQ(static_cast<int>(calib_counts[static_cast<std::size_t>(l)].size()),
                  n_experts);
    for (int e = 0; e < n_experts; ++e) {
      cands.push_back(
          {calib_counts[static_cast<std::size_t>(l)][static_cast<std::size_t>(e)],
           l, e});
    }
  }
  std::stable_sort(cands.begin(), cands.end(),
                   [](const Cand& a, const Cand& b) { return a.count > b.count; });
  for (int i = 0; i < total_slots; ++i) {
    const Cand& c = cands[static_cast<std::size_t>(i)];
    p.set_capacity(c.layer, p.capacity(c.layer) + 1);
    p.move_to_gpu(c.layer, c.expert);
  }
  return p;
}

}  // namespace daop::cache
