#include "recovery/reconcile.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

namespace daop::recovery {

// The residency image is each layer's Device row as stored: one byte per
// cell, 1 on the GPU and 0 on the CPU.
static_assert(sizeof(cache::Device) == 1 &&
                  static_cast<std::uint8_t>(cache::Device::Cpu) == 0 &&
                  static_cast<std::uint8_t>(cache::Device::Gpu) == 1,
              "write_placement copies Device rows as residency bytes");

void write_placement(ByteWriter& w, const cache::Placement& p) {
  w.i32(p.n_layers());
  w.i32(p.n_experts());
  for (int l = 0; l < p.n_layers(); ++l) w.i32(p.capacity(l));
  for (int l = 0; l < p.n_layers(); ++l) {
    const std::span<const cache::Device> row = p.layer(l);
    w.bytes(reinterpret_cast<const std::uint8_t*>(row.data()), row.size());
  }
}

std::optional<cache::Placement> read_placement(ByteReader& r) {
  const int n_layers = r.i32();
  const int n_experts = r.i32();
  // The dimensions must fit the bytes that follow (capacities, then one
  // residency byte per cell) before anything is sized from them.
  if (!r.ok() || n_layers <= 0 || n_experts <= 0 ||
      static_cast<std::size_t>(n_layers) *
              (4 + static_cast<std::size_t>(n_experts)) >
          r.remaining()) {
    return std::nullopt;
  }
  cache::Placement p(n_layers, n_experts);
  for (int l = 0; l < n_layers; ++l) {
    // Placement::set_capacity requires 0 <= cap <= n_experts; a forged
    // capacity must fail here, not throw from the placement.
    const int cap = r.i32();
    if (cap < 0 || cap > n_experts) return std::nullopt;
    p.set_capacity(l, cap);
  }
  for (int l = 0; l < n_layers; ++l) {
    for (int e = 0; e < n_experts; ++e) {
      if (r.u8() == 0) continue;
      if (p.gpu_count(l) >= p.capacity(l)) return std::nullopt;
      p.move_to_gpu(l, e);
    }
  }
  return p;
}

ReconcileResult reconcile_placement(const cache::Placement& want,
                                    cache::PlacementArbiter& arbiter,
                                    sim::Timeline& tl, double now,
                                    double migration_cost_s,
                                    long long session_id) {
  ReconcileResult res;
  res.ready = now;
  cache::Placement& have = arbiter.placement();
  const int L = std::min(want.n_layers(), have.n_layers());
  const int E = std::min(want.n_experts(), have.n_experts());
  for (int l = 0; l < L; ++l) {
    // Surplus first: freeing capacity lets every wanted expert move in
    // without pairing swaps. Pinned surplus stays (another session computes
    // with it).
    for (int e = 0; e < E; ++e) {
      if (have.on_gpu(l, e) && !want.on_gpu(l, e)) {
        if (arbiter.try_evict(l, e, session_id)) ++res.evicted;
      }
    }
    for (int e = 0; e < E; ++e) {
      if (!want.on_gpu(l, e) || have.on_gpu(l, e)) continue;
      if (have.gpu_count(l) >= have.capacity(l)) {
        // Capacity still saturated by pinned residents: the restored
        // session runs this expert from the CPU like any refused migration.
        ++res.refused;
        continue;
      }
      have.move_to_gpu(l, e);
      const double done =
          tl.schedule(sim::Res::PcieH2D, now, migration_cost_s, "restore mig");
      arbiter.set_weight_ready(l, e, done);
      res.ready = std::max(res.ready, done);
      ++res.migrated;
    }
  }
  return res;
}

}  // namespace daop::recovery
