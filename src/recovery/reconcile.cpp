#include "recovery/reconcile.hpp"

#include <algorithm>

namespace daop::recovery {

PlacementImage capture_placement(const cache::Placement& p) {
  PlacementImage img;
  img.n_layers = p.n_layers();
  img.n_experts = p.n_experts();
  img.capacity.resize(static_cast<std::size_t>(img.n_layers));
  img.on_gpu.assign(static_cast<std::size_t>(img.n_layers) *
                        static_cast<std::size_t>(img.n_experts),
                    0);
  for (int l = 0; l < img.n_layers; ++l) {
    img.capacity[static_cast<std::size_t>(l)] = p.capacity(l);
    for (int e = 0; e < img.n_experts; ++e) {
      if (p.on_gpu(l, e))
        img.on_gpu[static_cast<std::size_t>(l) *
                       static_cast<std::size_t>(img.n_experts) +
                   static_cast<std::size_t>(e)] = 1;
    }
  }
  return img;
}

void write_placement(ByteWriter& w, const cache::Placement& p) {
  w.i32(p.n_layers());
  w.i32(p.n_experts());
  for (int l = 0; l < p.n_layers(); ++l) w.i32(p.capacity(l));
  for (int l = 0; l < p.n_layers(); ++l) {
    for (int e = 0; e < p.n_experts(); ++e) w.u8(p.on_gpu(l, e) ? 1 : 0);
  }
}

bool apply_placement_image(const PlacementImage& img, cache::Placement& p) {
  if (img.n_layers != p.n_layers() || img.n_experts != p.n_experts())
    return false;
  for (int l = 0; l < img.n_layers; ++l) {
    int wanted = 0;
    for (int e = 0; e < img.n_experts; ++e) wanted += img.gpu(l, e) ? 1 : 0;
    if (img.capacity[static_cast<std::size_t>(l)] < wanted) return false;
  }
  for (int l = 0; l < img.n_layers; ++l) {
    // Evictions first so the wanted set always fits under the restored
    // capacity.
    for (int e = 0; e < img.n_experts; ++e) {
      if (p.on_gpu(l, e) && !img.gpu(l, e)) p.move_to_cpu(l, e);
    }
    p.set_capacity(l, img.capacity[static_cast<std::size_t>(l)]);
    for (int e = 0; e < img.n_experts; ++e) {
      if (!p.on_gpu(l, e) && img.gpu(l, e)) p.move_to_gpu(l, e);
    }
  }
  return true;
}

ReconcileResult reconcile_placement(const PlacementImage& want,
                                    cache::PlacementArbiter& arbiter,
                                    sim::Timeline& tl, double now,
                                    double migration_cost_s,
                                    long long session_id) {
  ReconcileResult res;
  res.ready = now;
  cache::Placement& have = arbiter.placement();
  const int L = std::min(want.n_layers, have.n_layers());
  const int E = std::min(want.n_experts, have.n_experts());
  for (int l = 0; l < L; ++l) {
    // Surplus first: freeing capacity lets every wanted expert move in
    // without pairing swaps. Pinned surplus stays (another session computes
    // with it).
    for (int e = 0; e < E; ++e) {
      if (have.on_gpu(l, e) && !want.gpu(l, e)) {
        if (arbiter.try_evict(l, e, session_id)) ++res.evicted;
      }
    }
    for (int e = 0; e < E; ++e) {
      if (!want.gpu(l, e) || have.on_gpu(l, e)) continue;
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
