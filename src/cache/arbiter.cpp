#include "cache/arbiter.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace daop::cache {

PlacementArbiter::PlacementArbiter(Placement initial)
    : placement_(std::move(initial)),
      pins_(static_cast<std::size_t>(placement_.n_layers()) *
            static_cast<std::size_t>(placement_.n_experts())),
      weight_ready_(pins_.size(), 0.0) {
  // Room up front for the holders of a 4-slot batch, so pin() allocates
  // only when more sessions than that compute with one expert at once.
  for (Holders& holders : pins_) holders.reserve(4);
}

void PlacementArbiter::unpin_session(long long session) {
  for (Holders& holders : pins_) {
    const auto it = holder_of(holders, session);
    if (it == holders.end()) continue;
    *it = holders.back();
    holders.pop_back();
  }
}

int PlacementArbiter::pin_count(int layer, int expert) const {
  int n = 0;
  for (const auto& [session, count] : pins_[idx(layer, expert)]) n += count;
  return n;
}

int PlacementArbiter::pin_count(int expert) const {
  DAOP_CHECK_GE(expert, 0);
  DAOP_CHECK_LT(expert, placement_.n_experts());
  int n = 0;
  for (int layer = 0; layer < placement_.n_layers(); ++layer) {
    n += pin_count(layer, expert);
  }
  return n;
}

std::vector<long long> PlacementArbiter::pinning_sessions(int layer,
                                                          int expert) const {
  std::vector<long long> out;
  for (const auto& [holder, count] : pins_[idx(layer, expert)]) {
    out.push_back(holder);
  }
  std::sort(out.begin(), out.end());
  return out;
}

int PlacementArbiter::total_pin_count() const {
  int n = 0;
  for (const Holders& holders : pins_) {
    for (const auto& [session, count] : holders) n += count;
  }
  return n;
}

bool PlacementArbiter::try_swap(int layer, int expert_in, int expert_out,
                                long long session) {
  if (pinned_by_other(layer, expert_out, session)) return false;
  placement_.swap(layer, expert_in, expert_out);
  return true;
}

bool PlacementArbiter::try_evict(int layer, int expert, long long session) {
  if (pinned_by_other(layer, expert, session)) return false;
  placement_.move_to_cpu(layer, expert);
  return true;
}

double PlacementArbiter::weight_ready(int layer, int expert) const {
  return weight_ready_[idx(layer, expert)];
}

void PlacementArbiter::set_weight_ready(int layer, int expert, double t) {
  double& slot = weight_ready_[idx(layer, expert)];
  slot = std::max(slot, t);
}

}  // namespace daop::cache
