#include "cache/arbiter.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.hpp"

namespace daop::cache {

PlacementArbiter::PlacementArbiter(Placement initial)
    : placement_(std::move(initial)),
      total_(static_cast<std::size_t>(placement_.n_layers()) *
                 static_cast<std::size_t>(placement_.n_experts()),
             0),
      weight_ready_(total_.size(), 0.0) {}

std::size_t PlacementArbiter::acquire_row(long long session) {
  auto it = std::find_if(rows_.begin(), rows_.end(),
                         [](const Row& row) { return !row.session; });
  if (it == rows_.end()) {
    it = rows_.insert(it, Row{{}, std::vector<int>(total_.size(), 0)});
  }
  it->session = session;
  last_row_ = static_cast<std::size_t>(it - rows_.begin());
  return last_row_;
}

void PlacementArbiter::unpin_session(long long session) {
  const std::size_t r = find_row(session);
  if (r == kNoRow) return;
  Row& row = rows_[r];
  for (std::size_t i = 0; i < total_.size(); ++i) {
    total_[i] -= row.counts[i];
    row.counts[i] = 0;
  }
  row.session.reset();
}

std::vector<long long> PlacementArbiter::pinning_sessions(int layer,
                                                          int expert) const {
  const std::size_t i = idx(layer, expert);
  std::vector<long long> out;
  for (const Row& row : rows_) {
    if (row.session && row.counts[i] > 0) out.push_back(*row.session);
  }
  std::sort(out.begin(), out.end());
  return out;
}

int PlacementArbiter::total_pin_count() const {
  return std::accumulate(total_.begin(), total_.end(), 0);
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

}  // namespace daop::cache
