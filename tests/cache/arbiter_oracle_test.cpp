// Oracle test of the PlacementArbiter against a reference copy.
//
// `reference::PlacementArbiter` is the straightforward form of the pin
// rules: every (layer, expert) cell keeps a list of (session, nested count)
// holders, scanned linearly. The production arbiter keeps one total count
// per cell plus pooled per-session count rows; every answer it gives must
// equal the reference's.
//
// Seeded random sequences of pin / unpin / unpin_session / try_swap /
// try_evict (plus refills and weight-arrival publications) run over 1-16
// sessions whose ids are reused after a close, including a negative id.
// After every step the two arbiters must agree on pinned_by_other and
// other_pins for every session, pin_count,
// pinning_sessions, total_pin_count, weight_ready and the placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/arbiter.hpp"
#include "cache/placement.hpp"
#include "../testing/helpers.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"

namespace daop::cache {
namespace reference {

class PlacementArbiter {
 public:
  explicit PlacementArbiter(Placement initial)
      : placement_(std::move(initial)),
        pins_(static_cast<std::size_t>(placement_.n_layers()) *
              static_cast<std::size_t>(placement_.n_experts())),
        weight_ready_(pins_.size(), 0.0) {}

  Placement& placement() { return placement_; }
  const Placement& placement() const { return placement_; }

  void pin(int layer, int expert, long long session) {
    Holders& holders = pins_[idx(layer, expert)];
    const auto it = holder_of(holders, session);
    if (it != holders.end()) {
      ++it->second;
    } else {
      holders.emplace_back(session, 1);
    }
  }
  void unpin(int layer, int expert, long long session) {
    Holders& holders = pins_[idx(layer, expert)];
    const auto it = holder_of(holders, session);
    DAOP_CHECK(it != holders.end());
    if (--it->second == 0) {
      *it = holders.back();
      holders.pop_back();
    }
  }
  void unpin_session(long long session) {
    for (Holders& holders : pins_) {
      const auto it = holder_of(holders, session);
      if (it == holders.end()) continue;
      *it = holders.back();
      holders.pop_back();
    }
  }
  int pin_count(int layer, int expert) const {
    int n = 0;
    for (const auto& [session, count] : pins_[idx(layer, expert)]) n += count;
    return n;
  }
  std::vector<long long> pinning_sessions(int layer, int expert) const {
    std::vector<long long> out;
    for (const auto& [holder, count] : pins_[idx(layer, expert)]) {
      out.push_back(holder);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  int total_pin_count() const {
    int n = 0;
    for (const Holders& holders : pins_) {
      for (const auto& [session, count] : holders) n += count;
    }
    return n;
  }
  int other_pins(int layer, int expert, long long session) const {
    int n = 0;
    for (const auto& [holder, count] : pins_[idx(layer, expert)]) {
      if (holder != session) n += count;
    }
    return n;
  }
  bool pinned_by_other(int layer, int expert, long long session) const {
    for (const auto& [holder, count] : pins_[idx(layer, expert)]) {
      if (holder != session) return true;
    }
    return false;
  }
  bool try_swap(int layer, int expert_in, int expert_out, long long session) {
    if (pinned_by_other(layer, expert_out, session)) return false;
    placement_.swap(layer, expert_in, expert_out);
    return true;
  }
  bool try_evict(int layer, int expert, long long session) {
    if (pinned_by_other(layer, expert, session)) return false;
    placement_.move_to_cpu(layer, expert);
    return true;
  }
  double weight_ready(int layer, int expert) const {
    return weight_ready_[idx(layer, expert)];
  }
  void set_weight_ready(int layer, int expert, double t) {
    double& slot = weight_ready_[idx(layer, expert)];
    slot = std::max(slot, t);
  }

 private:
  using Holders = std::vector<std::pair<long long, int>>;

  std::size_t idx(int layer, int expert) const {
    return static_cast<std::size_t>(layer) *
               static_cast<std::size_t>(placement_.n_experts()) +
           static_cast<std::size_t>(expert);
  }
  static Holders::iterator holder_of(Holders& holders, long long session) {
    return std::find_if(
        holders.begin(), holders.end(),
        [session](const auto& h) { return h.first == session; });
  }

  Placement placement_;
  std::vector<Holders> pins_;
  std::vector<double> weight_ready_;
};

}  // namespace reference

namespace {

constexpr int kLayers = 3;
constexpr int kExperts = 6;

/// Capacity 3 per layer, experts {0, 1, 2} resident.
Placement initial_placement() {
  Placement pl(kLayers, kExperts);
  for (int l = 0; l < kLayers; ++l) {
    pl.set_capacity(l, 3);
    for (int e = 0; e < 3; ++e) pl.move_to_gpu(l, e);
  }
  return pl;
}

/// Every query of the two arbiters, compared; false (with a failure
/// recorded) on the first disagreement.
bool agree(const PlacementArbiter& arb, const reference::PlacementArbiter& ref,
           const std::vector<long long>& ids) {
  for (int l = 0; l < kLayers; ++l) {
    for (int e = 0; e < kExperts; ++e) {
      const std::string cell =
          "layer " + std::to_string(l) + " expert " + std::to_string(e);
      if (arb.pin_count(l, e) != ref.pin_count(l, e) ||
          arb.pinning_sessions(l, e) != ref.pinning_sessions(l, e) ||
          arb.weight_ready(l, e) != ref.weight_ready(l, e) ||
          arb.placement().on_gpu(l, e) != ref.placement().on_gpu(l, e)) {
        ADD_FAILURE() << "cell state differs at " << cell;
        return false;
      }
      for (const long long s : ids) {
        if (arb.pinned_by_other(l, e, s) != ref.pinned_by_other(l, e, s) ||
            arb.other_pins(l, e, s) != ref.other_pins(l, e, s)) {
          ADD_FAILURE() << "foreign pins differ at " << cell << " session "
                        << s;
          return false;
        }
      }
    }
  }
  if (arb.total_pin_count() != ref.total_pin_count()) {
    ADD_FAILURE() << "total pin count differs";
    return false;
  }
  return true;
}

/// A random expert of `layer` on `device`, or -1 when there is none.
int pick_on(Rng& rng, const Placement& pl, int layer, bool gpu) {
  std::vector<int> on;
  for (int e = 0; e < kExperts; ++e) {
    if (pl.on_gpu(layer, e) == gpu) on.push_back(e);
  }
  if (on.empty()) return -1;
  return on[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(on.size()) - 1))];
}

TEST(ArbiterOracle, AgreesWithHolderListReferenceOnRandomSequences) {
  Rng rng(0xA4B17E5ULL);
  long long swaps = 0;
  long long refusals = 0;
  long long closes = 0;
  for (int trial = 0; trial < 120; ++trial) {
    // 1-16 session ids; one trial in four includes the id -1 that an
    // anonymous session uses.
    const int n_sessions = rng.uniform_int(1, 16);
    std::vector<long long> ids;
    for (int i = 0; i < n_sessions; ++i) ids.push_back(1000 * trial + 7 * i);
    if (trial % 4 == 0) ids.back() = -1;
    PlacementArbiter arb(initial_placement());
    reference::PlacementArbiter ref(initial_placement());
    for (int step = 0; step < 200; ++step) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " step " +
                   std::to_string(step));
      const long long s = ids[static_cast<std::size_t>(
          rng.uniform_int(0, n_sessions - 1))];
      const int l = rng.uniform_int(0, kLayers - 1);
      const int op = rng.uniform_int(0, 99);
      if (op < 40) {
        const int e = rng.uniform_int(0, kExperts - 1);
        arb.pin(l, e, s);
        ref.pin(l, e, s);
      } else if (op < 70) {
        // Unpin a pin `s` holds in this layer, if any.
        for (int e = 0; e < kExperts; ++e) {
          const std::vector<long long> h = ref.pinning_sessions(l, e);
          if (std::find(h.begin(), h.end(), s) == h.end()) continue;
          arb.unpin(l, e, s);
          ref.unpin(l, e, s);
          break;
        }
      } else if (op < 76) {
        // Close: the id is reused by later steps.
        arb.unpin_session(s);
        ref.unpin_session(s);
        ++closes;
      } else if (op < 88) {
        const int out = pick_on(rng, ref.placement(), l, true);
        const int in = pick_on(rng, ref.placement(), l, false);
        if (out >= 0 && in >= 0) {
          const bool done = arb.try_swap(l, in, out, s);
          ASSERT_EQ(done, ref.try_swap(l, in, out, s));
          (done ? swaps : refusals) += 1;
        }
      } else if (op < 93) {
        const int e = pick_on(rng, ref.placement(), l, true);
        if (e >= 0) {
          const bool done = arb.try_evict(l, e, s);
          ASSERT_EQ(done, ref.try_evict(l, e, s));
          (done ? swaps : refusals) += 1;
        }
      } else if (op < 96) {
        // Refill an evicted slot so the layer keeps its victims.
        const int e = pick_on(rng, ref.placement(), l, false);
        if (e >= 0 && ref.placement().gpu_count(l) < 3) {
          arb.placement().move_to_gpu(l, e);
          ref.placement().move_to_gpu(l, e);
        }
      } else {
        const int e = rng.uniform_int(0, kExperts - 1);
        const double t = testing::uniform(rng, 0.0, 10.0);
        arb.set_weight_ready(l, e, t);
        ref.set_weight_ready(l, e, t);
      }
      if (!agree(arb, ref, ids)) return;
    }
  }
  // The sequences exercised both arbitration outcomes and many closes.
  EXPECT_GT(swaps, 100);
  EXPECT_GT(refusals, 100);
  EXPECT_GT(closes, 100);
}

}  // namespace
}  // namespace daop::cache
