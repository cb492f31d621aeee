// PlacementArbiter semantics: pin-refused swaps/evictions, ref-counted
// nesting, session cleanup and the monotonic weight-arrival gate. These are
// the rules that make continuous batching safe — one session's migration
// must never evict an expert a concurrent session is computing with.
#include "cache/arbiter.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "common/check.hpp"

namespace daop::cache {
namespace {

// 2 layers x 4 experts, 2 GPU slots per layer holding experts {0, 1}.
Placement small_placement() {
  Placement pl(2, 4);
  for (int l = 0; l < 2; ++l) {
    pl.set_capacity(l, 2);
    pl.move_to_gpu(l, 0);
    pl.move_to_gpu(l, 1);
  }
  return pl;
}

// Pins on `expert` summed across every layer and session (an expert id
// names one weight set per layer).
int expert_pin_count(const PlacementArbiter& arb, int expert) {
  int n = 0;
  for (int layer = 0; layer < arb.placement().n_layers(); ++layer) {
    n += arb.pin_count(layer, expert);
  }
  return n;
}

TEST(PlacementArbiter, PinsBlockOtherSessionsSwaps) {
  PlacementArbiter arb(small_placement());
  arb.pin(0, 1, /*session=*/1);

  // Session 2 cannot swap out the expert session 1 is computing with.
  EXPECT_FALSE(arb.try_swap(0, /*expert_in=*/3, /*expert_out=*/1,
                            /*session=*/2));
  EXPECT_TRUE(arb.placement().on_gpu(0, 1));
  EXPECT_FALSE(arb.placement().on_gpu(0, 3));

  // A session's own pins never block its request.
  EXPECT_TRUE(arb.try_swap(0, 3, 1, /*session=*/1));
  EXPECT_FALSE(arb.placement().on_gpu(0, 1));
  EXPECT_TRUE(arb.placement().on_gpu(0, 3));

  // Pins are per (layer, expert): the same expert in another layer is free.
  arb.pin(0, 0, /*session=*/1);
  EXPECT_TRUE(arb.try_swap(1, 2, 0, /*session=*/2));
}

TEST(PlacementArbiter, PinsAreRefCounted) {
  PlacementArbiter arb(small_placement());
  arb.pin(0, 0, 1);
  arb.pin(0, 0, 1);
  EXPECT_EQ(arb.pin_count(0, 0), 2);

  arb.unpin(0, 0, 1);
  EXPECT_EQ(arb.pin_count(0, 0), 1);
  EXPECT_TRUE(arb.pinned_by_other(0, 0, /*session=*/2));
  EXPECT_FALSE(arb.try_swap(0, 2, 0, /*session=*/2));

  arb.unpin(0, 0, 1);
  EXPECT_EQ(arb.pin_count(0, 0), 0);
  EXPECT_FALSE(arb.pinned_by_other(0, 0, 2));
  EXPECT_TRUE(arb.try_swap(0, 2, 0, /*session=*/2));
}

TEST(PlacementArbiter, PinnedByOtherIgnoresOwnPins) {
  PlacementArbiter arb(small_placement());
  arb.pin(0, 0, 7);
  EXPECT_FALSE(arb.pinned_by_other(0, 0, 7));
  EXPECT_TRUE(arb.pinned_by_other(0, 0, 8));
  // Two sessions pinning: now even the first holder sees "other".
  arb.pin(0, 0, 8);
  EXPECT_TRUE(arb.pinned_by_other(0, 0, 7));
  EXPECT_EQ(arb.pin_count(0, 0), 2);
}

TEST(PlacementArbiter, UnpinSessionDropsAllItsPins) {
  PlacementArbiter arb(small_placement());
  arb.pin(0, 0, 1);
  arb.pin(0, 0, 1);
  arb.pin(0, 1, 1);
  arb.pin(1, 0, 2);

  arb.unpin_session(1);
  EXPECT_EQ(arb.pin_count(0, 0), 0);
  EXPECT_EQ(arb.pin_count(0, 1), 0);
  // Other sessions' pins survive.
  EXPECT_EQ(arb.pin_count(1, 0), 1);
  EXPECT_TRUE(arb.try_swap(0, 3, 0, /*session=*/2));
  EXPECT_FALSE(arb.try_swap(1, 3, 0, /*session=*/1));
}

TEST(PlacementArbiter, TryEvictRespectsPins) {
  PlacementArbiter arb(small_placement());
  arb.pin(0, 1, 1);
  EXPECT_FALSE(arb.try_evict(0, 1, /*session=*/2));
  EXPECT_TRUE(arb.placement().on_gpu(0, 1));

  EXPECT_TRUE(arb.try_evict(0, 1, /*session=*/1));
  EXPECT_FALSE(arb.placement().on_gpu(0, 1));
  EXPECT_TRUE(arb.try_evict(0, 0, /*session=*/2));
  EXPECT_EQ(arb.placement().gpu_count(0), 0);
}

TEST(PlacementArbiter, PerExpertPinCountSumsAcrossLayers) {
  PlacementArbiter arb(small_placement());
  EXPECT_EQ(expert_pin_count(arb, /*expert=*/0), 0);
  arb.pin(0, 0, 1);
  arb.pin(0, 0, 2);
  arb.pin(1, 0, 3);
  // Expert 0 aggregates across both layers.
  EXPECT_EQ(expert_pin_count(arb, 0), 3);
  EXPECT_EQ(expert_pin_count(arb, /*expert=*/1), 0);
  arb.unpin_session(1);
  EXPECT_EQ(expert_pin_count(arb, 0), 2);
  arb.unpin_session(2);
  arb.unpin_session(3);
  EXPECT_EQ(expert_pin_count(arb, 0), 0);
}

TEST(PlacementArbiter, PinningSessionsNamesHoldersSorted) {
  PlacementArbiter arb(small_placement());
  EXPECT_TRUE(arb.pinning_sessions(0, 0).empty());
  arb.pin(0, 0, 42);
  arb.pin(0, 0, 7);
  arb.pin(0, 0, 7);  // ref-counted, still one holder entry
  const auto holders = arb.pinning_sessions(0, 0);
  ASSERT_EQ(holders.size(), 2u);
  EXPECT_EQ(holders[0], 7);
  EXPECT_EQ(holders[1], 42);
  // Fully released holders drop out.
  arb.unpin(0, 0, 7);
  arb.unpin(0, 0, 7);
  const auto rest = arb.pinning_sessions(0, 0);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0], 42);
}

TEST(PlacementArbiter, WeightReadyGateIsMonotonic) {
  PlacementArbiter arb(small_placement());
  // Never-in-flight experts gate at 0 (usable immediately).
  EXPECT_DOUBLE_EQ(arb.weight_ready(0, 2), 0.0);

  arb.set_weight_ready(0, 2, 5.0);
  EXPECT_DOUBLE_EQ(arb.weight_ready(0, 2), 5.0);
  // Publishing an earlier arrival never rolls the gate back.
  arb.set_weight_ready(0, 2, 3.0);
  EXPECT_DOUBLE_EQ(arb.weight_ready(0, 2), 5.0);
  arb.set_weight_ready(0, 2, 7.5);
  EXPECT_DOUBLE_EQ(arb.weight_ready(0, 2), 7.5);
  // Gates are per (layer, expert).
  EXPECT_DOUBLE_EQ(arb.weight_ready(1, 2), 0.0);
}

// ---------------------------------------------------------------------------
// Flat holder lists: each (layer, expert) cell keeps its (session, count)
// holders in arbitrary order and removes a released holder by swapping the
// last one into its place. The cases below interleave sessions so removals
// hit the front, middle and back of a cell.

TEST(PlacementArbiter, OutOfOrderUnpinsKeepPinningSessionsAscending) {
  PlacementArbiter arb(small_placement());
  for (const long long s : {30, 10, 50, 20, 40}) arb.pin(0, 0, s);
  EXPECT_EQ(arb.pinning_sessions(0, 0),
            (std::vector<long long>{10, 20, 30, 40, 50}));
  arb.unpin(0, 0, 10);  // second entry: the last holder moves into it
  EXPECT_EQ(arb.pinning_sessions(0, 0),
            (std::vector<long long>{20, 30, 40, 50}));
  arb.unpin(0, 0, 30);  // first entry
  EXPECT_EQ(arb.pinning_sessions(0, 0), (std::vector<long long>{20, 40, 50}));
  arb.pin(0, 0, 5);
  arb.pin(0, 0, 45);
  EXPECT_EQ(arb.pinning_sessions(0, 0),
            (std::vector<long long>{5, 20, 40, 45, 50}));
  arb.unpin(0, 0, 45);  // the last entry itself
  arb.unpin(0, 0, 50);
  EXPECT_EQ(arb.pinning_sessions(0, 0), (std::vector<long long>{5, 20, 40}));
  EXPECT_EQ(arb.pin_count(0, 0), 3);
}

// A reference model of nested pins checked after every operation of a
// deterministic interleaving of six sessions over every cell: per-cell and
// per-expert counts, the total, the sorted holders and pinned_by_other
// all stay exact through swap-removals.
TEST(PlacementArbiter, CountsStayExactThroughInterleavedSwapRemovals) {
  PlacementArbiter arb(small_placement());
  std::map<std::tuple<int, int, long long>, int> model;  // (l, e, s) -> n
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x](int n) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<int>(x % static_cast<std::uint64_t>(n));
  };
  for (int op = 0; op < 4000; ++op) {
    const int l = next(2);
    const int e = next(4);
    const long long s = 100 + next(6);
    auto it = model.find({l, e, s});
    // Unpin only what is held; otherwise pin (nesting up to 3 deep).
    if (it != model.end() && (it->second >= 3 || next(2) == 0)) {
      arb.unpin(l, e, s);
      if (--it->second == 0) model.erase(it);
    } else {
      arb.pin(l, e, s);
      ++model[{l, e, s}];
    }
    if (op % 97 == 0) {
      const long long gone = 100 + next(6);
      arb.unpin_session(gone);
      std::erase_if(model, [gone](const auto& kv) {
        return std::get<2>(kv.first) == gone;
      });
    }
    int total = 0;
    for (int cl = 0; cl < 2; ++cl) {
      for (int ce = 0; ce < 4; ++ce) {
        int cell = 0;
        std::vector<long long> holders;
        for (const auto& [key, n] : model) {
          if (std::get<0>(key) != cl || std::get<1>(key) != ce) continue;
          cell += n;
          holders.push_back(std::get<2>(key));
        }
        total += cell;
        ASSERT_EQ(arb.pin_count(cl, ce), cell) << "op " << op;
        ASSERT_EQ(arb.pinning_sessions(cl, ce), holders) << "op " << op;
        for (long long q = 100; q < 106; ++q) {
          const bool other =
              holders.size() > 1 || (holders.size() == 1 && holders[0] != q);
          ASSERT_EQ(arb.pinned_by_other(cl, ce, q), other) << "op " << op;
        }
      }
    }
    ASSERT_EQ(arb.total_pin_count(), total) << "op " << op;
  }
}

TEST(PlacementArbiter, UnpinSessionDropsOnlyThatSessionsHolders) {
  PlacementArbiter arb(small_placement());
  // Three sessions interleave nested pins on shared and private cells.
  for (int round = 0; round < 2; ++round) {
    for (const long long s : {1, 2, 3}) {
      arb.pin(0, 0, s);
      arb.pin(1, static_cast<int>(s), s);
    }
  }
  arb.pin(0, 1, 2);
  EXPECT_EQ(arb.total_pin_count(), 13);
  arb.unpin_session(2);  // the middle holder of cell (0, 0)
  EXPECT_EQ(arb.pinning_sessions(0, 0), (std::vector<long long>{1, 3}));
  EXPECT_EQ(arb.pin_count(0, 0), 4);
  EXPECT_EQ(arb.pin_count(0, 1), 0);
  EXPECT_EQ(arb.pin_count(1, 2), 0);
  EXPECT_EQ(arb.pin_count(1, 1), 2);
  EXPECT_EQ(arb.pin_count(1, 3), 2);
  EXPECT_EQ(arb.total_pin_count(), 8);
  arb.unpin_session(2);  // idempotent
  EXPECT_EQ(arb.total_pin_count(), 8);
  // The survivors still release pin by pin.
  arb.unpin(0, 0, 3);
  EXPECT_EQ(arb.pinning_sessions(0, 0), (std::vector<long long>{1, 3}));
  arb.unpin(0, 0, 3);
  EXPECT_EQ(arb.pinning_sessions(0, 0), (std::vector<long long>{1}));
}

TEST(PlacementArbiter, UnpinWithoutMatchingPinIsACheckFailure) {
  PlacementArbiter arb(small_placement());
  EXPECT_THROW(arb.unpin(0, 0, 1), CheckError);  // empty cell
  arb.pin(0, 0, 2);
  arb.pin(0, 0, 3);
  EXPECT_THROW(arb.unpin(0, 0, 1), CheckError);  // other holders only
  arb.unpin(0, 0, 2);
  EXPECT_THROW(arb.unpin(0, 0, 2), CheckError);  // already released
  arb.unpin_session(3);
  EXPECT_THROW(arb.unpin(0, 0, 3), CheckError);  // dropped by session
  // A rejected unpin leaves every other pin in place.
  arb.pin(1, 2, 4);
  EXPECT_THROW(arb.unpin(1, 2, 5), CheckError);
  EXPECT_EQ(arb.pinning_sessions(1, 2), (std::vector<long long>{4}));
  EXPECT_EQ(arb.total_pin_count(), 1);
}

}  // namespace
}  // namespace daop::cache
