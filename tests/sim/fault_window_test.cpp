// Contract test of FaultModel's live windows.
//
// FaultModel::live_window(r) promises that for every op start outside it,
// perturb(r, start, d) returns {0, 0} and consumes no draw, which is what
// lets Timeline::schedule skip the out-of-line perturbation call there. The
// grid is every preset in hazard_scenario_kinds() at intensity 0, 0.5 and
// 1, plus a brownout-only node scenario shaped like a cluster chaos run
// (one 120 s brownout and torn checkpoints), each under three seeds and on
// every resource.
//
// `reference::Timeline` is the schedule() that calls the model on every op
// of positive duration. One op stream fed to it and to sim::Timeline must
// give the same finish times, busy times, hazard stall, retries, recorded
// hazard tails and final stream cursor, bit for bit.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "../testing/helpers.hpp"
#include "common/rng.hpp"
#include "sim/fault_model.hpp"
#include "sim/timeline.hpp"

namespace daop::sim {
namespace reference {

/// schedule() with the fault model called on every op of positive duration
/// (no live-window test), reduced to what the fault plane touches.
class Timeline {
 public:
  explicit Timeline(FaultModel* fault) : fault_(fault) {}

  double schedule(Res r, double ready, double duration) {
    const auto i = static_cast<std::size_t>(r);
    const double start = std::max(ready, busy_until_[i]);
    if (fault_ != nullptr && duration > 0.0 && fault_->enabled()) {
      const FaultModel::Perturbation p = fault_->perturb(r, start, duration);
      duration += p.extra_s;
      hazard_stall_s_ += p.extra_s;
      hazard_transfer_retries_ += p.retries;
      if (p.extra_s > 0.0) {
        const double end = start + duration;
        hazard_tails_.push_back({r, end - p.extra_s, end, {}});
      }
    }
    const double end = start + duration;
    busy_until_[i] = end;
    busy_time_[i] += duration;
    return end;
  }

  double busy_time(Res r) const {
    return busy_time_[static_cast<std::size_t>(r)];
  }
  double hazard_stall_s() const { return hazard_stall_s_; }
  long long hazard_transfer_retries() const {
    return hazard_transfer_retries_;
  }
  const std::vector<Interval>& hazard_tails() const { return hazard_tails_; }

 private:
  FaultModel* fault_;
  std::array<double, kNumRes> busy_until_{};
  std::array<double, kNumRes> busy_time_{};
  double hazard_stall_s_ = 0.0;
  long long hazard_transfer_retries_ = 0;
  std::vector<Interval> hazard_tails_;
};

}  // namespace reference

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::array<Res, kNumRes> kAllRes = {Res::GpuStream, Res::CpuPool,
                                              Res::PcieH2D, Res::PcieD2H};
constexpr std::array<std::uint64_t, 3> kSeeds = {1, 7, 13};

struct Case {
  std::string name;
  HazardScenario scenario;
};

/// One 120 s brownout starting in [200, 1200] s plus torn checkpoints: the
/// shape of a cluster chaos node, whose only op-level hazard is the
/// brownout.
HazardScenario brownout_only() {
  HazardScenario h;
  h.node_brownout_prob = 1.0;
  h.node_brownout_min_start_s = 200.0;
  h.node_brownout_max_start_s = 1200.0;
  h.node_brownout_duration_s = 120.0;
  h.node_brownout_slowdown = 2.5;
  h.ckpt_torn_write_prob = 0.25;
  return h;
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const std::string& kind : hazard_scenario_kinds()) {
    for (const double intensity : {0.0, 0.5, 1.0}) {
      out.push_back({kind + "@" + std::to_string(intensity),
                     make_hazard_scenario(kind, intensity)});
    }
  }
  out.push_back({"brownout-only", brownout_only()});
  return out;
}

bool same_cursor(const FaultModel::StreamCursor& a,
                 const FaultModel::StreamCursor& b) {
  return a.transfer.s == b.transfer.s && a.load.s == b.load.s &&
         a.transfer.has_cached_normal == b.transfer.has_cached_normal &&
         a.load.has_cached_normal == b.load.has_cached_normal;
}

bool empty(const FaultModel::Window& w) { return !(w.lo < w.hi); }

/// Starts that probe a window's edges: lo, hi and their neighbours.
std::vector<double> edge_starts(const FaultModel::Window& w) {
  std::vector<double> out = {0.0, 1e-9, 1.0, 30.0, 1e4};
  for (const double x : {w.lo, w.hi}) {
    if (!std::isfinite(x)) continue;
    out.push_back(x);
    out.push_back(std::nextafter(x, -kInf));
    out.push_back(std::nextafter(x, kInf));
  }
  return out;
}

TEST(FaultWindow, ShapesFollowTheHazardsThatTouchEachResource) {
  for (const Case& c : cases()) {
    for (const std::uint64_t seed : kSeeds) {
      const FaultModel fm(c.scenario, seed);
      SCOPED_TRACE(c.name + " seed " + std::to_string(seed));
      const HazardScenario& s = c.scenario;
      const FaultModel::NodeFaults& n = fm.node_faults();
      for (const Res r : kAllRes) {
        SCOPED_TRACE(res_name(r));
        const FaultModel::Window w = fm.live_window(r);
        bool always = false;
        switch (r) {
          case Res::GpuStream:
            always = s.gpu_throttle_period_s > 0.0 &&
                     s.gpu_throttle_window_s > 0.0;
            break;
          case Res::CpuPool:
            always = s.cpu_contention_period_s > 0.0 &&
                     s.cpu_contention_window_s > 0.0;
            break;
          case Res::PcieH2D:
          case Res::PcieD2H:
            always = s.pcie_stall_prob > 0.0 || s.pcie_fail_prob > 0.0;
            break;
        }
        if (!fm.enabled()) {
          EXPECT_TRUE(empty(w));
        } else if (always) {
          EXPECT_EQ(w.lo, -kInf);
          EXPECT_EQ(w.hi, kInf);
        } else if (n.brownout && r != Res::CpuPool) {
          EXPECT_EQ(w.lo, n.brownout_start_s);
          EXPECT_EQ(w.hi, n.brownout_end_s);
        } else {
          EXPECT_TRUE(empty(w));
        }
      }
    }
  }
}

TEST(FaultWindow, StartsOutsideTheWindowNeitherPerturbNorDraw) {
  long long probed = 0;
  for (const Case& c : cases()) {
    for (const std::uint64_t seed : kSeeds) {
      FaultModel fm(c.scenario, seed);
      Rng rng(seed ^ 0x5EEDULL);
      SCOPED_TRACE(c.name + " seed " + std::to_string(seed));
      for (const Res r : kAllRes) {
        SCOPED_TRACE(res_name(r));
        const FaultModel::Window w = fm.live_window(r);
        std::vector<double> starts = edge_starts(w);
        for (int i = 0; i < 200; ++i) {
          starts.push_back(testing::uniform(rng, 0.0, 3e3));
        }
        for (const double start : starts) {
          const bool inside = start >= w.lo && start < w.hi;
          EXPECT_EQ(fm.live(r, start), inside) << "start " << start;
          if (inside) continue;
          for (const double d : {1e-4, 0.05, 2.0}) {
            const FaultModel::StreamCursor before = fm.stream_cursor();
            const FaultModel::Perturbation p = fm.perturb(r, start, d);
            EXPECT_EQ(p.extra_s, 0.0) << "start " << start << " duration "
                                      << d;
            EXPECT_EQ(p.retries, 0) << "start " << start;
            EXPECT_TRUE(same_cursor(before, fm.stream_cursor()))
                << "start " << start << " drew";
            ++probed;
          }
        }
      }
    }
  }
  EXPECT_GT(probed, 0);
}

TEST(FaultWindow, BrownoutEdgesAreExact) {
  // The first start inside the window and the last one are both slowed;
  // their outer neighbours are not.
  for (const std::uint64_t seed : kSeeds) {
    FaultModel fm(brownout_only(), seed);
    const FaultModel::NodeFaults& n = fm.node_faults();
    ASSERT_TRUE(n.brownout);
    for (const Res r : {Res::GpuStream, Res::PcieH2D, Res::PcieD2H}) {
      const double last = std::nextafter(n.brownout_end_s, -kInf);
      EXPECT_TRUE(fm.live(r, n.brownout_start_s));
      EXPECT_TRUE(fm.live(r, last));
      EXPECT_FALSE(fm.live(r, n.brownout_end_s));
      EXPECT_FALSE(fm.live(r, std::nextafter(n.brownout_start_s, -kInf)));
      EXPECT_GT(fm.perturb(r, n.brownout_start_s, 0.01).extra_s, 0.0);
      EXPECT_GT(fm.perturb(r, last, 0.01).extra_s, 0.0);
    }
    EXPECT_FALSE(fm.live(Res::CpuPool, n.brownout_start_s));
  }
}

TEST(FaultWindow, TimelineMatchesTheCallEveryOpReference) {
  long long perturbed = 0;
  for (const Case& c : cases()) {
    for (const std::uint64_t seed : kSeeds) {
      SCOPED_TRACE(c.name + " seed " + std::to_string(seed));
      FaultModel fm(c.scenario, seed);
      FaultModel fm_ref(c.scenario, seed);
      Timeline tl;
      tl.set_fault_model(&fm);
      const bool record = seed % 2 == 1;
      tl.set_record_intervals(record);
      reference::Timeline ref(&fm_ref);

      // Ops of mixed lengths (some zero) on random resources, with mostly
      // short gaps and occasional long idle jumps, so the stream crosses
      // every brownout window of either scenario shape.
      Rng rng(seed * 31 + 5);
      double t = 0.0;
      for (int op = 0; op < 6000; ++op) {
        t += rng.uniform() < 0.02 ? testing::uniform(rng, 0.0, 30.0)
                                  : testing::uniform(rng, 0.0, 0.02);
        const Res r = kAllRes[static_cast<std::size_t>(rng.uniform_int(0, 3))];
        const double d =
            rng.uniform() < 0.05 ? 0.0 : testing::uniform(rng, 1e-5, 0.03);
        const double end = tl.schedule(r, t, d);
        const double end_ref = ref.schedule(r, t, d);
        ASSERT_EQ(end, end_ref) << "op " << op;
      }
      EXPECT_GT(t, 1400.0);  // past every brownout window
      for (const Res r : kAllRes) {
        EXPECT_EQ(tl.busy_time(r), ref.busy_time(r)) << res_name(r);
      }
      EXPECT_EQ(tl.hazard_stall_s(), ref.hazard_stall_s());
      EXPECT_EQ(tl.hazard_transfer_retries(), ref.hazard_transfer_retries());
      EXPECT_TRUE(same_cursor(fm.stream_cursor(), fm_ref.stream_cursor()));
      if (record) {
        const std::vector<Interval>& got = tl.hazard_intervals();
        const std::vector<Interval>& want = ref.hazard_tails();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].res, want[i].res);
          EXPECT_EQ(got[i].start, want[i].start);
          EXPECT_EQ(got[i].end, want[i].end);
        }
      }
      if (c.name == "brownout-only") EXPECT_GT(ref.hazard_stall_s(), 0.0);
      if (ref.hazard_stall_s() > 0.0) ++perturbed;
    }
  }
  // The grid must actually exercise perturbation, not only quiet models:
  // pcie, cpu, thermal and all perturb at both non-zero intensities, and
  // some brownout windows are crossed too.
  EXPECT_GT(perturbed, 24);
}

}  // namespace
}  // namespace daop::sim
