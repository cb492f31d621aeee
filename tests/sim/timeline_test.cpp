#include "sim/timeline.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "sim/fault_model.hpp"

namespace daop::sim {
namespace {

/// A synchronization point: a zero-duration op that may not start before
/// `t` advances `r`'s availability to at least `t` and adds no busy time.
void block_until(Timeline& tl, Res r, double t) { tl.schedule(r, t, 0.0); }

/// The ways schedule() can run: its plain path, and each of the hooks it
/// enters (recording, and a fault model attached while disabled or
/// enabled).
enum class Path { kBare, kRecording, kFaultOff, kFaultOn };
constexpr Path kPaths[] = {Path::kBare, Path::kRecording, Path::kFaultOff,
                           Path::kFaultOn};

/// A timeline wired for one Path; owns the fault model it attaches.
struct PathTimeline {
  explicit PathTimeline(Path path) {
    if (path == Path::kRecording) tl.set_record_intervals(true);
    if (path == Path::kFaultOff || path == Path::kFaultOn) {
      fault = std::make_unique<FaultModel>(
          path == Path::kFaultOn ? make_hazard_scenario("all", 1.0)
                                 : HazardScenario{},
          7);
      tl.set_fault_model(fault.get());
    }
  }
  std::unique_ptr<FaultModel> fault;
  Timeline tl;
};

/// Expects schedule(ready, duration) to throw through both the string_view
/// and the TagId overload on every path, leaving the resource untouched.
void expect_rejected(double ready, double duration) {
  for (const Path path : kPaths) {
    PathTimeline p(path);
    const TagId tag = p.tl.intern_tag("op");
    EXPECT_THROW(p.tl.schedule(Res::PcieH2D, ready, duration), CheckError)
        << "path " << static_cast<int>(path);
    EXPECT_THROW(p.tl.schedule(Res::PcieH2D, ready, duration, "op"),
                 CheckError)
        << "path " << static_cast<int>(path);
    EXPECT_THROW(p.tl.schedule(Res::PcieH2D, ready, duration, tag),
                 CheckError)
        << "path " << static_cast<int>(path);
    EXPECT_EQ(p.tl.busy_until(Res::PcieH2D), 0.0);
    EXPECT_EQ(p.tl.busy_time(Res::PcieH2D), 0.0);
    EXPECT_EQ(p.tl.interval_count(), 0U);
  }
}

TEST(Timeline, StartsEmpty) {
  Timeline tl;
  EXPECT_EQ(tl.span(), 0.0);
  for (int r = 0; r < kNumRes; ++r) {
    EXPECT_EQ(tl.busy_until(static_cast<Res>(r)), 0.0);
    EXPECT_EQ(tl.busy_time(static_cast<Res>(r)), 0.0);
  }
}

TEST(Timeline, SerializesWorkOnOneResource) {
  Timeline tl;
  const double e1 = tl.schedule(Res::GpuStream, 0.0, 1.0);
  const double e2 = tl.schedule(Res::GpuStream, 0.0, 2.0);  // must queue
  EXPECT_EQ(e1, 1.0);
  EXPECT_EQ(e2, 3.0);
  EXPECT_EQ(tl.busy_time(Res::GpuStream), 3.0);
}

TEST(Timeline, ParallelAcrossResources) {
  Timeline tl;
  const double g = tl.schedule(Res::GpuStream, 0.0, 1.0);
  const double c = tl.schedule(Res::CpuPool, 0.0, 2.0);
  EXPECT_EQ(g, 1.0);
  EXPECT_EQ(c, 2.0);
  EXPECT_EQ(tl.span(), 2.0);
}

TEST(Timeline, RespectsReadyTime) {
  Timeline tl;
  const double end = tl.schedule(Res::CpuPool, 5.0, 1.0);
  EXPECT_EQ(end, 6.0);
  // Busy time counts only the work, not the idle gap.
  EXPECT_EQ(tl.busy_time(Res::CpuPool), 1.0);
}

TEST(Timeline, DependencyChainAcrossResources) {
  Timeline tl;
  const double t1 = tl.schedule(Res::GpuStream, 0.0, 1.0);   // compute
  const double t2 = tl.schedule(Res::PcieD2H, t1, 0.5);      // ship out
  const double t3 = tl.schedule(Res::CpuPool, t2, 2.0);      // CPU work
  const double t4 = tl.schedule(Res::PcieH2D, t3, 0.5);      // ship back
  EXPECT_EQ(t4, 4.0);
  EXPECT_EQ(tl.span(), 4.0);
}

TEST(Timeline, ZeroDurationAdvancesNothing) {
  Timeline tl;
  const double end = tl.schedule(Res::GpuStream, 2.0, 0.0);
  EXPECT_EQ(end, 2.0);
  EXPECT_EQ(tl.busy_time(Res::GpuStream), 0.0);
}

TEST(Timeline, BlockUntilAdvancesAvailabilityWithoutBusy) {
  Timeline tl;
  block_until(tl, Res::GpuStream, 3.0);
  EXPECT_EQ(tl.busy_until(Res::GpuStream), 3.0);
  EXPECT_EQ(tl.busy_time(Res::GpuStream), 0.0);
  const double end = tl.schedule(Res::GpuStream, 0.0, 1.0);
  EXPECT_EQ(end, 4.0);
}

TEST(Timeline, RecordsIntervalsOnlyWhenEnabled) {
  Timeline tl;
  tl.schedule(Res::GpuStream, 0.0, 1.0, "hidden");
  EXPECT_TRUE(tl.intervals().empty());
  tl.set_record_intervals(true);
  tl.schedule(Res::GpuStream, 0.0, 1.0, "visible");
  ASSERT_EQ(tl.intervals().size(), 1U);
  EXPECT_EQ(tl.intervals()[0].tag, "visible");
  EXPECT_EQ(tl.intervals()[0].start, 1.0);
  EXPECT_EQ(tl.intervals()[0].end, 2.0);
}

TEST(Timeline, ResetClearsEverything) {
  Timeline tl;
  tl.set_record_intervals(true);
  tl.schedule(Res::CpuPool, 0.0, 5.0, "x");
  tl.reset();
  EXPECT_EQ(tl.span(), 0.0);
  EXPECT_EQ(tl.busy_time(Res::CpuPool), 0.0);
  EXPECT_TRUE(tl.intervals().empty());
}

TEST(Timeline, RejectsNegativeInputs) {
  expect_rejected(-1.0, 1.0);
  expect_rejected(0.0, -1.0);
  expect_rejected(-std::numeric_limits<double>::denorm_min(), 1.0);
  expect_rejected(0.0, -std::numeric_limits<double>::denorm_min());
}

TEST(Timeline, RejectsNonFiniteInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  expect_rejected(nan, 1.0);
  expect_rejected(0.0, nan);
  expect_rejected(inf, 1.0);
  expect_rejected(0.0, inf);
  expect_rejected(-inf, 1.0);
}

TEST(Timeline, RejectionNamesTheBadInput) {
  Timeline tl;
  try {
    tl.schedule(Res::GpuStream, -2.0, 1.0);
    FAIL() << "negative ready accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "schedule ready time must be finite and >= 0, got -2"),
              std::string::npos)
        << e.what();
  }
  try {
    tl.schedule(Res::GpuStream, 1.0, -3.0);
    FAIL() << "negative duration accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "schedule duration must be finite and >= 0, got -3"),
              std::string::npos)
        << e.what();
  }
}

// Signed zeros pin the expression order: the start is max(ready,
// busy_until), which keeps `ready` on a tie, and the end is start +
// duration with nothing added to an unperturbed duration.
TEST(Timeline, SignedZerosKeepTheirBits) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const Path path : kPaths) {
    PathTimeline p(path);
    EXPECT_EQ(bits(p.tl.schedule(Res::CpuPool, -0.0, 0.0)), bits(0.0));
    EXPECT_EQ(bits(p.tl.last_start()), bits(-0.0));
    EXPECT_EQ(bits(p.tl.schedule(Res::CpuPool, -0.0, -0.0)), bits(-0.0));
    EXPECT_EQ(bits(p.tl.busy_until(Res::CpuPool)), bits(-0.0));
    EXPECT_EQ(bits(p.tl.busy_time(Res::CpuPool)), bits(0.0));
  }
}

// One seeded op stream, rich in the edge cases of the max/add arithmetic
// (zero and -0.0 durations, readies equal to the resource's busy-until, a
// -0.0 ready), scheduled on a bare timeline, a recording one and one with a
// disabled fault model attached. The hooks must not change one bit of the
// schedule.
TEST(Timeline, HooksLeaveTheScheduleBitIdentical) {
  struct Op {
    Res res;
    double ready;
    double duration;
  };
  std::mt19937_64 gen(20240611);
  std::uniform_int_distribution<int> pick(0, 9);
  std::uniform_int_distribution<int> res(0, kNumRes - 1);
  std::uniform_real_distribution<double> u(0.0, 1e-2);
  Timeline shape;  // tracks busy-until so readies can tie it exactly
  std::vector<Op> ops;
  double prev_end = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const Res r = static_cast<Res>(res(gen));
    double ready = 0.0;
    switch (pick(gen)) {
      case 0: ready = -0.0; break;
      case 1:
      case 2: ready = shape.busy_until(r); break;
      case 3: ready = prev_end; break;
      default: ready = prev_end * u(gen) * 100.0; break;
    }
    const int d = pick(gen);
    const double duration = d == 0 ? -0.0 : d < 3 ? 0.0 : u(gen);
    ops.push_back({r, ready, duration});
    prev_end = shape.schedule(r, ready, duration);
  }

  const Path paths[] = {Path::kBare, Path::kRecording, Path::kFaultOff};
  std::vector<std::vector<std::uint64_t>> runs;
  for (const Path path : paths) {
    PathTimeline p(path);
    std::vector<std::uint64_t> bits;
    for (const Op& op : ops) {
      bits.push_back(std::bit_cast<std::uint64_t>(
          p.tl.schedule(op.res, op.ready, op.duration, "op")));
      bits.push_back(std::bit_cast<std::uint64_t>(p.tl.last_start()));
    }
    for (int r = 0; r < kNumRes; ++r) {
      bits.push_back(
          std::bit_cast<std::uint64_t>(p.tl.busy_until(static_cast<Res>(r))));
      bits.push_back(
          std::bit_cast<std::uint64_t>(p.tl.busy_time(static_cast<Res>(r))));
    }
    runs.push_back(std::move(bits));
  }
  EXPECT_EQ(runs[0], runs[1]) << "recording changed the schedule";
  EXPECT_EQ(runs[0], runs[2]) << "a disabled fault model changed it";
}

TEST(Timeline, BlockUntilRejectsBadTimes) {
  Timeline tl;
  EXPECT_THROW(block_until(tl, Res::CpuPool, -1.0), CheckError);
  EXPECT_THROW(
      block_until(tl, Res::CpuPool, std::numeric_limits<double>::quiet_NaN()),
      CheckError);
  EXPECT_THROW(
      block_until(tl, Res::CpuPool, std::numeric_limits<double>::infinity()),
      CheckError);
}

TEST(Timeline, BlockUntilNeverMovesTimeBackwards) {
  Timeline tl;
  block_until(tl, Res::GpuStream, 5.0);
  block_until(tl, Res::GpuStream, 2.0);  // earlier sync point: no-op
  EXPECT_EQ(tl.busy_until(Res::GpuStream), 5.0);
}

TEST(Timeline, IntervalsNeverOverlapPerResource) {
  Timeline tl;
  tl.set_record_intervals(true);
  // Schedule with deliberately overlapping ready times.
  for (int i = 0; i < 50; ++i) {
    tl.schedule(Res::GpuStream, static_cast<double>(i % 3), 0.7);
  }
  double prev_end = 0.0;
  for (const auto& iv : tl.intervals()) {
    EXPECT_GE(iv.start, prev_end);
    prev_end = iv.end;
  }
}

TEST(Gantt, RendersLanesAndLegend) {
  Timeline tl;
  tl.set_record_intervals(true);
  tl.schedule(Res::GpuStream, 0.0, 0.001, "op-a");
  tl.schedule(Res::CpuPool, 0.0, 0.002, "op-b");
  const std::string g = render_gantt(tl, 0.0, 0.002, 40);
  EXPECT_NE(g.find("GPU"), std::string::npos);
  EXPECT_NE(g.find("CPU"), std::string::npos);
  EXPECT_NE(g.find("op-a"), std::string::npos);
  EXPECT_NE(g.find("op-b"), std::string::npos);
  EXPECT_NE(g.find('#'), std::string::npos);
}

TEST(Gantt, RejectsEmptyWindow) {
  Timeline tl;
  EXPECT_THROW(render_gantt(tl, 1.0, 1.0, 10), CheckError);
}

TEST(TagPool, InternsAndRoundTrips) {
  TagPool pool;
  EXPECT_EQ(pool.intern(""), kNoTag);
  const TagId a = pool.intern("fetch L0 E3");
  const TagId b = pool.intern("attn fwd");
  EXPECT_NE(a, kNoTag);
  EXPECT_NE(b, a);
  EXPECT_EQ(pool.intern("fetch L0 E3"), a);  // dedup: same id back
  EXPECT_EQ(pool.view(a), "fetch L0 E3");
  EXPECT_EQ(pool.view(b), "attn fwd");
  EXPECT_EQ(pool.view(kNoTag), "");
  EXPECT_EQ(pool.size(), 3U);  // "", plus two distinct tags
}

TEST(TagPool, ClearResetsToEmptyStringOnly) {
  TagPool pool;
  pool.intern("x");
  pool.clear();
  EXPECT_EQ(pool.size(), 1U);
  EXPECT_EQ(pool.intern(""), kNoTag);
}

TEST(TimelineSoA, CompatViewMatchesColumns) {
  Timeline tl;
  tl.set_record_intervals(true);
  tl.schedule(Res::GpuStream, 0.0, 0.5, "a");
  tl.schedule(Res::CpuPool, 0.1, 0.25, "b");
  tl.schedule(Res::PcieH2D, 0.0, 0.75, "a");
  tl.schedule(Res::GpuStream, 0.0, 0.5);  // untagged

  const IntervalSoA& soa = tl.intervals_soa();
  const std::vector<Interval>& compat = tl.intervals();
  ASSERT_EQ(compat.size(), soa.size());
  ASSERT_EQ(tl.interval_count(), soa.size());
  for (std::size_t i = 0; i < soa.size(); ++i) {
    EXPECT_EQ(compat[i].res, soa.res[i]);
    EXPECT_EQ(compat[i].start, soa.start[i]);
    EXPECT_EQ(compat[i].end, soa.end[i]);
    EXPECT_EQ(compat[i].tag, tl.tag_pool().view(soa.tag[i]));
  }
  EXPECT_EQ(compat.back().tag, "");
}

TEST(TimelineSoA, CompatViewRefreshesAfterMoreScheduling) {
  Timeline tl;
  tl.set_record_intervals(true);
  tl.schedule(Res::GpuStream, 0.0, 1.0, "first");
  EXPECT_EQ(tl.intervals().size(), 1U);
  tl.schedule(Res::GpuStream, 0.0, 1.0, "second");
  ASSERT_EQ(tl.intervals().size(), 2U);
  EXPECT_EQ(tl.intervals()[1].tag, "second");
}

TEST(TimelineSoA, PreInternedTagMatchesStringTag) {
  Timeline a;
  Timeline b;
  a.set_record_intervals(true);
  b.set_record_intervals(true);
  const TagId tid = b.intern_tag("op");
  for (int i = 0; i < 100; ++i) {
    const double ea = a.schedule(Res::GpuStream, 0.0, 0.001, "op");
    const double eb = b.schedule(Res::GpuStream, 0.0, 0.001, tid);
    EXPECT_EQ(ea, eb);
  }
  ASSERT_EQ(a.intervals().size(), b.intervals().size());
  for (std::size_t i = 0; i < a.intervals().size(); ++i) {
    EXPECT_EQ(a.intervals()[i].tag, b.intervals()[i].tag);
  }
}

TEST(TimelineSoA, RecordingOffNeverInterns) {
  Timeline tl;
  const std::size_t before = tl.tag_pool().size();
  for (int i = 0; i < 100; ++i) {
    tl.schedule(Res::GpuStream, 0.0, 0.001, "never-interned");
  }
  EXPECT_EQ(tl.tag_pool().size(), before);
  EXPECT_EQ(tl.interval_count(), 0U);
}

TEST(TimelineSoA, ArenaGrowthPreservesOrderPastReserveFloor) {
  Timeline tl;
  tl.set_record_intervals(true);
  const int n = 5000;  // crosses the 1024-interval chunk floor several times
  for (int i = 0; i < n; ++i) {
    tl.schedule(Res::GpuStream, 0.0, 1e-4, i % 2 ? "odd" : "even");
  }
  const auto& ivs = tl.intervals();
  ASSERT_EQ(ivs.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(ivs[static_cast<std::size_t>(i)].tag, i % 2 ? "odd" : "even");
    if (i > 0) {
      EXPECT_GE(ivs[static_cast<std::size_t>(i)].start,
                ivs[static_cast<std::size_t>(i - 1)].end);
    }
  }
}

TEST(TimelineSoA, ResetKeepsTagVocabularyAndClearsIntervals) {
  Timeline tl;
  tl.set_record_intervals(true);
  const TagId tid = tl.intern_tag("sticky");
  tl.schedule(Res::GpuStream, 0.0, 1.0, tid);
  tl.reset();
  EXPECT_EQ(tl.interval_count(), 0U);
  EXPECT_EQ(tl.span(), 0.0);
  EXPECT_EQ(tl.tag_pool().view(tid), "sticky");  // ids stay valid across reset
  tl.set_record_intervals(true);
  tl.schedule(Res::CpuPool, 0.0, 0.5, tid);
  ASSERT_EQ(tl.intervals().size(), 1U);
  EXPECT_EQ(tl.intervals()[0].tag, "sticky");
}

}  // namespace
}  // namespace daop::sim
