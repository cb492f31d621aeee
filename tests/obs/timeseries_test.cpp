// Time-series recorder: window delta semantics, grid sealing,
// cumulative-total feeds, handles vs string-keyed recording, the series
// birth rule, allocation-free handle recording, cross-channel aggregation,
// the passivity contract (attaching a recorder never changes simulated
// results or the metrics export), and a windowed-quantile audit against
// exact percentiles.
#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "../testing/helpers.hpp"
#include "common/check.hpp"
#include "eval/serving.hpp"
#include "eval/speed.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_model.hpp"

namespace {
std::atomic<long long> g_allocs{0};
}  // namespace

// Counts heap allocations, for the allocation-free handle recording test.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// The nothrow forms (std::stable_sort's temporary buffer) must come from the
// same malloc: a sanitizer runtime's own nothrow new would not pair with the
// free() below.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace daop::obs {
namespace {

TimeSeriesOptions window(double w) {
  TimeSeriesOptions o;
  o.window_s = w;
  return o;
}

// ---------------------------------------------------------------------------
// Window delta semantics: each SeriesWindow's MetricsSnapshot is the
// difference of two consecutive sealed rows.

TEST(MetricsSnapshot, DeltaSubtractsCountersAndKeepsGaugeLastValue) {
  TimeSeriesRecorder rec(window(1.0), {"n0"});
  rec.count(0, "c_total", "help", 3.0);
  rec.gauge_set(0, "g", "help", 7.0);
  rec.advance(0, 1.5);  // seals [0,1)

  rec.count(0, "c_total", "help", 2.0);
  rec.gauge_set(0, "g", "help", 1.5);
  rec.finalize(1.5);

  const MetricsSnapshot& d = rec.windows(0).at(1).delta;
  EXPECT_DOUBLE_EQ(d.families.at("c_total").values.at(""), 2.0);
  // Gauges report the window's last value, not a difference.
  EXPECT_DOUBLE_EQ(d.families.at("g").values.at(""), 1.5);
}

TEST(MetricsSnapshot, DeltaSubtractsHistogramBucketwise) {
  TimeSeriesRecorder rec(window(1.0), {"n0"});
  auto observed = [](std::initializer_list<double> vs) {
    HistogramData h({1.0, 2.0});
    for (const double v : vs) h.observe(v);
    return h;
  };
  rec.merge_hist(0, "h_seconds", "help", observed({0.5}));
  rec.advance(0, 1.5);
  rec.merge_hist(0, "h_seconds", "help", observed({1.5, 9.0}));
  rec.finalize(1.5);

  const HistogramData& h =
      rec.windows(0).at(1).delta.families.at("h_seconds").histograms.at("");
  EXPECT_EQ(h.total, 2);  // only the in-window observations remain
  ASSERT_EQ(h.counts.size(), 3u);
  EXPECT_EQ(h.counts[0], 0);  // the 0.5 from before the window is gone
  EXPECT_EQ(h.counts[1], 1);
  EXPECT_EQ(h.counts[2], 1);  // +Inf overflow
}

TEST(MetricsSnapshot, SeriesBornInsideWindowDeltaAgainstZero) {
  TimeSeriesRecorder rec(window(1.0), {"n0"});
  rec.advance(0, 1.5);  // window 0 holds nothing
  rec.count(0, "fresh_total", "help", 4.0, {{"k", "v"}});
  rec.finalize(1.5);
  const MetricsSnapshot& d = rec.windows(0).at(1).delta;
  EXPECT_DOUBLE_EQ(d.families.at("fresh_total").values.begin()->second, 4.0);
  EXPECT_FALSE(d.families.empty());
  EXPECT_TRUE(rec.windows(0).at(0).delta.families.empty());
}

// ---------------------------------------------------------------------------
// Recorder windowing

TEST(TimeSeries, DisabledRecorderIsInertAndAllocationFree) {
  TimeSeriesRecorder rec(TimeSeriesOptions{}, {});
  EXPECT_FALSE(rec.enabled());
  rec.count(0, "c_total", "h");  // all no-ops, channel range unchecked
  rec.observe(3, "h_seconds", "h", 1.0);
  rec.advance(0, 100.0);
  rec.finalize(100.0);
  EXPECT_EQ(rec.n_channels(), 0);
  EXPECT_EQ(rec.n_windows(), 0);
  EXPECT_TRUE(rec.aggregate().empty());
}

TEST(TimeSeries, SealsConsecutiveGridWindowsWithDeltas) {
  TimeSeriesRecorder rec(window(5.0), {"n0"});
  rec.advance(0, 1.0);
  rec.count(0, "req_total", "h", 2.0);
  rec.advance(0, 6.0);  // seals [0,5)
  rec.count(0, "req_total", "h", 3.0);
  rec.advance(0, 17.0);  // seals [5,10) and [10,15)
  rec.count(0, "req_total", "h", 1.0);
  rec.finalize(17.5);  // partial [15,17.5)

  const auto& ws = rec.windows(0);
  ASSERT_EQ(ws.size(), 4u);
  EXPECT_EQ(ws[0].index, 0);
  EXPECT_DOUBLE_EQ(ws[0].start, 0.0);
  EXPECT_DOUBLE_EQ(ws[0].end, 5.0);
  EXPECT_DOUBLE_EQ(ws[3].start, 15.0);
  EXPECT_DOUBLE_EQ(ws[3].end, 17.5);

  auto req = [&](int i) {
    const auto it = ws[static_cast<std::size_t>(i)].delta.families.find(
        "req_total");
    if (it == ws[static_cast<std::size_t>(i)].delta.families.end()) return 0.0;
    return it->second.values.at("");
  };
  EXPECT_DOUBLE_EQ(req(0), 2.0);
  EXPECT_DOUBLE_EQ(req(1), 3.0);  // recorded at t=6 -> window [5,10)
  EXPECT_DOUBLE_EQ(req(2), 0.0);  // empty middle window still sealed
  EXPECT_DOUBLE_EQ(req(3), 1.0);
}

TEST(TimeSeries, CountTotalFeedsDeltasOfCumulativeExternals) {
  TimeSeriesRecorder rec(window(1.0), {"n0"});
  const SeriesHandle stall = rec.counter(0, "stall_seconds_total", "h");
  rec.advance(0, 0.5);
  rec.add_total(stall, 2.0);
  rec.advance(0, 1.5);
  rec.add_total(stall, 2.0);  // no change: no delta
  rec.advance(0, 2.5);
  rec.add_total(stall, 3.25);
  rec.finalize(2.5);

  const auto& ws = rec.windows(0);
  ASSERT_EQ(ws.size(), 3u);
  EXPECT_DOUBLE_EQ(
      ws[0].delta.families.at("stall_seconds_total").values.at(""), 2.0);
  // The family persists once created, but the unchanged total contributes
  // a zero delta to the middle window.
  EXPECT_DOUBLE_EQ(
      ws[1].delta.families.at("stall_seconds_total").values.at(""), 0.0);
  EXPECT_DOUBLE_EQ(
      ws[2].delta.families.at("stall_seconds_total").values.at(""), 1.25);
}

TEST(TimeSeries, CountTotalRejectsBackwardsTotals) {
  TimeSeriesRecorder rec(window(1.0), {"n0"});
  const SeriesHandle t = rec.counter(0, "t_total", "h");
  rec.add_total(t, 5.0);
  EXPECT_THROW(rec.add_total(t, 4.0), CheckError);
}

TEST(TimeSeries, FinalizeIsIdempotentAndFreezesTheRecorder) {
  TimeSeriesRecorder rec(window(2.0), {"n0"});
  rec.count(0, "c_total", "h");
  rec.finalize(3.0);
  const auto n = rec.windows(0).size();
  rec.finalize(50.0);  // no-op: no new windows appear
  EXPECT_EQ(rec.windows(0).size(), n);
  EXPECT_TRUE(rec.finalized());
  EXPECT_THROW(rec.count(0, "c_total", "h"), CheckError);
}

TEST(TimeSeries, FinalizeSealsZeroWidthBoundaryWindowOnlyWhenNonEmpty) {
  // Content recorded exactly at a grid boundary needs a home even when the
  // clock never passes the boundary.
  TimeSeriesRecorder rec(window(5.0), {"n0"});
  rec.advance(0, 5.0);  // seals [0,5); clock sits exactly on the boundary
  rec.count(0, "c_total", "h");
  rec.finalize(5.0);
  ASSERT_EQ(rec.windows(0).size(), 2u);
  EXPECT_DOUBLE_EQ(rec.windows(0)[1].start, 5.0);
  EXPECT_DOUBLE_EQ(rec.windows(0)[1].end, 5.0);

  TimeSeriesRecorder empty(window(5.0), {"n0"});
  empty.advance(0, 5.0);
  empty.finalize(5.0);  // nothing at the boundary: no zero-width window
  EXPECT_EQ(empty.windows(0).size(), 1u);
}

TEST(TimeSeries, AggregateSumsCountersAndMergesHistogramsAcrossChannels) {
  TimeSeriesRecorder rec(window(10.0), {"n0", "n1", "cluster"});
  rec.count(0, "req_total", "h", 2.0);
  rec.count(1, "req_total", "h", 3.0);
  rec.gauge_set(0, "depth", "h", 1.0);
  rec.gauge_set(1, "depth", "h", 4.0);
  rec.observe(0, "lat_seconds", "h", 0.1);
  rec.observe(2, "lat_seconds", "h", 0.2);
  rec.finalize(7.0);

  const auto agg = rec.aggregate();
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_DOUBLE_EQ(agg[0].delta.families.at("req_total").values.at(""), 5.0);
  EXPECT_DOUBLE_EQ(agg[0].delta.families.at("depth").values.at(""), 5.0);
  EXPECT_EQ(agg[0].delta.families.at("lat_seconds").histograms.at("").total,
            2);
}

TEST(TimeSeries, RecordRegistryTotalsReplaysAnEndOfRunRegistry) {
  MetricsRegistry reg;
  reg.counter("c_total", "h", {{"k", "v"}}).inc(6.0);
  reg.gauge("g", "h").set(2.5);
  reg.histogram("h_seconds", "h", {1.0}).observe(0.5);

  TimeSeriesRecorder rec(window(5.0), {"run"});
  rec.record_registry_totals(0, reg, 3.0);
  rec.finalize(3.0);

  ASSERT_EQ(rec.windows(0).size(), 1u);
  const MetricsSnapshot& d = rec.windows(0)[0].delta;
  EXPECT_DOUBLE_EQ(d.families.at("c_total").values.begin()->second, 6.0);
  EXPECT_DOUBLE_EQ(d.families.at("g").values.at(""), 2.5);
  EXPECT_EQ(d.families.at("h_seconds").histograms.at("").total, 1);
}

// ---------------------------------------------------------------------------
// Handles, the birth rule and allocation-free recording

/// Bit-level equality of two window lists (values, histogram counts and
/// sums, label sets and help texts), so -0.0 vs 0.0 or a last-ulp drift
/// fails too.
void expect_bit_identical(const std::vector<SeriesWindow>& a,
                          const std::vector<SeriesWindow>& b) {
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(bits(a[i].start), bits(b[i].start));
    EXPECT_EQ(bits(a[i].end), bits(b[i].end));
    ASSERT_EQ(a[i].delta.families.size(), b[i].delta.families.size());
    for (const auto& [name, f] : a[i].delta.families) {
      const auto& g = b[i].delta.families.at(name);
      EXPECT_EQ(f.kind, g.kind) << name;
      EXPECT_EQ(f.help, g.help) << name;
      EXPECT_EQ(f.label_sets, g.label_sets) << name;
      ASSERT_EQ(f.values.size(), g.values.size()) << name;
      for (const auto& [key, v] : f.values) {
        EXPECT_EQ(bits(v), bits(g.values.at(key))) << name << key;
      }
      ASSERT_EQ(f.histograms.size(), g.histograms.size()) << name;
      for (const auto& [key, h] : f.histograms) {
        const HistogramData& k = g.histograms.at(key);
        EXPECT_EQ(h.counts, k.counts) << name << key;
        EXPECT_EQ(h.total, k.total) << name << key;
        EXPECT_EQ(bits(h.sum), bits(k.sum)) << name << key;
      }
    }
  }
}

TEST(TimeSeries, HandleAndStringKeyedTwinProduceBitIdenticalWindows) {
  // Non-integer cumulative totals whose deltas do not round-trip exactly
  // (0.1 + 0.2 != 0.3), a labelled counter, a gauge that returns to 0 and
  // latency observations, across several windows and two channels.
  const std::vector<double> totals = {0.1, 0.30000000000000004, 0.3 + 1e-9,
                                      1.7, 1.7, 2.0 / 3.0 + 1.7, 9.125};
  const std::vector<std::string> channels = {"node0", "cluster"};
  TimeSeriesRecorder by_handle(window(0.5), channels);
  TimeSeriesRecorder by_name(window(0.5), channels);
  const SeriesHandle stall = by_handle.counter(0, "stall_seconds_total", "s");
  const SeriesHandle depth = by_handle.gauge(0, "depth", "d");
  const SeriesHandle served =
      by_handle.counter(1, "req_total", "r", {{"outcome", "served"}});
  const SeriesHandle lat = by_handle.histogram(1, "lat_seconds", "l");
  for (std::size_t i = 0; i < totals.size(); ++i) {
    const double t = 0.3 * static_cast<double>(i);
    const double v = 0.01 * static_cast<double>(i * i) + 0.003;
    for (int ch = 0; ch < 2; ++ch) {
      by_handle.advance(ch, t);
      by_name.advance(ch, t);
    }
    by_handle.add_total(stall, totals[i]);
    by_name.add_total(by_name.counter(0, "stall_seconds_total", "s"),
                      totals[i]);
    by_handle.set(depth, static_cast<double>(i % 3));
    by_name.gauge_set(0, "depth", "d", static_cast<double>(i % 3));
    by_handle.add(served, 0.5 * static_cast<double>(i));
    by_name.count(1, "req_total", "r", 0.5 * static_cast<double>(i),
                  {{"outcome", "served"}});
    by_handle.observe(lat, v);
    by_name.observe(1, "lat_seconds", "l", v);
  }
  by_handle.finalize(2.2);
  by_name.finalize(2.2);
  for (int ch = 0; ch < 2; ++ch) {
    SCOPED_TRACE(channels[static_cast<std::size_t>(ch)]);
    expect_bit_identical(by_handle.windows(ch), by_name.windows(ch));
  }
  expect_bit_identical(by_handle.aggregate(), by_name.aggregate());
  // The stall windows carry the non-integer deltas of the totals.
  const auto& ws = by_handle.windows(0);
  double sum = 0.0;
  for (const SeriesWindow& w : ws) {
    sum += w.delta.families.at("stall_seconds_total").values.at("");
  }
  EXPECT_NEAR(sum, totals.back(), 1e-12);
  EXPECT_NE(sum, std::floor(sum));
}

TEST(TimeSeries, DeclaredButUnwrittenSeriesAppearsInNoWindow) {
  TimeSeriesRecorder rec(window(1.0), {"n0"});
  const SeriesHandle never = rec.counter(0, "never_total", "h");
  const SeriesHandle gauge = rec.gauge(0, "idle", "h");
  const SeriesHandle hist = rec.histogram(0, "lat_seconds", "h");
  const SeriesHandle late = rec.counter(0, "late_total", "h");
  const SeriesHandle flat = rec.counter(0, "flat_seconds_total", "h");
  rec.add_total(flat, 0.0);  // no positive delta: not born
  rec.advance(0, 2.5);       // seals windows 0 and 1
  rec.add(late, 2.0);        // born in window 2
  rec.advance(0, 3.5);       // seals window 2
  rec.finalize(3.5);
  (void)never;
  (void)gauge;
  (void)hist;

  const auto& ws = rec.windows(0);
  ASSERT_EQ(ws.size(), 4u);
  for (std::size_t i = 0; i < ws.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    const auto& fams = ws[i].delta.families;
    EXPECT_EQ(fams.count("never_total"), 0u);
    EXPECT_EQ(fams.count("idle"), 0u);
    EXPECT_EQ(fams.count("lat_seconds"), 0u);
    EXPECT_EQ(fams.count("flat_seconds_total"), 0u);
    // Once born, a series stays in every later window.
    EXPECT_EQ(fams.count("late_total"), i >= 2 ? 1u : 0u);
  }
  EXPECT_DOUBLE_EQ(ws[2].delta.families.at("late_total").values.at(""), 2.0);
  EXPECT_DOUBLE_EQ(ws[3].delta.families.at("late_total").values.at(""), 0.0);
}

TEST(TimeSeries, HandleRecordingAllocatesNothingOnceWarm) {
  TimeSeriesRecorder rec(window(100.0), {"node0", "cluster"});
  const SeriesHandle stall = rec.counter(0, "stall_seconds_total", "h");
  const SeriesHandle depth = rec.gauge(0, "depth", "h");
  const SeriesHandle ckpt = rec.counter(0, "ckpt_total", "h");
  const SeriesHandle lat = rec.histogram(1, "lat_seconds", "h");
  // Warm: the first writes are births; nothing is sealed inside [0, 100).
  rec.advance(0, 0.0);
  rec.add_total(stall, 0.5);
  rec.set(depth, 1.0);
  rec.add(ckpt);
  rec.observe(lat, 0.2);

  const long long before = g_allocs.load();
  for (int i = 1; i < 1000; ++i) {
    const double t = 0.05 * static_cast<double>(i);
    rec.advance(0, t);
    rec.advance(1, t);
    rec.add_total(stall, 0.5 + 0.001 * static_cast<double>(i));
    rec.set(depth, static_cast<double>(i % 5));
    rec.add(ckpt);
    rec.observe(lat, 0.001 * static_cast<double>(i));
  }
  EXPECT_EQ(g_allocs.load() - before, 0);
  rec.finalize(60.0);
  ASSERT_EQ(rec.windows(0).size(), 1u);
  EXPECT_DOUBLE_EQ(rec.windows(0)[0].delta.families.at("ckpt_total")
                       .values.at(""),
                   1000.0);
}

TEST(TimeSeries, HandlesKeepTheRegistryChecks) {
  TimeSeriesRecorder rec(window(1.0), {"n0"});
  const SeriesHandle c = rec.counter(0, "c_total", "h");
  EXPECT_THROW(rec.gauge(0, "c_total", "h"), CheckError);
  EXPECT_THROW(rec.counter(0, "9bad", "h"), CheckError);
  EXPECT_THROW(rec.set(c, 1.0), CheckError);  // a counter is not a gauge
  HistogramData other({1.0});
  other.observe(0.5);
  rec.observe(0, "lat_seconds", "h", 0.1);
  EXPECT_THROW(rec.merge_hist(0, "lat_seconds", "h", other), CheckError);
  // The same series declared twice is the same slot.
  EXPECT_EQ(rec.counter(0, "c_total", "h").slot, c.slot);
}

// ---------------------------------------------------------------------------
// Passivity + determinism through the serving harness

eval::ServingOptions serve_options(std::uint64_t seed, bool chaos) {
  eval::ServingOptions opt;
  opt.arrival_rate_rps = 2.0;
  opt.n_requests = 10;
  opt.min_prompt = 16;
  opt.max_prompt = 32;
  opt.min_gen = 16;
  opt.max_gen = 32;
  opt.calibration_seqs = 4;
  opt.max_concurrent = 2;
  opt.seed = seed;
  if (chaos) {
    opt.hazards = sim::make_hazard_scenario("all", 0.8);
  }
  return opt;
}

eval::ServingResult serve(const eval::ServingOptions& opt) {
  return eval::run_serving_eval(eval::EngineKind::Daop,
                                daop::testing::small_mixtral(),
                                sim::a6000_i9_platform(),
                                data::sharegpt_calibration(), opt);
}

TEST(TimeSeries, AttachingARecorderNeverPerturbsServingResults) {
  for (const bool chaos : {false, true}) {
    SCOPED_TRACE(chaos ? "chaos" : "calm");
    MetricsRegistry reg_off;
    auto opt = serve_options(7, chaos);
    opt.metrics = &reg_off;
    const auto r_off = serve(opt);

    MetricsRegistry reg_on;
    TimeSeriesRecorder rec(window(2.0), {"serving"});
    opt.metrics = &reg_on;
    opt.tseries = &rec;
    const auto r_on = serve(opt);

    // Bit-identical simulated outcomes AND byte-identical metrics export:
    // the recorder is invisible to everything but its own windows.
    EXPECT_EQ(r_off.makespan_s, r_on.makespan_s);
    EXPECT_EQ(r_off.ttft_s.mean, r_on.ttft_s.mean);
    EXPECT_EQ(r_off.latency_s.p99, r_on.latency_s.p99);
    EXPECT_EQ(r_off.served, r_on.served);
    EXPECT_EQ(reg_off.to_prometheus(), reg_on.to_prometheus());
    EXPECT_TRUE(rec.finalized());
    EXPECT_GE(rec.n_windows(), 1);
  }
}

TEST(TimeSeries, WindowsAreDeterministicAcrossIdenticalRuns) {
  auto run_once = [](std::vector<SeriesWindow>* out) {
    TimeSeriesRecorder rec(window(2.0), {"serving"});
    auto opt = serve_options(11, true);
    opt.tseries = &rec;
    serve(opt);
    *out = rec.aggregate();
  };
  std::vector<SeriesWindow> a;
  std::vector<SeriesWindow> b;
  run_once(&a);
  run_once(&b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].end, b[i].end);
    ASSERT_EQ(a[i].delta.families.size(), b[i].delta.families.size());
    for (const auto& [name, f] : a[i].delta.families) {
      const auto& g = b[i].delta.families.at(name);
      for (const auto& [key, v] : f.values) {
        EXPECT_EQ(v, g.values.at(key)) << name << key << " window " << i;
      }
      for (const auto& [key, h] : f.histograms) {
        EXPECT_EQ(h.counts, g.histograms.at(key).counts)
            << name << key << " window " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Windowed-quantile audit: per-window histogram quantiles must track exact
// percentiles of the same windows' raw observations within one bucket width
// (the histogram's intrinsic resolution).

double exact_quantile(std::vector<double> v, double q) {
  DAOP_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

TEST(TimeSeries, WindowedQuantilesTrackExactPercentilesWithinBucketWidth) {
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    for (const bool chaos : {false, true}) {
      SCOPED_TRACE((chaos ? "chaos seed " : "calm seed ") +
                   std::to_string(seed));
      // Deterministic synthetic latency stream: calm is a narrow band,
      // chaos adds heavy bursts — both from a simple LCG so the test has no
      // platform dependence.
      std::uint64_t s = seed * 2654435761u + 1;
      auto next = [&s]() {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<double>((s >> 33) & 0xFFFFFF) / 16777216.0;
      };

      TimeSeriesRecorder rec(window(10.0), {"n0"});
      std::vector<std::vector<double>> per_window(4);
      for (int w = 0; w < 4; ++w) {
        const double t0 = 10.0 * w;
        rec.advance(0, t0 + 0.5);
        const int n = 40 + static_cast<int>(next() * 20);
        for (int i = 0; i < n; ++i) {
          double v = 0.05 + 0.4 * next();
          if (chaos && next() < 0.25) v += 2.0 + 6.0 * next();
          per_window[static_cast<std::size_t>(w)].push_back(v);
          rec.observe(0, "lat_seconds", "h", v);
        }
      }
      rec.finalize(40.0);

      const auto& ws = rec.windows(0);
      ASSERT_EQ(ws.size(), 4u);
      for (int w = 0; w < 4; ++w) {
        const HistogramData& h = ws[static_cast<std::size_t>(w)]
                                     .delta.families.at("lat_seconds")
                                     .histograms.at("");
        const auto& raw = per_window[static_cast<std::size_t>(w)];
        EXPECT_EQ(h.total, static_cast<long long>(raw.size()));
        for (const double q : {0.5, 0.9, 0.99}) {
          const double est = histogram_quantile(h, q);
          const double exact = exact_quantile(raw, q);
          // Tolerance: the width of the bucket the estimate landed in.
          EXPECT_NEAR(est, exact, testing::bucket_width(h, est) + 1e-12)
              << "q=" << q << " window " << w;
        }
      }
    }
  }
}

}  // namespace
}  // namespace daop::obs
