// SLO burn-rate alerting: rule parsing, multiwindow burn math, episode
// open/close semantics, detection latency on the simulated clock, incident
// correlation against the causal event log, and the sealed daop-tseries/1
// export's determinism.
#include "obs/alerting.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace daop::obs {
namespace {

// ---------------------------------------------------------------------------
// Rule parsing

TEST(SloRules, ParsesInlineSpecWithEveryKey) {
  const auto rules = parse_slo_rules(
      "name=ttft,kind=latency,signal=daop_serving_ttft_seconds,target=2.5,"
      "objective=0.9,fast=2,slow=6,fast-burn=4,slow-burn=2;"
      "name=shed,kind=ratio,signal=daop_requests_shed_total,"
      "total=daop_serving_requests_total,objective=0.99,fast=1,slow=4,"
      "fast-burn=10,slow-burn=5");
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].name, "ttft");
  EXPECT_EQ(rules[0].kind, SloRule::Kind::kLatency);
  EXPECT_DOUBLE_EQ(rules[0].target_s, 2.5);
  EXPECT_DOUBLE_EQ(rules[0].objective, 0.9);
  EXPECT_EQ(rules[0].fast_windows, 2);
  EXPECT_EQ(rules[0].slow_windows, 6);
  EXPECT_DOUBLE_EQ(rules[0].fast_burn, 4.0);
  EXPECT_DOUBLE_EQ(rules[0].slow_burn, 2.0);
  EXPECT_EQ(rules[1].kind, SloRule::Kind::kRatio);
  EXPECT_EQ(rules[1].total, "daop_serving_requests_total");
}

TEST(SloRules, SkipsEmptySegmentsSoNewlineSeparatedFilesParse) {
  // Files are loaded by replacing newlines with ';' — blank lines and a
  // trailing separator must be harmless.
  const auto rules = parse_slo_rules(
      ";name=a,kind=latency,signal=s_seconds,target=1,objective=0.9;;"
      "name=b,kind=ratio,signal=bad_total,total=all_total,objective=0.99;");
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].name, "a");
  EXPECT_EQ(rules[1].name, "b");
}

TEST(SloRules, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_slo_rules("name=x,kind=latency"), CheckError);  // no signal
  EXPECT_THROW(parse_slo_rules("name=x,kind=banana,signal=s"), CheckError);
  EXPECT_THROW(parse_slo_rules("name=x,kind=ratio,signal=s"), CheckError);
  EXPECT_THROW(parse_slo_rules("nonsense"), CheckError);
  // A rule that can never fire is rejected, and the export stays JSON.
  const std::string lat =
      "name=x,kind=latency,signal=s_seconds,objective=0.9,target=";
  EXPECT_THROW(parse_slo_rules(lat + "inf"), CheckError);
  EXPECT_THROW(parse_slo_rules(lat + "1,fast-burn=inf"), CheckError);
  EXPECT_THROW(parse_slo_rules(lat + "1,slow-burn=inf"), CheckError);
}

TEST(SloRules, WindowCountsMustBeWholeNumbersInIntRange) {
  const std::string base =
      "name=w,kind=latency,signal=s_seconds,target=1,objective=0.9,";
  EXPECT_EQ(parse_slo_rules(base + "fast=2,slow=6")[0].slow_windows, 6);
  // A fraction is not silently truncated to 3.
  EXPECT_THROW(parse_slo_rules(base + "fast=2,slow=3.9"), CheckError);
  // Out of int range: no float-to-int conversion, no undefined behaviour.
  EXPECT_THROW(parse_slo_rules(base + "fast=1e300,slow=6"), CheckError);
  EXPECT_THROW(parse_slo_rules(base + "fast=2,slow=2147483648"), CheckError);
  EXPECT_THROW(parse_slo_rules(base + "fast=nan,slow=6"), CheckError);
  EXPECT_THROW(parse_slo_rules(base + "fast=,slow=6"), CheckError);
  // The diagnostic names the rule and the field.
  try {
    parse_slo_rules(base + "fast=2,slow=3.9");
    FAIL() << "slow=3.9 accepted";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'w'"), std::string::npos) << what;
    EXPECT_NE(what.find("'slow'"), std::string::npos) << what;
  }
}

TEST(SloRules, DefaultRulesValidateAndStaySilentOnZeroTraffic) {
  const auto rules = default_slo_rules();
  ASSERT_GE(rules.size(), 2u);
  for (const auto& r : rules) r.validate();

  // An idle recorder (windows sealed, nothing recorded) must never page.
  TimeSeriesOptions o;
  o.window_s = 5.0;
  TimeSeriesRecorder rec(o, {"cluster"});
  rec.advance(0, 60.0);
  rec.finalize(60.0);
  const AlertReport rep = evaluate_slo_rules(rules, rec);
  EXPECT_TRUE(rep.episodes.empty());
  EXPECT_TRUE(rep.events.empty());
}

// ---------------------------------------------------------------------------
// Burn math and episode lifecycle on hand-built windows

TimeSeriesRecorder make_recorder(double w) {
  TimeSeriesOptions o;
  o.window_s = w;
  return TimeSeriesRecorder(o, {"cluster"});
}

SloRule shed_rule() {
  SloRule r;
  r.name = "shed";
  r.kind = SloRule::Kind::kRatio;
  r.signal = "bad_total";
  r.total = "all_total";
  r.objective = 0.9;  // error budget 10%
  r.fast_windows = 1;
  r.slow_windows = 2;
  r.fast_burn = 4.0;  // >= 40% bad in the last window
  r.slow_burn = 2.0;  // >= 20% bad over the last two
  return r;
}

// Feeds one window of traffic: `bad` bad events out of `total`.
void feed_window(TimeSeriesRecorder& rec, int idx, double w, double total,
                 double bad) {
  rec.advance(0, idx * w + 0.5 * w);
  if (total > 0) rec.count(0, "all_total", "h", total);
  if (bad > 0) rec.count(0, "bad_total", "h", bad);
}

TEST(Alerting, OpensOnlyWhenFastAndSlowBurnBothExceedThresholds) {
  const double w = 10.0;
  auto rec = make_recorder(w);
  feed_window(rec, 0, w, 10, 0);  // healthy
  feed_window(rec, 1, w, 10, 5);  // 50% bad: fast burn 5, but slow burn 2.5
  feed_window(rec, 2, w, 10, 5);  // sustained: both thresholds clear
  feed_window(rec, 3, w, 10, 0);  // fast window clears -> close
  rec.finalize(4 * w);

  const AlertReport rep = evaluate_slo_rules({shed_rule()}, rec);
  ASSERT_EQ(rep.episodes.size(), 1u);
  const AlertEpisode& ep = rep.episodes[0];
  EXPECT_EQ(ep.rule, "shed");
  // Window 1 alone already satisfies fast (5 >= 4) AND slow over the last
  // two windows ((0+5)/(0+10+10)... but burn math is bad/total) — assert
  // the open decision happened at window 1's or window 2's end and closed
  // at window 3's end.
  EXPECT_GE(ep.open_time, 2 * w - 1e-9);
  EXPECT_LE(ep.open_time, 3 * w + 1e-9);
  EXPECT_TRUE(ep.closed);
  EXPECT_DOUBLE_EQ(ep.close_time, 4 * w);
  EXPECT_GE(ep.peak_fast_burn, 4.0);
}

TEST(Alerting, BlipBelowSlowBurnNeverPages) {
  const double w = 10.0;
  auto rec = make_recorder(w);
  feed_window(rec, 0, w, 10, 0);
  feed_window(rec, 1, w, 10, 0);
  feed_window(rec, 2, w, 10, 0);
  feed_window(rec, 3, w, 10, 5);  // one bad window after healthy history
  feed_window(rec, 4, w, 10, 0);  // immediately healthy again
  rec.finalize(5 * w);

  SloRule r = shed_rule();
  r.slow_windows = 4;  // slow burn over 4 windows: 5/40 = 12.5% -> burn 1.25
  const AlertReport rep = evaluate_slo_rules({r}, rec);
  EXPECT_TRUE(rep.episodes.empty());
}

TEST(Alerting, ZeroTrafficWindowsBurnNothing) {
  const double w = 10.0;
  auto rec = make_recorder(w);
  feed_window(rec, 0, w, 10, 6);  // bad start
  feed_window(rec, 1, w, 0, 0);   // idle
  feed_window(rec, 2, w, 0, 0);   // idle: must not keep the alert alive
  rec.finalize(3 * w);

  const AlertReport rep = evaluate_slo_rules({shed_rule()}, rec);
  ASSERT_EQ(rep.episodes.size(), 1u);
  EXPECT_TRUE(rep.episodes[0].closed);
}

TEST(Alerting, LatencyRuleCountsObservationsAboveTargetAsBad) {
  const double w = 10.0;
  auto rec = make_recorder(w);
  // Window 0: all fast. Windows 1-2: mostly slow.
  rec.advance(0, 5.0);
  for (int i = 0; i < 10; ++i) rec.observe(0, "lat_seconds", "h", 0.5);
  rec.advance(0, 15.0);
  for (int i = 0; i < 10; ++i) rec.observe(0, "lat_seconds", "h", 60.0);
  rec.advance(0, 25.0);
  for (int i = 0; i < 10; ++i) rec.observe(0, "lat_seconds", "h", 60.0);
  rec.finalize(3 * w);

  SloRule r;
  r.name = "lat";
  r.kind = SloRule::Kind::kLatency;
  r.signal = "lat_seconds";
  r.target_s = 10.0;
  r.objective = 0.9;
  r.fast_windows = 1;
  r.slow_windows = 2;
  r.fast_burn = 4.0;
  r.slow_burn = 2.0;
  const AlertReport rep = evaluate_slo_rules({r}, rec);
  ASSERT_EQ(rep.episodes.size(), 1u);
  EXPECT_FALSE(rep.episodes[0].closed);  // still bad at end of run
  EXPECT_DOUBLE_EQ(rep.episodes[0].close_time, 3 * w);
}

TEST(Alerting, DetectionLatencyMeasuresBackToFirstBurningWindow) {
  const double w = 10.0;
  auto rec = make_recorder(w);
  SloRule r = shed_rule();
  r.fast_windows = 1;
  r.slow_windows = 3;
  r.fast_burn = 4.0;
  r.slow_burn = 2.0;
  feed_window(rec, 0, w, 10, 0);
  feed_window(rec, 1, w, 10, 0);
  feed_window(rec, 2, w, 10, 5);  // burning (burn 5 >= 1) but slow gate
                                  // holds: 5/30 -> burn 1.67 < 2
  feed_window(rec, 3, w, 10, 5);  // slow burn now 10/30 / 0.1 = 3.33 -> open
  rec.finalize(4 * w);

  const AlertReport rep = evaluate_slo_rules({r}, rec);
  ASSERT_EQ(rep.episodes.size(), 1u);
  const AlertEpisode& ep = rep.episodes[0];
  // Opened at the end of window 3; the consecutive budget-burning run
  // started at window 2's start -> detection latency spans both windows.
  EXPECT_DOUBLE_EQ(ep.open_time, 4 * w);
  EXPECT_DOUBLE_EQ(ep.detection_latency_s, 2 * w);
}

// ---------------------------------------------------------------------------
// Incident correlation

TEST(Incidents, JoinCausalEventsInsideTheLookback) {
  const double w = 10.0;
  auto rec = make_recorder(w);
  feed_window(rec, 0, w, 10, 0);
  rec.record_event(12.0, 0, "crash", "node 1 crashed");
  rec.record_event(12.5, 0, "shed", "req 4 (node_lost)");
  feed_window(rec, 1, w, 10, 5);
  feed_window(rec, 2, w, 10, 5);
  feed_window(rec, 3, w, 10, 0);
  rec.finalize(4 * w);

  const AlertReport rep = evaluate_slo_rules({shed_rule()}, rec);
  ASSERT_FALSE(rep.episodes.empty());
  const auto incidents = correlate_incidents(rep, rec, 2.0 * w);
  ASSERT_EQ(incidents.size(), rep.episodes.size());
  const Incident& inc = incidents[0];
  EXPECT_EQ(inc.rule, "shed");
  ASSERT_FALSE(inc.causes.empty());
  bool saw_crash = false;
  for (const std::string& c : inc.causes) {
    if (c.find("crash") != std::string::npos) saw_crash = true;
  }
  EXPECT_TRUE(saw_crash) << "crash event inside the lookback must be joined";
  EXPECT_NE(inc.chain.find("crash"), std::string::npos);
}

TEST(Incidents, EventsOutsideTheLookbackAreNotBlamed) {
  const double w = 10.0;
  auto rec = make_recorder(w);
  rec.record_event(1.0, 0, "crash", "ancient history");
  for (int i = 0; i < 20; ++i) feed_window(rec, i, w, 10, 0);
  rec.record_event(205.0, 0, "shed", "req 9 (node_lost)");
  feed_window(rec, 20, w, 10, 5);
  feed_window(rec, 21, w, 10, 5);
  feed_window(rec, 22, w, 10, 0);
  rec.finalize(23 * w);

  const AlertReport rep = evaluate_slo_rules({shed_rule()}, rec);
  ASSERT_FALSE(rep.episodes.empty());
  const auto incidents = correlate_incidents(rep, rec, 2.0 * w);
  for (const std::string& c : incidents[0].causes) {
    EXPECT_EQ(c.find("ancient"), std::string::npos)
        << "t=1 crash is far outside the lookback: " << c;
  }
}

// ---------------------------------------------------------------------------
// Export determinism

TEST(TseriesExport, JsonIsSealedSchemaAndByteDeterministic) {
  auto build = [] {
    auto rec = make_recorder(10.0);
    feed_window(rec, 0, 10.0, 10, 0);
    rec.record_event(12.0, 0, "crash", "node 1 crashed");
    feed_window(rec, 1, 10.0, 10, 5);
    feed_window(rec, 2, 10.0, 10, 5);
    rec.finalize(30.0);
    const AlertReport rep = evaluate_slo_rules({shed_rule()}, rec);
    const auto incidents = correlate_incidents(rep, rec, 20.0);
    return to_tseries_json(rec, rep, incidents);
  };
  const std::string a = build();
  const std::string b = build();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\":\"daop-tseries/1\""), std::string::npos);
  EXPECT_NE(a.find("\"episode_count\":"), std::string::npos);
  EXPECT_NE(a.find("\"incidents\":"), std::string::npos);

  auto rec = make_recorder(10.0);
  feed_window(rec, 0, 10.0, 10, 0);
  rec.finalize(10.0);
  const std::string text =
      to_tseries_text(rec, AlertReport{}, std::vector<Incident>{});
  EXPECT_FALSE(text.empty());
}

}  // namespace
}  // namespace daop::obs
