// Overload-control plane: admission policies, bounded-queue and deadline
// shedding, session preemption, and the hazard-adaptive degradation ladder.
//
// The acceptance criterion from the PR issue is tested end-to-end here: at
// an arrival rate >= 2x the measured (hazard-degraded) saturation point,
// `deadline-edf` admission with shedding keeps the p99 TTFT of *served*
// requests below the configured deadline and beats the no-shedding FIFO
// baseline on SLO violation rate, while conservation
// (enqueued == served + dropped + shed) holds.
#include "eval/overload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "../testing/helpers.hpp"
#include "cache/calibration.hpp"
#include "common/check.hpp"
#include "data/trace_generator.hpp"
#include "eval/continuous_batching.hpp"
#include "eval/serving.hpp"
#include "sim/fault_model.hpp"

namespace daop::eval {
namespace {

using Signals = DegradationController::Signals;

// ---------------------------------------------------------------------------
// Options / parsing

TEST(OverloadOptions, DefaultIsDisabledNoOp) {
  OverloadOptions opt;
  EXPECT_FALSE(opt.enabled());
  opt.validate();  // defaults are valid
}

TEST(OverloadOptions, AnyNonDefaultKnobEnables) {
  {
    OverloadOptions o;
    o.admission = AdmissionPolicy::kLifoShed;
    EXPECT_TRUE(o.enabled());
  }
  {
    OverloadOptions o;
    o.queue_capacity = 4;
    EXPECT_TRUE(o.enabled());
  }
  {
    OverloadOptions o;
    o.deadline_s = 1.0;
    EXPECT_TRUE(o.enabled());
  }
  {
    OverloadOptions o;
    o.degrade.enabled = true;
    EXPECT_TRUE(o.enabled());
  }
}

TEST(OverloadOptions, ValidateRejectsInconsistentKnobs) {
  {
    // Preemption needs deadline-edf ordering to pick a victim.
    OverloadOptions o;
    o.preempt = true;
    o.deadline_s = 1.0;
    EXPECT_THROW(o.validate(), CheckError);
  }
  {
    // ...and a deadline budget to define "deadline-critical".
    OverloadOptions o;
    o.preempt = true;
    o.admission = AdmissionPolicy::kDeadlineEdf;
    EXPECT_THROW(o.validate(), CheckError);
  }
  {
    // A service estimate is meaningless without a deadline to project onto.
    OverloadOptions o;
    o.service_estimate_s = 0.5;
    EXPECT_THROW(o.validate(), CheckError);
  }
}

TEST(AdmissionPolicy, NamesRoundTrip) {
  for (AdmissionPolicy p : {AdmissionPolicy::kFifo, AdmissionPolicy::kLifoShed,
                            AdmissionPolicy::kDeadlineEdf}) {
    EXPECT_EQ(parse_admission_policy(admission_policy_name(p)), p);
  }
}

TEST(AdmissionPolicy, ParseRejectsUnknownListingValidNames) {
  try {
    parse_admission_policy("round-robin");
    FAIL() << "expected CheckError for unknown admission policy";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("round-robin"), std::string::npos) << msg;
    for (const char* name : {"fifo", "lifo-shed", "deadline-edf"}) {
      EXPECT_NE(msg.find(name), std::string::npos)
          << "missing policy '" << name << "' in: " << msg;
    }
  }
}

TEST(ShedReason, NamesAreStable) {
  EXPECT_STREQ(shed_reason_name(ShedReason::kQueueFull), "queue_full");
  EXPECT_STREQ(shed_reason_name(ShedReason::kDeadline), "deadline");
  EXPECT_STREQ(shed_reason_name(ShedReason::kDegraded), "degraded");
}

// ---------------------------------------------------------------------------
// Admission rule shared by the continuous-batching scheduler and the
// cluster router

TEST(AdmissionRule, ProjectionExactlyAtTheDeadlineIsAdmitted) {
  // arrival 1 + budget 2: the first token is due at exactly 3.
  EXPECT_FALSE(deadline_shed(1.0, 2.0, 3.0, false).has_value());
  EXPECT_FALSE(deadline_shed(1.0, 2.0, 2.5, false).has_value());
}

TEST(AdmissionRule, ProjectionJustPastTheDeadlineIsShedDeadline) {
  const double just_past = std::nextafter(3.0, 4.0);
  const auto why = deadline_shed(1.0, 2.0, just_past, false);
  ASSERT_TRUE(why.has_value());
  EXPECT_EQ(*why, ShedReason::kDeadline);
  // Past the full budget stays kDeadline under aggressive shedding too.
  EXPECT_EQ(deadline_shed(1.0, 2.0, just_past, true), ShedReason::kDeadline);
}

TEST(AdmissionRule, OnlyTheHalvedBudgetRejectsIsShedDegraded) {
  // Halved deadline at 1 + 0.5 * 2 = 2; the full one at 3.
  EXPECT_FALSE(deadline_shed(1.0, 2.0, 2.0, true).has_value());
  EXPECT_EQ(deadline_shed(1.0, 2.0, 2.5, true), ShedReason::kDegraded);
  EXPECT_EQ(deadline_shed(1.0, 2.0, 3.0, true), ShedReason::kDegraded);
  EXPECT_FALSE(deadline_shed(1.0, 2.0, 2.5, false).has_value());
}

TEST(AdmissionRule, NoBudgetNeverSheds) {
  EXPECT_FALSE(deadline_shed(1.0, 0.0, 1e9, false).has_value());
  EXPECT_FALSE(deadline_shed(1.0, 0.0, 1e9, true).has_value());
}

TEST(AdmissionRule, PerRequestBudgetOverridesTheDefault) {
  EXPECT_EQ(deadline_budget(0.5, 2.0), 0.5);
  EXPECT_EQ(deadline_budget(3.0, 2.0), 3.0);
  EXPECT_EQ(deadline_budget(0.0, 2.0), 2.0);
  EXPECT_EQ(deadline_budget(0.0, 0.0), 0.0);
  // The override decides the verdict: admitted under the 2 s default,
  // shed under a 0.5 s per-request budget.
  EXPECT_FALSE(
      deadline_shed(0.0, deadline_budget(0.0, 2.0), 1.0, false).has_value());
  EXPECT_EQ(deadline_shed(0.0, deadline_budget(0.5, 2.0), 1.0, false),
            ShedReason::kDeadline);
}

TEST(AdmissionRule, SlotHalvingNeverDropsBelowOne) {
  EXPECT_EQ(effective_concurrency(4, false), 4);
  EXPECT_EQ(effective_concurrency(4, true), 2);
  EXPECT_EQ(effective_concurrency(5, true), 2);
  EXPECT_EQ(effective_concurrency(3, true), 1);
  EXPECT_EQ(effective_concurrency(2, true), 1);
  EXPECT_EQ(effective_concurrency(1, true), 1);
  EXPECT_EQ(effective_concurrency(1, false), 1);
}

// ---------------------------------------------------------------------------
// DegradationController

DegradationOptions fast_ladder() {
  DegradationOptions o;
  o.enabled = true;
  o.window_s = 1.0;
  o.stall_trip_fraction = 0.10;  // > 0.1s stall inside the 1s window trips
  o.abort_trip = 4;
  o.min_dwell_s = 0.1;
  o.calm_window_s = 0.5;
  return o;
}

TEST(DegradationController, DisabledControllerNeverMoves) {
  DegradationController c{DegradationOptions{}};
  c.observe(0.0, Signals{0.0, 0, 0});
  c.observe(1.0, Signals{100.0, 100, 100});
  EXPECT_EQ(c.level(), 0);
  EXPECT_EQ(c.peak_level(), 0);
  EXPECT_TRUE(c.events().empty());
  EXPECT_FALSE(c.no_speculation());
}

TEST(DegradationController, StallTripStepsDownAndCalmRecovers) {
  DegradationController c(fast_ladder());
  c.observe(0.0, Signals{0.0, 0, 0});
  EXPECT_EQ(c.level(), 0);

  // 0.2s of stall landed within the window: trip -> L1.
  c.observe(0.5, Signals{0.2, 0, 0});
  EXPECT_EQ(c.level(), 1);
  EXPECT_TRUE(c.no_speculation());
  EXPECT_FALSE(c.no_migrations());

  // Another 0.3s of stall: trip -> L2.
  c.observe(1.0, Signals{0.5, 0, 0});
  EXPECT_EQ(c.level(), 2);
  EXPECT_TRUE(c.no_migrations());
  EXPECT_EQ(c.peak_level(), 2);

  // Calm but not calm for long enough: holds the level.
  c.observe(1.2, Signals{0.5, 0, 0});
  EXPECT_EQ(c.level(), 2);

  // Calm for >= calm_window_s since the last hot sample: recover one level
  // at a time.
  c.observe(1.6, Signals{0.5, 0, 0});
  EXPECT_EQ(c.level(), 1);
  c.observe(2.2, Signals{0.5, 0, 0});
  EXPECT_EQ(c.level(), 0);

  EXPECT_EQ(c.steps_down(), 2);
  EXPECT_EQ(c.steps_up(), 2);
  EXPECT_EQ(c.peak_level(), 2);
  ASSERT_EQ(c.events().size(), 4U);
  EXPECT_TRUE(c.events()[0].down);
  EXPECT_EQ(c.events()[0].level, 1);
  EXPECT_TRUE(c.events()[1].down);
  EXPECT_EQ(c.events()[1].level, 2);
  EXPECT_FALSE(c.events()[2].down);
  EXPECT_EQ(c.events()[2].level, 1);
  EXPECT_FALSE(c.events()[3].down);
  EXPECT_EQ(c.events()[3].level, 0);
}

TEST(DegradationController, MigrationAbortsTripTheLadderToo) {
  DegradationController c(fast_ladder());
  c.observe(0.0, Signals{0.0, 0, 0});
  c.observe(0.5, Signals{0.0, 4, 0});  // abort_trip aborts in the window
  EXPECT_EQ(c.level(), 1);
}

TEST(DegradationController, DwellHysteresisRateLimitsSteps) {
  auto opt = fast_ladder();
  opt.min_dwell_s = 1.0;
  DegradationController c(opt);
  c.observe(0.0, Signals{0.0, 0, 0});
  c.observe(1.0, Signals{0.5, 0, 0});  // hot -> L1
  EXPECT_EQ(c.level(), 1);
  // Still hot, but inside the dwell window: the controller must not race
  // down the ladder in one burst.
  c.observe(1.2, Signals{1.0, 0, 0});
  c.observe(1.5, Signals{1.5, 0, 0});
  EXPECT_EQ(c.level(), 1);
  // Past the dwell, the persistent storm may deepen the response.
  c.observe(2.1, Signals{2.0, 0, 0});
  EXPECT_EQ(c.level(), 2);
}

TEST(DegradationController, MaxLevelCapsTheLadder) {
  auto opt = fast_ladder();
  opt.max_level = 1;
  DegradationController c(opt);
  c.observe(0.0, Signals{0.0, 0, 0});
  for (int i = 1; i <= 10; ++i) {
    c.observe(0.5 * i, Signals{0.5 * i, 0, 0});  // permanently hot
  }
  EXPECT_EQ(c.level(), 1);
  EXPECT_EQ(c.peak_level(), 1);
}

// ---------------------------------------------------------------------------
// Serving-level end-to-end

ServingOptions cb_options() {
  ServingOptions opt;
  opt.arrival_rate_rps = 2.0;
  opt.n_requests = 16;
  opt.min_prompt = 16;
  opt.max_prompt = 32;
  opt.min_gen = 16;
  opt.max_gen = 32;
  opt.calibration_seqs = 4;
  opt.max_concurrent = 4;
  return opt;
}

ServingResult run(EngineKind kind, const ServingOptions& opt) {
  return run_serving_eval(kind, daop::testing::small_mixtral(),
                          sim::a6000_i9_platform(),
                          data::sharegpt_calibration(), opt);
}

TEST(Overload, BoundedQueueShedsOverflowOnBurst) {
  auto opt = cb_options();
  opt.arrival_rate_rps = 50.0;  // everything arrives nearly at once
  opt.overload.queue_capacity = 2;
  const auto r = run(EngineKind::Fiddler, opt);
  EXPECT_EQ(r.served + r.dropped + r.shed, opt.n_requests);
  EXPECT_GT(r.shed_queue_full, 0);
  EXPECT_EQ(r.shed, static_cast<int>(r.shed_queue_full + r.shed_deadline +
                                     r.shed_degraded));
  // Every shed request appears in the per-request log with its reason.
  int log_served = 0, log_shed = 0;
  for (const auto& e : r.request_log) {
    if (e.outcome == "served") ++log_served;
    if (e.outcome.rfind("shed:", 0) == 0) ++log_shed;
  }
  EXPECT_EQ(log_served, r.served);
  EXPECT_EQ(log_shed, r.shed);
  EXPECT_EQ(static_cast<int>(r.request_log.size()), opt.n_requests);
}

TEST(Overload, LifoShedPrefersFreshRequests) {
  auto opt = cb_options();
  opt.arrival_rate_rps = 50.0;
  opt.overload.admission = AdmissionPolicy::kLifoShed;
  opt.overload.queue_capacity = 2;
  const auto r = run(EngineKind::Fiddler, opt);
  EXPECT_EQ(r.served + r.dropped + r.shed, opt.n_requests);
  ASSERT_GT(r.shed, 0);
  // Under lifo-shed the stalest waiting request is shed on overflow, so the
  // last arrival must survive to service and the first shed must predate the
  // last served arrival.
  const auto& last = r.request_log.back();
  EXPECT_EQ(last.outcome, "served") << "freshest request was not served";
  double first_shed = -1.0, last_served = -1.0;
  for (const auto& e : r.request_log) {
    if (e.outcome.rfind("shed:", 0) == 0 && first_shed < 0.0) {
      first_shed = e.arrival;
    }
    if (e.outcome == "served") last_served = std::max(last_served, e.arrival);
  }
  ASSERT_GE(first_shed, 0.0);
  EXPECT_LT(first_shed, last_served);
}

TEST(Overload, EmitsShedAndDegradeMetrics) {
  obs::MetricsRegistry reg;
  auto opt = cb_options();
  opt.arrival_rate_rps = 50.0;
  opt.overload.queue_capacity = 2;
  opt.overload.degrade.enabled = true;
  opt.metrics = &reg;
  const auto r = run(EngineKind::Fiddler, opt);
  ASSERT_GT(r.shed, 0);
  const std::string out = reg.to_prometheus();
  for (const char* fam :
       {"daop_requests_shed_total", "reason=\"queue_full\"",
        "daop_session_preemptions_total", "daop_session_preempt_resumes_total",
        "daop_degrade_steps_total", "daop_degrade_level",
        "daop_degrade_peak_level"}) {
    EXPECT_NE(out.find(fam), std::string::npos) << "missing " << fam;
  }
}

TEST(Overload, HazardStormStepsDownTheDegradationLadder) {
  auto opt = cb_options();
  opt.hazards = sim::make_hazard_scenario("all", 0.5);
  opt.overload.degrade.enabled = true;
  opt.overload.degrade.window_s = 2.0;
  opt.overload.degrade.stall_trip_fraction = 0.05;
  opt.overload.degrade.min_dwell_s = 0.2;
  opt.overload.degrade.calm_window_s = 1.0;
  const auto r = run(EngineKind::Daop, opt);
  EXPECT_EQ(r.served + r.dropped + r.shed, opt.n_requests);
  EXPECT_GT(r.degrade_steps_down, 0)
      << "an 'all' 0.5 hazard storm must trip the ladder";
  EXPECT_GE(r.degrade_peak_level, 1);
  EXPECT_GE(r.degrade_steps_down, r.degrade_steps_up);
  // Sessions opened while degraded carry the degrade directives.
  EXPECT_GT(r.counters.degraded_sessions, 0);
}

// Satellite: hazards x continuous batching stays deterministic — the same
// seed yields bit-identical outcomes, with and without the overload plane.
TEST(Overload, HazardsWithContinuousBatchingDeterministic) {
  auto opt = cb_options();
  opt.hazards = sim::make_hazard_scenario("all", 0.5);
  {
    const auto a = run(EngineKind::Daop, opt);
    const auto b = run(EngineKind::Daop, opt);
    EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
    EXPECT_DOUBLE_EQ(a.throughput_tps, b.throughput_tps);
    EXPECT_DOUBLE_EQ(a.latency_s.mean, b.latency_s.mean);
    EXPECT_DOUBLE_EQ(a.counters.hazard_stall_s, b.counters.hazard_stall_s);
    EXPECT_EQ(a.counters.migration_retries, b.counters.migration_retries);
  }
  {
    auto ovl = opt;
    ovl.overload.admission = AdmissionPolicy::kDeadlineEdf;
    ovl.overload.deadline_s = 30.0;
    ovl.overload.degrade.enabled = true;
    const auto a = run(EngineKind::Daop, ovl);
    const auto b = run(EngineKind::Daop, ovl);
    EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.degrade_steps_down, b.degrade_steps_down);
    EXPECT_EQ(a.degrade_peak_level, b.degrade_peak_level);
    ASSERT_EQ(a.request_log.size(), b.request_log.size());
    for (std::size_t i = 0; i < a.request_log.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(a.request_log[i].id, b.request_log[i].id);
      EXPECT_DOUBLE_EQ(a.request_log[i].arrival, b.request_log[i].arrival);
      EXPECT_EQ(a.request_log[i].outcome, b.request_log[i].outcome);
      EXPECT_EQ(a.request_log[i].preempted, b.request_log[i].preempted);
    }
  }
}

// The PR's acceptance criterion, self-calibrating against the measured
// hazard-degraded saturation point of this model/platform pair.
TEST(Overload, DeadlineEdfSheddingBeatsFifoAtTwiceSaturation) {
  auto base = cb_options();
  base.n_requests = 24;
  base.hazards = sim::make_hazard_scenario("all", 0.5);

  // Capacity probe: a burst arrival measures the full-concurrency drain
  // rate under the hazard storm.
  auto probe = base;
  probe.arrival_rate_rps = 1000.0;
  const auto cap = run(EngineKind::Daop, probe);
  ASSERT_EQ(cap.served, probe.n_requests);
  const double sat_rps = probe.n_requests / cap.makespan_s;

  // Lightly-loaded probe: p99 TTFT with empty queues calibrates the
  // admission-to-first-token service estimate (with contention headroom).
  auto solo = base;
  solo.arrival_rate_rps = sat_rps / 8.0;
  const auto calm = run(EngineKind::Daop, solo);
  ASSERT_EQ(calm.served, solo.n_requests);
  const double service_est = 4.0 * calm.ttft_s.p99;
  const double deadline = 2.0 * service_est;

  // No-shedding FIFO baseline at 2x saturation: everyone is eventually
  // served, but the queue grows without bound and late requests blow
  // through the first-token SLO.
  auto fifo = base;
  fifo.arrival_rate_rps = 2.0 * sat_rps;
  fifo.slo_ttft_s = deadline;
  const auto fifo_r = run(EngineKind::Daop, fifo);
  EXPECT_EQ(fifo_r.served + fifo_r.dropped, fifo.n_requests);
  EXPECT_EQ(fifo_r.shed, 0);

  // deadline-edf + deadline shedding on the identical request plan.
  auto edf = fifo;
  edf.overload.admission = AdmissionPolicy::kDeadlineEdf;
  edf.overload.deadline_s = deadline;
  edf.overload.service_estimate_s = service_est;
  const auto edf_r = run(EngineKind::Daop, edf);

  // Conservation: enqueued == served + dropped + shed (also DAOP_CHECKed
  // inside the harness).
  EXPECT_EQ(edf_r.served + edf_r.dropped + edf_r.shed, edf.n_requests);
  ASSERT_GT(edf_r.served, 0);
  EXPECT_GT(edf_r.shed, 0) << "2x saturation must force shedding";
  EXPECT_GT(edf_r.shed_deadline, 0);

  // Served requests meet their first-token deadline at the tail...
  EXPECT_LE(edf_r.ttft_s.p99, deadline)
      << "served p99 TTFT " << edf_r.ttft_s.p99 << "s vs deadline "
      << deadline << "s";
  // ...and shedding the hopeless requests beats serving everyone late.
  EXPECT_LT(edf_r.slo_violation_rate, fifo_r.slo_violation_rate)
      << "edf+shed " << edf_r.slo_violation_rate << " vs fifo "
      << fifo_r.slo_violation_rate;
}

// ---------------------------------------------------------------------------
// Preemption (direct scheduler harness)

TEST(Overload, DeadlineCriticalArrivalPreemptsAndVictimCompletes) {
  const auto cfg = daop::testing::small_mixtral();
  const sim::CostModel cm(sim::a6000_i9_platform());
  const model::OpCosts costs(cfg, cm);
  auto engine = make_engine(EngineKind::Fiddler, costs);

  const data::TraceGenerator calib(data::sharegpt_calibration(), cfg.n_layers,
                                   cfg.n_experts, cfg.top_k, 99);
  const cache::Placement initial = cache::init_placement_calibrated(
      cfg.n_layers, cfg.n_experts, 0.469,
      cache::calibrate_activation_counts(calib, 4));
  const data::TraceGenerator gen(data::sharegpt_calibration(), cfg.n_layers,
                                 cfg.n_experts, cfg.top_k, 7);

  sim::Timeline tl;
  ContinuousBatchingScheduler::Options sopt;
  sopt.max_concurrent = 2;
  sopt.overload.admission = AdmissionPolicy::kDeadlineEdf;
  sopt.overload.deadline_s = 1e6;  // background requests: effectively no SLO
  sopt.overload.preempt = true;
  ContinuousBatchingScheduler sched(*engine, tl, initial, sopt);

  // Two long background requests fill both slots at t=0...
  for (int i = 0; i < 2; ++i) {
    ContinuousBatchingScheduler::Request req;
    req.id = i;
    req.arrival = 0.0;
    req.trace = gen.generate(i, 16, 64);
    sched.enqueue(std::move(req));
  }
  // ...then a deadline-critical request arrives with a tight first-token
  // budget: it must not wait for a background completion.
  ContinuousBatchingScheduler::Request crit;
  crit.id = 2;
  crit.arrival = 0.05;
  crit.deadline_s = 0.5;
  crit.trace = gen.generate(2, 8, 4);
  sched.enqueue(std::move(crit));

  const auto outcomes = sched.run();
  ASSERT_EQ(outcomes.size(), 3U);

  // Preemption invariant: the victim was parked exactly once, resumed, and
  // completed — nobody is lost and nothing stays parked.
  long long total_preemptions = 0;
  for (const auto& o : outcomes) {
    SCOPED_TRACE(o.id);
    EXPECT_TRUE(o.served);
    total_preemptions += o.preemptions;
  }
  EXPECT_EQ(total_preemptions, 1);
  EXPECT_EQ(outcomes[2].preemptions, 0) << "the preemptor is never a victim";
  // The critical request met its first-token budget: it started within the
  // deadline window instead of waiting out a background request.
  EXPECT_LE(outcomes[2].start, crit.arrival + crit.deadline_s);
  EXPECT_LT(outcomes[2].start, std::min(outcomes[0].end, outcomes[1].end));

  const auto& stats = sched.overload_stats();
  EXPECT_EQ(stats.preemptions, 1);
  EXPECT_EQ(stats.preempt_resumes, 1);
  // Parked sessions released their pins and every session closed: the
  // shared placement must end the run unpinned.
  EXPECT_EQ(sched.arbiter().total_pin_count(), 0);
}

// End-to-end preemption through the serving harness: every Nth request is
// deadline-critical and the run stays conserved and deterministic.
TEST(Overload, PriorityMixPreemptsThroughServingHarness) {
  auto opt = cb_options();
  opt.arrival_rate_rps = 4.0;
  opt.overload.admission = AdmissionPolicy::kDeadlineEdf;
  opt.overload.deadline_s = 1e6;
  opt.overload.preempt = true;
  opt.priority_every = 4;
  opt.priority_deadline_s = 25.0;
  const auto a = run(EngineKind::Daop, opt);
  EXPECT_EQ(a.served + a.dropped + a.shed, opt.n_requests);
  EXPECT_GT(a.preemptions, 0)
      << "the deadline-critical mix was meant to force preemption";
  long long log_preempted = 0;
  for (const auto& e : a.request_log) log_preempted += e.preempted;
  EXPECT_EQ(log_preempted, a.preemptions);
  const auto b = run(EngineKind::Daop, opt);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
}

}  // namespace
}  // namespace daop::eval
