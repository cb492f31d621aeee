#include "sim/fault_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.hpp"
#include "sim/timeline.hpp"

namespace daop::sim {
namespace {

TEST(HazardScenario, DefaultIsDisabled) {
  HazardScenario s;
  EXPECT_FALSE(s.enabled());
  s.validate();  // defaults are valid
}

TEST(HazardScenario, EnabledWhenAnyHazardCanFire) {
  HazardScenario s;
  s.pcie_stall_prob = 0.1;
  s.pcie_stall_mean_s = 1e-3;
  EXPECT_TRUE(s.enabled());

  HazardScenario t;
  t.expert_load_fail_prob = 0.5;
  EXPECT_TRUE(t.enabled());

  HazardScenario c;
  c.cpu_contention_period_s = 0.1;
  c.cpu_contention_window_s = 0.05;
  c.cpu_contention_slowdown = 2.0;
  EXPECT_TRUE(c.enabled());

  // A contention window with slowdown 1.0 perturbs nothing.
  c.cpu_contention_slowdown = 1.0;
  EXPECT_FALSE(c.enabled());
}

TEST(HazardScenario, ValidateRejectsBadRanges) {
  {
    HazardScenario s;
    s.pcie_stall_prob = 1.5;
    EXPECT_THROW(s.validate(), CheckError);
  }
  {
    HazardScenario s;
    s.pcie_fail_prob = -0.1;
    EXPECT_THROW(s.validate(), CheckError);
  }
  {
    HazardScenario s;
    s.pcie_stall_mean_s = -1.0;
    EXPECT_THROW(s.validate(), CheckError);
  }
  {
    HazardScenario s;
    s.max_transfer_retries = -1;
    EXPECT_THROW(s.validate(), CheckError);
  }
  {
    HazardScenario s;
    s.cpu_contention_period_s = 0.1;
    s.cpu_contention_window_s = 0.2;  // window longer than its period
    EXPECT_THROW(s.validate(), CheckError);
  }
  {
    HazardScenario s;
    s.cpu_contention_slowdown = 0.5;  // would speed ops up
    EXPECT_THROW(s.validate(), CheckError);
  }
  {
    HazardScenario s;
    s.gpu_throttle_slowdown = 0.0;
    EXPECT_THROW(s.validate(), CheckError);
  }
  {
    HazardScenario s;
    s.expert_load_fail_prob = 2.0;
    EXPECT_THROW(s.validate(), CheckError);
  }
}

TEST(HazardScenario, PresetKindsAreValidAndEnabled) {
  for (const auto& kind : hazard_scenario_kinds()) {
    const HazardScenario s = make_hazard_scenario(kind, 0.5);
    s.validate();
    if (kind == "none") {
      EXPECT_FALSE(s.enabled());
    } else {
      EXPECT_TRUE(s.enabled()) << kind;
    }
  }
}

TEST(HazardScenario, ZeroIntensityDisablesEveryPreset) {
  for (const auto& kind : hazard_scenario_kinds()) {
    EXPECT_FALSE(make_hazard_scenario(kind, 0.0).enabled()) << kind;
  }
}

TEST(HazardScenario, UnknownKindAndBadIntensityThrow) {
  EXPECT_THROW(make_hazard_scenario("meteor-strike", 0.5), CheckError);
  EXPECT_THROW(make_hazard_scenario("pcie", -0.1), CheckError);
  EXPECT_THROW(make_hazard_scenario("pcie", 1.5), CheckError);
  // A typo'd kind must be rejected even at intensity 0 (the calm early
  // return must not mask it into a silent no-hazard run).
  EXPECT_THROW(make_hazard_scenario("meteor-strike", 0.0), CheckError);
}

TEST(HazardScenario, UnknownKindErrorListsValidKinds) {
  try {
    make_hazard_scenario("meteor-strike", 0.5);
    FAIL() << "expected CheckError for unknown hazard kind";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("meteor-strike"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid kinds"), std::string::npos) << msg;
    for (const auto& kind : hazard_scenario_kinds()) {
      EXPECT_NE(msg.find(kind), std::string::npos)
          << "missing kind '" << kind << "' in: " << msg;
    }
  }
}

TEST(FaultModel, SameSeedSamePerturbationSequence) {
  const HazardScenario s = make_hazard_scenario("all", 1.0);
  FaultModel a(s, 42);
  FaultModel b(s, 42);
  for (int i = 0; i < 200; ++i) {
    const Res r = static_cast<Res>(i % kNumRes);
    const double start = 0.01 * i;
    const auto pa = a.perturb(r, start, 0.002);
    const auto pb = b.perturb(r, start, 0.002);
    EXPECT_EQ(pa.extra_s, pb.extra_s);
    EXPECT_EQ(pa.retries, pb.retries);
    EXPECT_EQ(a.expert_load_fails(), b.expert_load_fails());
  }
}

TEST(FaultModel, DifferentSeedsDiverge) {
  const HazardScenario s = make_hazard_scenario("pcie", 1.0);
  FaultModel a(s, 1);
  FaultModel b(s, 2);
  bool diverged = false;
  for (int i = 0; i < 200 && !diverged; ++i) {
    diverged = a.perturb(Res::PcieH2D, 0.0, 0.002).extra_s !=
               b.perturb(Res::PcieH2D, 0.0, 0.002).extra_s;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultModel, DisabledScenarioNeverPerturbs) {
  FaultModel fm(HazardScenario{}, 7);
  EXPECT_FALSE(fm.enabled());
  for (int i = 0; i < 50; ++i) {
    const auto p = fm.perturb(static_cast<Res>(i % kNumRes), 0.01 * i, 0.002);
    EXPECT_EQ(p.extra_s, 0.0);
    EXPECT_EQ(p.retries, 0);
    EXPECT_FALSE(fm.expert_load_fails());
  }
}

TEST(FaultModel, PerturbationsAreNonNegative) {
  const HazardScenario s = make_hazard_scenario("all", 1.0);
  FaultModel fm(s, 3);
  for (int i = 0; i < 500; ++i) {
    const auto p = fm.perturb(static_cast<Res>(i % kNumRes), 0.003 * i, 0.001);
    EXPECT_GE(p.extra_s, 0.0);
    EXPECT_GE(p.retries, 0);
    EXPECT_LE(p.retries, s.max_transfer_retries);
  }
}

TEST(FaultModel, CertainTransferFailureStopsAtRetryCap) {
  HazardScenario s;
  s.pcie_fail_prob = 1.0;  // every attempt fails until the cap
  s.max_transfer_retries = 3;
  FaultModel fm(s, 9);
  const auto p = fm.perturb(Res::PcieH2D, 0.0, 0.002);
  EXPECT_EQ(p.retries, 3);
  // Each retry re-pays the transfer plus a backoff.
  EXPECT_GE(p.extra_s, 3 * 0.002);
}

TEST(FaultModel, GpuThrottleSlowsOpsInsideWindowOnly) {
  HazardScenario s;
  s.gpu_throttle_period_s = 1.0;
  s.gpu_throttle_window_s = 1.0;  // always inside the window
  s.gpu_throttle_slowdown = 3.0;
  FaultModel fm(s, 11);
  const auto p = fm.perturb(Res::GpuStream, 0.25, 0.01);
  EXPECT_NEAR(p.extra_s, 0.02, 1e-12);  // duration * (slowdown - 1)
  // CPU ops are untouched by a GPU-only scenario.
  EXPECT_EQ(fm.perturb(Res::CpuPool, 0.25, 0.01).extra_s, 0.0);
}

TEST(FaultModel, ExpertLoadFailureRateTracksProbability) {
  HazardScenario s;
  s.expert_load_fail_prob = 0.3;
  FaultModel fm(s, 123);
  int fails = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) fails += fm.expert_load_fails() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(fails) / n, 0.3, 0.02);
}

TEST(TimelineFaults, AccumulatesHazardTelemetry) {
  HazardScenario s;
  s.pcie_fail_prob = 1.0;
  s.max_transfer_retries = 2;
  FaultModel fm(s, 5);
  Timeline tl;
  tl.set_fault_model(&fm);
  const double end = tl.schedule(Res::PcieH2D, 0.0, 0.01);
  EXPECT_GT(end, 0.01);  // retries stretched the op
  EXPECT_GT(tl.hazard_stall_s(), 0.0);
  EXPECT_EQ(tl.hazard_transfer_retries(), 2);
  // GPU ops pass through untouched under a PCIe-only scenario.
  const double g = tl.schedule(Res::GpuStream, 0.0, 0.01);
  EXPECT_EQ(g, 0.01);
}

TEST(TimelineFaults, ResetClearsTelemetryButKeepsModel) {
  HazardScenario s;
  s.pcie_fail_prob = 1.0;
  FaultModel fm(s, 5);
  Timeline tl;
  tl.set_fault_model(&fm);
  tl.schedule(Res::PcieH2D, 0.0, 0.01);
  EXPECT_GT(tl.hazard_stall_s(), 0.0);
  tl.reset();
  EXPECT_EQ(tl.hazard_stall_s(), 0.0);
  EXPECT_EQ(tl.hazard_transfer_retries(), 0);
  // The model stays attached: the next transfer is perturbed again.
  tl.schedule(Res::PcieH2D, 0.0, 0.01);
  EXPECT_GT(tl.hazard_stall_s(), 0.0);
}

TEST(TimelineFaults, DisabledModelIsStrictNoOp) {
  FaultModel fm(HazardScenario{}, 5);
  Timeline with, without;
  with.set_fault_model(&fm);
  for (int i = 0; i < 20; ++i) {
    const Res r = static_cast<Res>(i % kNumRes);
    const double a = with.schedule(r, 0.001 * i, 0.002);
    const double b = without.schedule(r, 0.001 * i, 0.002);
    EXPECT_EQ(a, b);
  }
  EXPECT_EQ(with.hazard_stall_s(), 0.0);
  EXPECT_EQ(with.span(), without.span());
}

}  // namespace
}  // namespace daop::sim
