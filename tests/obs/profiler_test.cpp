// End-to-end profiler tests over real engine runs (obs/profiler.hpp):
// attribution conservation across every engine × workload × seed, per-step
// conservation, heatmap-vs-counter consistency, report determinism, and the
// acceptance invariants of the critical-path profiler.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../testing/helpers.hpp"
#include "cache/calibration.hpp"
#include "data/trace_generator.hpp"
#include "eval/serving.hpp"
#include "eval/speed.hpp"
#include "obs/profiler.hpp"

namespace daop::eval {
namespace {

using obs::AttrBreakdown;
using obs::AttrCategory;

constexpr double kTol = 1e-9;

double counter_value(const obs::RunProfile& run, const std::string& name) {
  for (const auto& [k, v] : run.counters) {
    if (k == name) return v;
  }
  ADD_FAILURE() << "counter " << name << " missing from profile";
  return -1.0;
}

void expect_breakdown_invariants(const AttrBreakdown& b) {
  // Conservation: exposed category seconds plus idle tile the window.
  EXPECT_NEAR(b.exposed_total_s() + b.idle_s, b.window_s, kTol);
  EXPECT_GE(b.idle_s, -kTol);
  EXPECT_GE(b.hidden_total_s(), -kTol);
  for (int c = 0; c < obs::kNumAttrCategories; ++c) {
    const auto cat = static_cast<AttrCategory>(c);
    EXPECT_GE(b.hidden(cat), -kTol) << obs::attr_category_name(cat);
  }
}

TEST(Profiler, ConservationHoldsForEveryEngineWorkloadSeed) {
  // The issue's acceptance bar: for all engines × {c4, gsm8k} × 3 seeds,
  // attributed category seconds sum to the critical-path makespan within
  // 1e-9 and hidden overlap is never negative.
  for (auto kind :
       {EngineKind::MoEOnDemand, EngineKind::DeepSpeedMII,
        EngineKind::MixtralOffloading, EngineKind::PreGatedMoE,
        EngineKind::EdgeMoE, EngineKind::MoEInfinity, EngineKind::Fiddler,
        EngineKind::Daop}) {
    for (const auto& workload : {data::c4(), data::gsm8k()}) {
      for (std::uint64_t seed : {7ULL, 19ULL, 1234ULL}) {
        SCOPED_TRACE(std::string(engine_kind_name(kind)) + " / " +
                     workload.name + " / seed " + std::to_string(seed));
        obs::Profiler prof;
        SpeedEvalOptions opt;
        opt.n_seqs = 2;
        opt.prompt_len = 12;
        opt.gen_len = 10;
        opt.calibration_seqs = 4;
        opt.seed = seed;
        opt.profiler = &prof;
        run_speed_eval(kind, daop::testing::small_mixtral(),
                       sim::a6000_i9_platform(), workload, opt);
        ASSERT_EQ(prof.runs().size(), 2u);
        for (const auto& run : prof.runs()) {
          EXPECT_TRUE(run.has_phases);
          expect_breakdown_invariants(run.total);
          expect_breakdown_invariants(run.prefill);
          expect_breakdown_invariants(run.decode);
          // Phases partition the run window.
          EXPECT_NEAR(run.prefill.window_s + run.decode.window_s,
                      run.total.window_s, kTol);
          for (const auto& step : run.steps) {
            expect_breakdown_invariants(step.attr);
          }
        }
        expect_breakdown_invariants(prof.aggregate());
      }
    }
  }
}

TEST(Profiler, StepWindowsCoverDecodeInOrder) {
  obs::Profiler prof;
  SpeedEvalOptions opt;
  opt.n_seqs = 1;
  opt.prompt_len = 12;
  opt.gen_len = 10;
  opt.calibration_seqs = 4;
  opt.profiler = &prof;
  run_speed_eval(EngineKind::Daop, daop::testing::small_mixtral(),
                 sim::a6000_i9_platform(), data::c4(), opt);
  ASSERT_EQ(prof.runs().size(), 1u);
  const auto& run = prof.runs().front();
  ASSERT_FALSE(run.steps.empty());
  EXPECT_EQ(run.steps_omitted, 0);
  double prev_end = run.prefill_end_s;
  double steps_window = 0.0;
  for (const auto& step : run.steps) {
    EXPECT_GE(step.start_s, prev_end - kTol);
    EXPECT_GE(step.end_s, step.start_s);
    prev_end = step.end_s;
    steps_window += step.attr.window_s;
  }
  // Decode steps tile the decode phase window.
  EXPECT_NEAR(steps_window, run.decode.window_s, kTol);
  EXPECT_NEAR(run.steps.back().end_s, run.end_s, kTol);
}

TEST(Profiler, StepCapOmitsButStillAttributes) {
  obs::Profiler::Options po;
  po.max_steps_per_run = 3;
  obs::Profiler prof(po);
  SpeedEvalOptions opt;
  opt.n_seqs = 1;
  opt.prompt_len = 12;
  opt.gen_len = 10;
  opt.calibration_seqs = 4;
  opt.profiler = &prof;
  run_speed_eval(EngineKind::Fiddler, daop::testing::small_mixtral(),
                 sim::a6000_i9_platform(), data::c4(), opt);
  ASSERT_EQ(prof.runs().size(), 1u);
  const auto& run = prof.runs().front();
  EXPECT_EQ(static_cast<int>(run.steps.size()), 3);
  EXPECT_EQ(run.steps_omitted, 10 - 3);
  // Phase attribution is computed from the full window, not the kept steps.
  expect_breakdown_invariants(run.decode);
}

TEST(Profiler, HeatmapExecsMatchEngineCounters) {
  // Every GPU/CPU expert execution site is instrumented, so the heatmap's
  // exec totals must equal the engine's own counters.
  for (auto kind : {EngineKind::Fiddler, EngineKind::Daop,
                    EngineKind::MoEOnDemand, EngineKind::PreGatedMoE}) {
    SCOPED_TRACE(engine_kind_name(kind));
    obs::Profiler prof;
    SpeedEvalOptions opt;
    opt.n_seqs = 1;
    opt.prompt_len = 12;
    opt.gen_len = 10;
    opt.calibration_seqs = 4;
    opt.profiler = &prof;
    run_speed_eval(kind, daop::testing::small_mixtral(),
                   sim::a6000_i9_platform(), data::c4(), opt);
    ASSERT_EQ(prof.runs().size(), 1u);
    const auto& run = prof.runs().front();
    long long gpu_execs = 0;
    long long cpu_execs = 0;
    int prev_layer = -1, prev_expert = -1;
    bool prev_gpu = true;
    for (const auto& cell : run.heatmap) {
      EXPECT_GT(cell.execs, 0);
      EXPECT_GT(cell.busy_s, 0.0);
      // Sorted by (layer, expert, gpu-before-cpu), no duplicate cells.
      const bool advanced =
          cell.layer > prev_layer ||
          (cell.layer == prev_layer && cell.expert > prev_expert) ||
          (cell.layer == prev_layer && cell.expert == prev_expert &&
           prev_gpu && !cell.on_gpu);
      EXPECT_TRUE(advanced) << "heatmap out of order at L" << cell.layer
                            << " E" << cell.expert;
      prev_layer = cell.layer;
      prev_expert = cell.expert;
      prev_gpu = cell.on_gpu;
      (cell.on_gpu ? gpu_execs : cpu_execs) += cell.execs;
    }
    EXPECT_EQ(static_cast<double>(gpu_execs),
              counter_value(run, "gpu_expert_execs"));
    EXPECT_EQ(static_cast<double>(cpu_execs),
              counter_value(run, "cpu_expert_execs"));
  }
}

TEST(Profiler, ReportsAreDeterministic) {
  auto render = [](std::string& json, std::string& text) {
    obs::Profiler prof;
    SpeedEvalOptions opt;
    opt.n_seqs = 2;
    opt.prompt_len = 12;
    opt.gen_len = 8;
    opt.calibration_seqs = 4;
    opt.profiler = &prof;
    run_speed_eval(EngineKind::Daop, daop::testing::small_mixtral(),
                   sim::a6000_i9_platform(), data::c4(), opt);
    json = prof.to_json();
    text = prof.to_text();
  };
  std::string json_a, text_a, json_b, text_b;
  render(json_a, text_a);
  render(json_b, text_b);
  EXPECT_EQ(json_a, json_b);
  EXPECT_EQ(text_a, text_b);
  EXPECT_NE(json_a.find("\"schema\":\"daop-profile/1\""), std::string::npos);
  EXPECT_NE(json_a.find("\"aggregate\":"), std::string::npos);
  EXPECT_NE(json_a.find("\"heatmap\":"), std::string::npos);
  EXPECT_NE(text_a.find("critical path"), std::string::npos);
  EXPECT_NE(text_a.find("overlap saved"), std::string::npos);
}

TEST(Profiler, ServingSequentialProfilesEveryServedRequest) {
  obs::Profiler prof;
  ServingOptions opt;
  opt.arrival_rate_rps = 0.05;
  opt.n_requests = 4;
  opt.min_prompt = 12;
  opt.max_prompt = 16;
  opt.min_gen = 8;
  opt.max_gen = 10;
  opt.calibration_seqs = 4;
  opt.profiler = &prof;
  const auto r = run_serving_eval(
      EngineKind::Daop, daop::testing::small_mixtral(),
      sim::a6000_i9_platform(), data::sharegpt_calibration(), opt);
  EXPECT_EQ(static_cast<int>(prof.runs().size()), r.served);
  for (const auto& run : prof.runs()) {
    EXPECT_GE(run.request, 0);
    EXPECT_TRUE(run.has_phases);
    expect_breakdown_invariants(run.total);
  }
}

TEST(Profiler, ServingContinuousBatchingProfilesSharedWindowOnce) {
  obs::Profiler prof;
  ServingOptions opt;
  opt.arrival_rate_rps = 0.05;
  opt.n_requests = 4;
  opt.min_prompt = 12;
  opt.max_prompt = 16;
  opt.min_gen = 8;
  opt.max_gen = 10;
  opt.calibration_seqs = 4;
  opt.max_concurrent = 3;
  opt.profiler = &prof;
  const auto r = run_serving_eval(
      EngineKind::Daop, daop::testing::small_mixtral(),
      sim::a6000_i9_platform(), data::sharegpt_calibration(), opt);
  ASSERT_EQ(prof.runs().size(), 1u);
  const auto& run = prof.runs().front();
  EXPECT_FALSE(run.has_phases);
  EXPECT_NE(run.label.find("[continuous batching]"), std::string::npos);
  EXPECT_GE(run.total.window_s, r.makespan_s - kTol);
  expect_breakdown_invariants(run.total);
}

TEST(Profiler, RecordWindowHandlesEmptyTimeline) {
  obs::Profiler prof;
  prof.record_window("empty", {}, {}, 0.0, 1.0);
  ASSERT_EQ(prof.runs().size(), 1u);
  EXPECT_DOUBLE_EQ(prof.runs().front().total.idle_s, 1.0);
  // Reports render without runs too.
  const obs::Profiler none;
  EXPECT_TRUE(none.empty());
  EXPECT_FALSE(none.to_json().empty());
  EXPECT_FALSE(none.to_text().empty());
}

}  // namespace
}  // namespace daop::eval
