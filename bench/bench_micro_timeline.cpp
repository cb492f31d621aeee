// Micro-bench: Timeline::schedule hot-path cost across the tag/recording/
// fault matrix. The simulator's inner loop is schedule() calls, so the
// refactor's contract — zero string work when interval recording is off,
// one interning per distinct tag when it is on — is measured here directly:
//
//   - Untagged               recording off, no tag (the decode hot path)
//   - TaggedRecordOff        recording off, string_view tag: must cost the
//                            same as Untagged (the tag is never touched)
//   - TaggedRecordOn         recording on, string_view tag: binary-search
//                            intern per call + SoA push_back
//   - PreInternedRecordOn    recording on, TagId from intern_tag(): the
//                            fast path for tight tagged loops
//   - FaultModel variants    hazard perturbation attached, with recording
//                            off and on
//   - TimeSeries variants    the obs::TimeSeriesRecorder hook cost around a
//                            scheduler-loop-shaped tick: disabled recorders
//                            must be structural no-ops (asserted, not just
//                            measured), enabled ones pay only per-tick
//                            registry work
//   - DecodePolicyLayer      core::DecodePolicy plan_layer + plan_next per
//                            decode (token, layer) of a generated C4 trace on
//                            a calibrated Mixtral placement (ECR 46.9%): the
//                            planner every DAOP decode layer runs
//   - SequenceSpecificSwaps  Algorithm 1 per prefill layer of the same trace
//   - TraceGenerate          one Mixtral C4 routing trace at the mean
//                            request lengths of the serving plans (prompt
//                            192, gen 152), built from the main thread one
//                            at a time as a serving plan builds them; wall
//                            time, since the layers run on the shared pool
//
// Run: ./build/bench/bench_micro_timeline [--benchmark_filter=...]
#include <benchmark/benchmark.h>

#include "cache/calibration.hpp"
#include "common/check.hpp"
#include "core/allocation.hpp"
#include "core/decode_policy.hpp"
#include "data/trace_generator.hpp"
#include "model/config.hpp"
#include "obs/timeseries.hpp"
#include "sim/fault_model.hpp"
#include "sim/timeline.hpp"

namespace {
using namespace daop;

constexpr int kOpsPerIter = 1000;

// Alternates GPU / CPU ops like a decode step: a dependent chain on the GPU
// stream plus an independent CPU-pool op per link.
template <typename Tag>
void run_schedule_loop(sim::Timeline& tl, Tag gpu_tag, Tag cpu_tag) {
  double ready = 0.0;
  for (int i = 0; i < kOpsPerIter / 2; ++i) {
    ready = tl.schedule(sim::Res::GpuStream, ready, 1e-3, gpu_tag);
    tl.schedule(sim::Res::CpuPool, ready, 2e-3, cpu_tag);
  }
  benchmark::DoNotOptimize(tl.span());
}

void BM_ScheduleUntagged(benchmark::State& state) {
  for (auto _ : state) {
    sim::Timeline tl;
    run_schedule_loop(tl, std::string_view{}, std::string_view{});
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerIter);
}
BENCHMARK(BM_ScheduleUntagged);

void BM_ScheduleTaggedRecordOff(benchmark::State& state) {
  for (auto _ : state) {
    sim::Timeline tl;  // recording defaults to off: tags must be free
    run_schedule_loop(tl, std::string_view("attn fwd"),
                      std::string_view("expert cpu"));
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerIter);
}
BENCHMARK(BM_ScheduleTaggedRecordOff);

void BM_ScheduleTaggedRecordOn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Timeline tl;
    tl.set_record_intervals(true);
    run_schedule_loop(tl, std::string_view("attn fwd"),
                      std::string_view("expert cpu"));
    benchmark::DoNotOptimize(tl.interval_count());
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerIter);
}
BENCHMARK(BM_ScheduleTaggedRecordOn);

void BM_SchedulePreInternedRecordOn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Timeline tl;
    tl.set_record_intervals(true);
    const sim::TagId gpu = tl.intern_tag("attn fwd");
    const sim::TagId cpu = tl.intern_tag("expert cpu");
    run_schedule_loop(tl, gpu, cpu);
    benchmark::DoNotOptimize(tl.interval_count());
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerIter);
}
BENCHMARK(BM_SchedulePreInternedRecordOn);

void BM_ScheduleFaultModel(benchmark::State& state) {
  const sim::HazardScenario scenario = sim::make_hazard_scenario("all", 1.0);
  for (auto _ : state) {
    sim::FaultModel fm(scenario, 42);
    sim::Timeline tl;
    tl.set_fault_model(&fm);
    run_schedule_loop(tl, std::string_view{}, std::string_view{});
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerIter);
}
BENCHMARK(BM_ScheduleFaultModel);

void BM_ScheduleFaultModelRecordOn(benchmark::State& state) {
  const sim::HazardScenario scenario = sim::make_hazard_scenario("all", 1.0);
  for (auto _ : state) {
    sim::FaultModel fm(scenario, 42);
    sim::Timeline tl;
    tl.set_fault_model(&fm);
    tl.set_record_intervals(true);
    run_schedule_loop(tl, std::string_view("attn fwd"),
                      std::string_view("expert cpu"));
    benchmark::DoNotOptimize(tl.interval_count());
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerIter);
}
BENCHMARK(BM_ScheduleFaultModelRecordOn);

// ---------------------------------------------------------------------------
// obs::TimeSeriesRecorder hook cost. The harness hot loops consult the
// recorder once per scheduling decision, so the hook pattern benchmarked
// here is one advance() plus a small burst of count/gauge/observe calls —
// the shape of ClusterRouter::ts_tick.

// Drives one scheduler-loop-shaped pass: schedule work on the timeline,
// tick the recorder with the decision time as the CB/cluster hooks do.
void run_recorder_loop(sim::Timeline& tl, obs::TimeSeriesRecorder& rec) {
  double ready = 0.0;
  for (int i = 0; i < kOpsPerIter / 2; ++i) {
    ready = tl.schedule(sim::Res::GpuStream, ready, 1e-3, std::string_view{});
    tl.schedule(sim::Res::CpuPool, ready, 2e-3, std::string_view{});
    rec.advance(0, ready);
    rec.count(0, "daop_serving_requests_total", "h");
    rec.gauge_set(0, "daop_queue_depth", "h", static_cast<double>(i & 7));
    rec.observe(0, "daop_serving_ttft_seconds", "h", ready);
  }
  benchmark::DoNotOptimize(tl.span());
}

void BM_TimeSeriesRecorderOff(benchmark::State& state) {
  for (auto _ : state) {
    sim::Timeline tl;
    obs::TimeSeriesRecorder rec(obs::TimeSeriesOptions{}, {});  // disabled
    run_recorder_loop(tl, rec);
    rec.finalize(tl.span());
    // Perf-gate guard, not just a timing: a disabled recorder must do ZERO
    // structural work. No channels, no windows, no series families, and no
    // effect on the timeline's interval recording.
    DAOP_CHECK_EQ(rec.n_channels(), 0);
    DAOP_CHECK_EQ(rec.n_windows(), 0);
    DAOP_CHECK(rec.aggregate().empty());
    DAOP_CHECK_EQ(tl.interval_count(), 0);
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerIter);
}
BENCHMARK(BM_TimeSeriesRecorderOff);

void BM_TimeSeriesRecorderOn(benchmark::State& state) {
  obs::TimeSeriesOptions opt;
  opt.window_s = 0.05;  // many window seals across the ~1.5 s simulated span
  for (auto _ : state) {
    sim::Timeline tl;
    obs::TimeSeriesRecorder rec(opt, {"node0"});
    run_recorder_loop(tl, rec);
    rec.finalize(tl.span());
    DAOP_CHECK_GE(rec.n_windows(), 2);
    benchmark::DoNotOptimize(rec.n_windows());
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerIter);
}
BENCHMARK(BM_TimeSeriesRecorderOn);

// ---------------------------------------------------------------------------
// DAOP's two planners on the paper's model: Mixtral 8x7B at ECR 46.9% with
// the §IV-A calibrated placement, routing from a generated C4 trace. Items
// are layers, so the reported time is per planned layer.

struct PlannerRig {
  model::ModelConfig cfg = model::mixtral_8x7b();
  data::SequenceTrace trace =
      data::TraceGenerator(data::c4(), cfg.n_layers, cfg.n_experts, cfg.top_k,
                           7)
          .generate(0, 256, 128);
  cache::Placement placement = cache::init_placement_calibrated(
      cfg.n_layers, cfg.n_experts, 0.469,
      cache::calibrate_activation_counts(
          data::TraceGenerator(data::sharegpt_calibration(), cfg.n_layers,
                               cfg.n_experts, cfg.top_k, 99),
          4));
};

const PlannerRig& planner_rig() {
  static const PlannerRig rig;
  return rig;
}

void BM_DecodePolicyLayer(benchmark::State& state) {
  const PlannerRig& rig = planner_rig();
  const int L = rig.cfg.n_layers;
  core::DecodePolicy policy(core::DaopConfig{}, L, rig.cfg.top_k);
  long long plans = 0;
  for (auto _ : state) {
    for (int t = 0; t < rig.trace.gen_len; ++t) {
      for (int l = 0; l < L; ++l) {
        const data::TokenRouting tok = rig.trace.at(data::Phase::Decode, l, t);
        const core::LayerDecision d =
            policy.plan_layer(rig.placement, l, tok.selected, tok.scores);
        benchmark::DoNotOptimize(d.steps.data());
        if (!policy.predicts(l + 1)) continue;
        const data::TokenRouting ntok =
            rig.trace.at(data::Phase::Decode, l + 1, t);
        if (ntok.pred_scores.empty()) continue;
        benchmark::DoNotOptimize(
            &policy.plan_next(rig.placement, l + 1, ntok.predicted,
                              ntok.pred_scores));
        ++plans;
      }
    }
  }
  DAOP_CHECK_GT(plans, 0);
  state.SetItemsProcessed(state.iterations() * rig.trace.gen_len * L);
}
BENCHMARK(BM_DecodePolicyLayer);

void BM_SequenceSpecificSwaps(benchmark::State& state) {
  const PlannerRig& rig = planner_rig();
  const int L = rig.cfg.n_layers;
  core::SwapScratch scratch(rig.cfg.n_experts);
  long long swaps = 0;
  for (auto _ : state) {
    for (int l = 0; l < L; ++l) {
      swaps += static_cast<long long>(
          core::sequence_specific_swaps(
              rig.trace.counts(data::Phase::Prefill, l), rig.placement, l,
              core::DaopConfig{}.swap_in_out, scratch)
              .size());
    }
  }
  DAOP_CHECK_GT(swaps, 0);
  state.SetItemsProcessed(state.iterations() * L);
}
BENCHMARK(BM_SequenceSpecificSwaps);

// ---------------------------------------------------------------------------
// Set-up: building one routing trace. Items are tokens.

void BM_TraceGenerate(benchmark::State& state) {
  const model::ModelConfig cfg = model::mixtral_8x7b();
  const data::TraceGenerator gen(data::c4(), cfg.n_layers, cfg.n_experts,
                                 cfg.top_k, 1);
  constexpr int kPrompt = 192;
  constexpr int kGen = 152;
  int index = 0;
  for (auto _ : state) {
    const data::SequenceTrace trace = gen.generate(index++, kPrompt, kGen);
    benchmark::DoNotOptimize(trace.counts(data::Phase::Decode, 0).data());
  }
  state.SetItemsProcessed(state.iterations() * (kPrompt + kGen));
}
BENCHMARK(BM_TraceGenerate)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
