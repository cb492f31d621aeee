#include "eval/speed.hpp"

#include "cache/arbiter.hpp"
#include "cache/calibration.hpp"
#include "common/check.hpp"
#include "core/daop_engine.hpp"
#include "data/trace_generator.hpp"
#include "engines/fetch_engine.hpp"
#include "engines/fiddler.hpp"
#include "engines/run_metrics.hpp"
#include "engines/session.hpp"
#include "model/op_costs.hpp"

namespace daop::eval {

const char* engine_kind_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::MoEOnDemand:       return "MoE-OnDemand";
    case EngineKind::DeepSpeedMII:      return "DeepSpeed-MII";
    case EngineKind::MixtralOffloading: return "Mixtral-Offloading";
    case EngineKind::PreGatedMoE:       return "Pre-gated MoE";
    case EngineKind::Fiddler:           return "Fiddler";
    case EngineKind::Daop:              return "DAOP (ours)";
    case EngineKind::EdgeMoE:           return "EdgeMoE";
    case EngineKind::MoEInfinity:       return "MoE-Infinity";
  }
  return "?";
}

std::vector<EngineKind> paper_baseline_engines() {
  return {EngineKind::MoEOnDemand, EngineKind::DeepSpeedMII,
          EngineKind::MixtralOffloading, EngineKind::Fiddler,
          EngineKind::Daop};
}

std::vector<EngineKind> extended_baseline_engines() {
  return {EngineKind::MoEOnDemand,  EngineKind::DeepSpeedMII,
          EngineKind::MixtralOffloading, EngineKind::PreGatedMoE,
          EngineKind::EdgeMoE,      EngineKind::MoEInfinity,
          EngineKind::Fiddler,      EngineKind::Daop};
}

std::unique_ptr<engines::Engine> make_engine(
    EngineKind kind, const model::OpCosts& costs,
    const core::DaopConfig& daop_config) {
  switch (kind) {
    case EngineKind::MoEOnDemand:
      return engines::make_moe_ondemand(costs);
    case EngineKind::DeepSpeedMII:
      return engines::make_deepspeed_mii(costs);
    case EngineKind::MixtralOffloading:
      return engines::make_mixtral_offloading(costs);
    case EngineKind::PreGatedMoE:
      return engines::make_pregated_moe(costs);
    case EngineKind::Fiddler:
      return engines::make_fiddler(costs);
    case EngineKind::Daop:
      return core::make_daop(costs, daop_config);
    case EngineKind::EdgeMoE:
      return engines::make_edgemoe(costs);
    case EngineKind::MoEInfinity:
      return engines::make_moe_infinity(costs);
  }
  DAOP_CHECK_MSG(false, "unknown engine kind");
  return nullptr;
}

cache::Placement calibrated_initial_placement(
    const model::ModelConfig& model_cfg, double ecr, int calibration_seqs,
    std::uint64_t seed) {
  // §IV-A calibration on the ShareGPT-like distribution.
  const data::TraceGenerator calib_gen(data::sharegpt_calibration(),
                                       model_cfg.n_layers, model_cfg.n_experts,
                                       model_cfg.top_k, seed ^ 0xCA11Bu);
  const auto calib_counts =
      cache::calibrate_activation_counts(calib_gen, calibration_seqs);
  return cache::init_placement_calibrated(
      model_cfg.n_layers, model_cfg.n_experts, ecr, calib_counts);
}

cache::Placement calibrated_initial_placement(
    const model::ModelConfig& model_cfg, const SpeedEvalOptions& options) {
  return calibrated_initial_placement(model_cfg, options.ecr,
                                      options.calibration_seqs, options.seed);
}

std::vector<data::SequenceTrace> generate_eval_traces(
    const model::ModelConfig& model_cfg, const data::WorkloadSpec& workload,
    const SpeedEvalOptions& options) {
  const data::TraceGenerator gen(workload, model_cfg.n_layers,
                                 model_cfg.n_experts, model_cfg.top_k,
                                 options.seed);
  std::vector<data::SequenceTrace> traces;
  traces.reserve(static_cast<std::size_t>(options.n_seqs));
  for (int s = 0; s < options.n_seqs; ++s) {
    traces.push_back(gen.generate(s, options.prompt_len, options.gen_len));
  }
  return traces;
}

engines::RunResult run_speed_eval(EngineKind kind,
                                  const model::ModelConfig& model_cfg,
                                  const sim::PlatformSpec& platform,
                                  const data::WorkloadSpec& workload,
                                  const SpeedEvalOptions& options) {
  const auto results =
      run_speed_eval_per_sequence(kind, model_cfg, platform, workload, options);
  return engines::aggregate_results(results[0].engine, results);
}

std::vector<engines::RunResult> run_speed_eval_per_sequence(
    EngineKind kind, const model::ModelConfig& model_cfg,
    const sim::PlatformSpec& platform, const data::WorkloadSpec& workload,
    const SpeedEvalOptions& options) {
  DAOP_CHECK_GT(options.n_seqs, 0);
  const sim::CostModel cm(platform);
  const model::OpCosts costs(model_cfg, cm);

  // Calibration and trace generation are pure functions of the options, so
  // a grid runner may hand in hoisted copies; either way the values — and
  // every downstream scheduling decision — are identical.
  std::unique_ptr<cache::Placement> computed_initial;
  if (options.initial_placement == nullptr) {
    computed_initial = std::make_unique<cache::Placement>(
        calibrated_initial_placement(model_cfg, options));
  }
  const cache::Placement& initial = options.initial_placement != nullptr
                                        ? *options.initial_placement
                                        : *computed_initial;
  std::vector<data::SequenceTrace> computed_traces;
  if (options.traces == nullptr) {
    computed_traces = generate_eval_traces(model_cfg, workload, options);
  } else {
    DAOP_CHECK_GE(static_cast<int>(options.traces->size()), options.n_seqs);
  }
  const std::vector<data::SequenceTrace>& traces =
      options.traces != nullptr ? *options.traces : computed_traces;

  auto engine = make_engine(kind, costs, options.daop_config);
  // The fault model is shared across the eval's sequences (one continuous
  // deterministic hazard environment) and must outlive every run.
  sim::FaultModel fault(options.hazards, options.seed ^ 0xFA017ULL);
  if (fault.enabled()) engine->set_fault_model(&fault);
  if (options.profiler != nullptr) engine->set_profiler(options.profiler);
  options.cache.validate();
  // One dynamic cache across the whole eval: demand learned on early
  // sequences steers later ones. Policy `frozen` constructs no cache and
  // keeps the exact engine->run() path below.
  std::unique_ptr<cache::ExpertCache> ecache;
  if (options.cache.enabled()) {
    ecache = std::make_unique<cache::ExpertCache>(
        options.cache, model_cfg.n_layers, model_cfg.n_experts);
  }
  std::vector<engines::RunResult> results;
  results.reserve(static_cast<std::size_t>(options.n_seqs));
  for (int s = 0; s < options.n_seqs; ++s) {
    const data::SequenceTrace& trace = traces[static_cast<std::size_t>(s)];
    if (ecache != nullptr) {
      // Each sequence starts from the calibrated placement (comparable to
      // the frozen baseline) but may re-migrate during decode; the arbiter
      // scopes those moves to this sequence's private placement copy.
      cache::PlacementArbiter arbiter(initial);
      engines::SessionEnv env;
      env.request_id = s;
      env.arbiter = &arbiter;
      env.cache = ecache.get();
      auto session = engine->open_session(trace, arbiter.placement(), env);
      session->prefill();
      while (session->decode_step()) {
      }
      results.push_back(session->close());
      DAOP_CHECK_EQ(arbiter.total_pin_count(), 0);
    } else {
      results.push_back(engine->run(trace, initial));
    }
    if (options.metrics != nullptr) {
      engines::record_run_metrics(*options.metrics, results.back());
    }
  }
  if (ecache != nullptr && options.cache_report != nullptr) {
    *options.cache_report = ecache->report();
  }
  return results;
}

}  // namespace daop::eval
