// Speed/energy evaluation harness for the performance plane.
//
// Wires together model config + platform + workload + ECR, builds the
// §IV-A calibrated initial placement from the calibration workload, runs an
// engine over a batch of sequences and aggregates (Figs. 9/10, Table IV).
#pragma once

#include <cstdint>
#include <memory>

#include "cache/expert_cache.hpp"
#include "core/daop_config.hpp"
#include "data/routing_trace.hpp"
#include "data/workload.hpp"
#include "engines/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "sim/device.hpp"
#include "sim/fault_model.hpp"

namespace daop::eval {

enum class EngineKind {
  MoEOnDemand,
  DeepSpeedMII,
  MixtralOffloading,
  PreGatedMoE,
  Fiddler,
  Daop,
  EdgeMoE,       ///< related work (§II-B), beyond the paper's Fig. 9 set
  MoEInfinity,   ///< related work (§II-B), beyond the paper's Fig. 9 set
};

const char* engine_kind_name(EngineKind kind);

/// All engines the paper's Fig. 9 / Table IV compare.
std::vector<EngineKind> paper_baseline_engines();

/// Fig. 9 set plus the §II-B related-work engines (Pre-gated MoE, EdgeMoE,
/// MoE-Infinity) — used by the extended comparison bench.
std::vector<EngineKind> extended_baseline_engines();

std::unique_ptr<engines::Engine> make_engine(
    EngineKind kind, const model::OpCosts& costs,
    const core::DaopConfig& daop_config = {});

struct SpeedEvalOptions {
  int n_seqs = 6;
  int prompt_len = 256;
  int gen_len = 256;
  double ecr = 0.469;  ///< paper's full-GPU-memory ECR for Mixtral
  int calibration_seqs = 32;
  std::uint64_t seed = 7;
  core::DaopConfig daop_config;
  /// Hazard environment injected into every run (default: calm device —
  /// bit-identical to an eval without a fault plane).
  sim::HazardScenario hazards;
  /// Optional observability sink: each sequence's result is recorded into it
  /// (labeled by engine). Strictly passive — timing results are bit-identical
  /// with or without a registry. nullptr (the default) disables.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional critical-path profiler: each sequence records its attribution
  /// profile into it at close. Strictly passive like the registry.
  obs::Profiler* profiler = nullptr;
  /// Dynamic expert-cache policy (cache/expert_cache.hpp). Policy `frozen`
  /// (the default) runs the classic engine->run() path, bit-identical to
  /// the pre-cache eval. A dynamic policy drives each sequence through an
  /// arbitrated session sharing ONE ExpertCache across the whole eval, so
  /// demand statistics learned on early sequences steer later ones.
  cache::ExpertCacheOptions cache;
  /// When non-null and the cache is enabled, receives the cache's
  /// attribution report after the eval (`--cache-report`).
  std::string* cache_report = nullptr;

  // ---- Shared-precomputation hooks (eval/parallel_sweep.hpp). Both are
  // pure functions of other option fields, so supplying them is bit-identical
  // to the default in-eval computation — the grid runner hoists them so N
  // cells with the same key pay for one calibration / trace-generation pass
  // instead of N (the dominant cost of large sweeps; see docs/PERFORMANCE.md).
  /// Precomputed §IV-A calibrated placement; must equal what
  /// calibrated_initial_placement() returns for these options. nullptr
  /// (the default) computes it in-eval.
  const cache::Placement* initial_placement = nullptr;
  /// Pregenerated per-sequence routing traces (size >= n_seqs); must equal
  /// what generate_eval_traces() returns for these options. nullptr (the
  /// default) generates them in-eval.
  const std::vector<data::SequenceTrace>* traces = nullptr;
};

/// The §IV-A calibrated initial placement: `calibration_seqs` sequences of
/// the calibration workload drawn from seed ^ 0xCA11B, ranked into a
/// placement at `ecr`. Every harness (speed, serving, cluster) starts from
/// it.
cache::Placement calibrated_initial_placement(
    const model::ModelConfig& model_cfg, double ecr, int calibration_seqs,
    std::uint64_t seed);
/// The placement run_speed_eval starts from (`options`' ECR, calibration
/// size and seed).
cache::Placement calibrated_initial_placement(
    const model::ModelConfig& model_cfg, const SpeedEvalOptions& options);

/// The eval's per-sequence routing traces exactly as run_speed_eval
/// generates them (sequence ids 0..n_seqs-1 from `options.seed`). Built on
/// ThreadPool::global(), bit-identical to a serial loop.
std::vector<data::SequenceTrace> generate_eval_traces(
    const model::ModelConfig& model_cfg, const data::WorkloadSpec& workload,
    const SpeedEvalOptions& options);

/// Runs `kind` over `n_seqs` sequences of `workload` and aggregates.
engines::RunResult run_speed_eval(EngineKind kind,
                                  const model::ModelConfig& model_cfg,
                                  const sim::PlatformSpec& platform,
                                  const data::WorkloadSpec& workload,
                                  const SpeedEvalOptions& options);

/// Same run, but returning every per-sequence result (for dispersion /
/// error-bar reporting in the bench harness).
std::vector<engines::RunResult> run_speed_eval_per_sequence(
    EngineKind kind, const model::ModelConfig& model_cfg,
    const sim::PlatformSpec& platform, const data::WorkloadSpec& workload,
    const SpeedEvalOptions& options);

}  // namespace daop::eval
