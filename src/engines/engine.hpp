// Inference-engine interface for the performance-simulation plane.
//
// An Engine schedules one sequence (prefill + autoregressive decode) onto a
// sim::Timeline using the per-op costs of a model/platform pair, maintaining
// its own expert-placement policy. Engines never invent costs: all timing
// flows through model::OpCosts so every engine prices identical work
// identically, and differences in tokens/s are purely scheduling policy —
// exactly the quantity the paper compares.
#pragma once

#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/placement.hpp"
#include "data/routing_trace.hpp"
#include "model/op_costs.hpp"
#include "obs/span_tracer.hpp"
#include "sim/energy.hpp"
#include "sim/fault_model.hpp"
#include "sim/timeline.hpp"

namespace daop::obs {
class Profiler;
}  // namespace daop::obs

namespace daop::engines {

/// Canonical span-track names shared by all engines, so traces from
/// different engines line up in the same viewer rows.
namespace tracks {
inline constexpr const char* kGate = "Gate";
inline constexpr const char* kToken = "Token";
inline constexpr const char* kExpertGpu = "Expert GPU";
inline constexpr const char* kExpertCpu = "Expert CPU";
inline constexpr const char* kMigration = "Migration";
inline constexpr const char* kPrediction = "Prediction";
inline constexpr const char* kPrecalc = "Pre-calc";
}  // namespace tracks

/// Per-run engine counters. What each field counts is described once, in
/// its kCounterFields row below.
struct EngineCounters {
  long long expert_migrations = 0;
  long long gpu_expert_execs = 0;
  long long cpu_expert_execs = 0;
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long prefetch_hits = 0;
  long long predictions = 0;
  long long mispredictions = 0;
  long long degradations = 0;
  long long prefill_swaps = 0;
  long long decode_swaps = 0;
  long long skipped_experts = 0;
  long long migration_retries = 0;
  long long migration_aborts = 0;
  long long stale_precalcs = 0;
  long long pin_refusals = 0;
  long long preemptions = 0;
  long long preempt_resumes = 0;
  long long degraded_sessions = 0;
  double hazard_stall_s = 0.0;

  /// Accumulates another run's counters into this one. Every aggregation
  /// path (multi-sequence averaging, serving) goes through this so a newly
  /// added counter can never be silently dropped by one of them.
  void add(const EngineCounters& o);
};

/// One EngineCounters field: where it lives, its profile name, and the
/// Prometheus series it is exported as (record_counter_metrics).
struct CounterField {
  /// Profile name (engines::counter_profile_metrics): the field's name.
  const char* name;
  /// The field, unless it is the one double (`real`).
  long long EngineCounters::*count;
  /// Metric family; null keeps the field out of the metrics export (it is
  /// still aggregated, checkpointed and profiled).
  const char* family = nullptr;
  /// What the field counts: the family's help text when exported.
  const char* help = nullptr;
  /// The label the family splits on ("device", "result", "phase"), if any.
  const char* label_key = nullptr;
  const char* label_value = nullptr;
  double EngineCounters::*real = nullptr;
  /// An overload-plane family: exported only by serving runs with the
  /// overload plane on (record_counter_metrics' `overload_plane`).
  bool overload_plane = false;

  double value(const EngineCounters& c) const {
    return count != nullptr ? static_cast<double>(c.*count) : c.*real;
  }
};

/// The EngineCounters fields, in declaration order. add(), the snapshot
/// counter block, counter_profile_metrics and record_counter_metrics all
/// loop over this table, so a field listed here is aggregated,
/// checkpointed, profiled and exported everywhere at once.
inline constexpr CounterField kCounterFields[] = {
    {"expert_migrations", &EngineCounters::expert_migrations,
     "daop_expert_migrations_total", "CPU-to-GPU expert weight transfers."},
    {"gpu_expert_execs", &EngineCounters::gpu_expert_execs,
     "daop_expert_execs_total", "Expert executions by device.", "device",
     "gpu"},
    {"cpu_expert_execs", &EngineCounters::cpu_expert_execs,
     "daop_expert_execs_total", "Expert executions by device.", "device",
     "cpu"},
    {"cache_hits", &EngineCounters::cache_hits,
     "daop_expert_cache_lookups_total",
     "Selected-expert GPU cache lookups by result.", "result", "hit"},
    {"cache_misses", &EngineCounters::cache_misses,
     "daop_expert_cache_lookups_total",
     "Selected-expert GPU cache lookups by result.", "result", "miss"},
    {"prefetch_hits", &EngineCounters::prefetch_hits,
     "daop_prefetch_hits_total",
     "Prefetched or pre-fetched experts that were actually used."},
    {"predictions", &EngineCounters::predictions, "daop_predictions_total",
     "Gate-ahead predictions issued."},
    {"mispredictions", &EngineCounters::mispredictions,
     "daop_mispredictions_total",
     "Predictions whose expert set missed a used expert."},
    {"degradations", &EngineCounters::degradations,
     "daop_degradations_total", "Graceful-degradation expert substitutions."},
    {"prefill_swaps", &EngineCounters::prefill_swaps, "daop_swaps_total",
     "Expert placement swaps by phase.", "phase", "prefill"},
    // Decode re-allocation and the adaptive top-1 margin are DAOP
    // extensions, off by default.
    {"decode_swaps", &EngineCounters::decode_swaps, "daop_swaps_total",
     "Expert placement swaps by phase.", "phase", "decode"},
    {"skipped_experts", &EngineCounters::skipped_experts,
     "daop_skipped_experts_total",
     "Experts skipped by the adaptive top-1 margin."},
    {"migration_retries", &EngineCounters::migration_retries,
     "daop_expert_migration_retries_total",
     "Expert-load attempts retried after transient failures."},
    {"migration_aborts", &EngineCounters::migration_aborts,
     "daop_expert_migration_aborts_total",
     "Migrations abandoned (deadline exceeded or retries exhausted)."},
    {"stale_precalcs", &EngineCounters::stale_precalcs,
     "daop_stale_precalcs_total",
     "Pre-calculated results discarded for arriving too late."},
    {"pin_refusals", &EngineCounters::pin_refusals, "daop_pin_refusals_total",
     "Placement swaps/evictions refused because the victim was pinned by a "
     "concurrent session."},
    {"preemptions", &EngineCounters::preemptions,
     "daop_session_preemptions_total",
     "Sessions parked for deadline-critical requests.", nullptr, nullptr,
     nullptr, true},
    {"preempt_resumes", &EngineCounters::preempt_resumes,
     "daop_session_preempt_resumes_total", "Parked sessions resumed.",
     nullptr, nullptr, nullptr, true},
    {"degraded_sessions", &EngineCounters::degraded_sessions,
     "daop_degraded_sessions_total",
     "Sessions opened under a degradation directive.", nullptr, nullptr,
     nullptr, true},
    {"hazard_stall_s", nullptr, "daop_hazard_stall_seconds_total",
     "Total hazard delay injected into scheduled ops.", nullptr, nullptr,
     &EngineCounters::hazard_stall_s},
};

// Tripwire: every EngineCounters field is 8 bytes wide, so a field added to
// the struct but not to kCounterFields changes this size.
static_assert(sizeof(EngineCounters) == std::size(kCounterFields) * 8,
              "EngineCounters changed: add the field to kCounterFields");

/// The help text kCounterFields gives metric family `family`, for other
/// exporters of the same family. Evaluated at compile time: a family the
/// table does not export does not compile.
consteval const char* counter_help(std::string_view family) {
  for (const CounterField& f : kCounterFields) {
    if (f.family != nullptr && std::string_view(f.family) == family) {
      return f.help;
    }
  }
  throw "not a kCounterFields family";
}

struct RunResult {
  std::string engine;
  int prompt_tokens = 0;
  int generated_tokens = 0;
  double prefill_s = 0.0;
  double decode_s = 0.0;
  double total_s = 0.0;
  /// The paper's end-to-end metric: generated tokens / total wall time.
  double tokens_per_s = 0.0;
  /// Decode-only rate (excludes prefill).
  double decode_tokens_per_s = 0.0;
  sim::EnergyBreakdown energy;
  /// The paper's Table IV metric.
  double tokens_per_kj = 0.0;
  EngineCounters counters;
};

class SequenceSession;
struct SessionEnv;

class Engine {
 public:
  explicit Engine(const model::OpCosts& costs) : costs_(costs) {}
  virtual ~Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  virtual std::string name() const = 0;

  /// Simulates one sequence starting from `initial` expert placement
  /// (typically the §IV-A calibrated placement). When `tl` is non-null the
  /// engine records into it (with interval recording as configured by the
  /// caller, e.g. for gantt rendering); otherwise a private timeline is
  /// used. Thin wrapper: opens a session and drives it to completion.
  /// `request_id` (when >= 0) labels the run in session spans and profiler
  /// records — purely observational, never a scheduling input.
  RunResult run(const data::SequenceTrace& trace,
                const cache::Placement& initial, sim::Timeline* tl = nullptr,
                long long request_id = -1);

  /// Opens a resumable session for one sequence (see engines/session.hpp).
  /// The engine supplies policy; `env` supplies where the session runs
  /// (timeline, start time, request id, placement arbiter). The session
  /// captures the engine's fault model and tracer at open time; the engine,
  /// trace, and env-referenced objects must outlive the session.
  ///
  /// Borrow contract: the session holds a reference to `trace`, never a
  /// copy. Whoever opens it keeps the trace alive and at a fixed address
  /// until the session is destroyed; passing a temporary is a compile error.
  std::unique_ptr<SequenceSession> open_session(
      const data::SequenceTrace& trace, const cache::Placement& initial,
      const SessionEnv& env);
  std::unique_ptr<SequenceSession> open_session(
      const data::SequenceTrace&& trace, const cache::Placement& initial,
      const SessionEnv& env) = delete;

  /// The per-op cost table this engine schedules with. Recovery-plane
  /// helpers (placement reconciliation before a warm restart) price their
  /// transfers through this so restored work costs exactly what the engine
  /// itself would pay.
  const model::OpCosts& costs() const { return costs_; }

  /// Attaches a hazard-injection fault model (see sim/fault_model.hpp);
  /// every subsequent run() schedules through it. The model must outlive
  /// the engine's runs. nullptr (the default) restores calm-device
  /// behaviour, bit-identical to an engine that never had a fault model.
  void set_fault_model(sim::FaultModel* fm) { fault_model_ = fm; }

  /// Attaches a span tracer; subsequent runs record gate / expert-exec /
  /// migration / prediction / pre-calculation spans into it. Tracing is
  /// strictly passive — spans are derived from times the schedule already
  /// produced, so the timeline is bit-identical with or without a tracer.
  /// nullptr (the default) disables tracing.
  void set_tracer(obs::SpanTracer* tracer) { tracer_ = tracer; }

  /// Attaches a critical-path profiler (obs/profiler.hpp); each subsequent
  /// non-shared session records its attribution/heatmap profile into it at
  /// close(). Like tracing this is strictly passive — the only effect on
  /// the run is that the session timeline records intervals, which never
  /// changes a scheduling decision (a profiled run is bit-identical to an
  /// unprofiled one). nullptr (the default) disables profiling.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }

 protected:
  /// Engine-specific session factory behind open_session(). Overriders see
  /// only lvalue traces, so a subclass cannot reopen the temporary path.
  virtual std::unique_ptr<SequenceSession> do_open_session(
      const data::SequenceTrace& trace, const cache::Placement& initial,
      const SessionEnv& env) = 0;

  const model::OpCosts& costs_;
  sim::FaultModel* fault_model_ = nullptr;
  obs::SpanTracer* tracer_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
};

/// Averages results over multiple sequences (rates are recomputed from the
/// summed times/tokens, not averaged, matching how the paper aggregates).
RunResult aggregate_results(const std::string& name,
                            const std::vector<RunResult>& results);

}  // namespace daop::engines
