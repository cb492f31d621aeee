// Inference-engine interface for the performance-simulation plane.
//
// An Engine schedules one sequence (prefill + autoregressive decode) onto a
// sim::Timeline using the per-op costs of a model/platform pair, maintaining
// its own expert-placement policy. Engines never invent costs: all timing
// flows through model::OpCosts so every engine prices identical work
// identically, and differences in tokens/s are purely scheduling policy —
// exactly the quantity the paper compares.
#pragma once

#include <memory>
#include <string>
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

struct EngineCounters {
  long long expert_migrations = 0;   ///< CPU->GPU weight transfers
  long long gpu_expert_execs = 0;
  long long cpu_expert_execs = 0;
  long long cache_hits = 0;          ///< selected expert already on GPU
  long long cache_misses = 0;
  long long prefetch_hits = 0;       ///< prefetched expert actually used
  long long predictions = 0;         ///< gate-ahead predictions issued
  long long mispredictions = 0;      ///< predicted set missed a used expert
  long long degradations = 0;        ///< graceful-degradation substitutions
  long long prefill_swaps = 0;       ///< Algorithm 1 swaps
  long long decode_swaps = 0;        ///< decode-phase re-allocation swaps
                                     ///< (DAOP extension, off by default)
  long long skipped_experts = 0;     ///< experts skipped by the adaptive
                                     ///< top-1 margin (extension)

  // ---- Hazard / degradation telemetry (fault plane) ----
  long long migration_retries = 0;   ///< expert-load attempts retried after
                                     ///< a transient failure
  long long migration_aborts = 0;    ///< migrations abandoned (deadline
                                     ///< exceeded or retries exhausted)
  long long stale_precalcs = 0;      ///< pre-calculated results discarded
                                     ///< because they arrived too late
  long long pin_refusals = 0;        ///< placement swaps refused because the
                                     ///< eviction victim was pinned by a
                                     ///< concurrent session

  // ---- Overload-control telemetry (eval/overload.hpp) ----
  long long preemptions = 0;         ///< times this session was parked for a
                                     ///< deadline-critical request
  long long preempt_resumes = 0;     ///< times it resumed from a park
  long long degraded_sessions = 0;   ///< sessions opened under a degradation
                                     ///< directive (no-speculation and/or
                                     ///< no-migrations)
  double hazard_stall_s = 0.0;       ///< total hazard delay injected into
                                     ///< this run's scheduled ops

  /// Accumulates another run's counters into this one. Every aggregation
  /// path (multi-sequence averaging, serving) goes through this so a newly
  /// added counter can never be silently dropped by one of them.
  void add(const EngineCounters& o);
};

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
  sim::FaultModel* fault_model() const { return fault_model_; }

  /// Attaches a span tracer; subsequent runs record gate / expert-exec /
  /// migration / prediction / pre-calculation spans into it. Tracing is
  /// strictly passive — spans are derived from times the schedule already
  /// produced, so the timeline is bit-identical with or without a tracer.
  /// nullptr (the default) disables tracing.
  void set_tracer(obs::SpanTracer* tracer) { tracer_ = tracer; }
  obs::SpanTracer* tracer() const { return tracer_; }

  /// Attaches a critical-path profiler (obs/profiler.hpp); each subsequent
  /// non-shared session records its attribution/heatmap profile into it at
  /// close(). Like tracing this is strictly passive — the only effect on
  /// the run is that the session timeline records intervals, which never
  /// changes a scheduling decision (a profiled run is bit-identical to an
  /// unprofiled one). nullptr (the default) disables profiling.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }
  obs::Profiler* profiler() const { return profiler_; }

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
