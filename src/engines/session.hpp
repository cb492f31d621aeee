// Resumable per-sequence engine sessions.
//
// A SequenceSession is one sequence's scheduling state machine:
//
//   open (engine->open_session) -> prefill() -> decode_step()* -> close()
//
// Engine::run() drives a session to completion in one call — the classic
// single-sequence path — while a serving scheduler can interleave
// decode_step() calls across many open sessions on one shared timeline
// (continuous batching). The base class owns the mechanics every engine
// shares: timeline/fault wiring, migration-with-retry disciplines, the
// CPU-expert round trip, token/prefill span bookkeeping, counters, the
// placement the session decodes against, checkpointing, and the RunResult
// arithmetic. Engine subclasses supply only policy by overriding
// run_prefill() / run_decode_token() and the policy-state checkpoint hooks.
//
// Determinism contract: driving a session to completion through the base
// lifecycle reproduces the pre-session monolithic run() loops bit-for-bit
// (times, energy, counters, trace bytes) — enforced by
// tests/engines/session_determinism_test.cpp against committed goldens.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <optional>

#include "cache/arbiter.hpp"
#include "cache/expert_cache.hpp"
#include "engines/engine.hpp"
#include "obs/profiler.hpp"
#include "recovery/snapshot.hpp"

namespace daop::cache {
class PlacementArbiter;
}  // namespace daop::cache

namespace daop::engines {

/// Where and how a session runs. Default-constructed: private timeline,
/// t = 0, no request id — exactly Engine::run()'s single-sequence setting.
struct SessionEnv {
  /// Timeline to schedule onto; nullptr gives the session a private one.
  sim::Timeline* timeline = nullptr;
  /// Simulation time the sequence starts at (admission time under a
  /// scheduler). All RunResult times are reported relative to this.
  double start_time = 0.0;
  /// Serving request id stamped onto every span this session records;
  /// -1 leaves the tracer's ambient request scope untouched.
  long long request_id = -1;
  /// Shared-placement arbiter for multi-session serving; nullptr means the
  /// session works on its own private copy of the initial placement.
  cache::PlacementArbiter* arbiter = nullptr;
  /// Dynamic expert cache (cache/expert_cache.hpp). When set, the session
  /// feeds every expert execution into the cache's demand statistics and
  /// runs a cache reallocation scan every `realloc_interval` decode tokens,
  /// executing planned swaps as ordinary migrations through the arbiter.
  /// nullptr (policy `frozen`) is an exact no-op on every path.
  cache::ExpertCache* cache = nullptr;
  /// True when `timeline` is shared with other sessions. A shared session
  /// reports no per-run energy and no hazard-stall attribution (both are
  /// properties of the whole timeline, accounted once by the scheduler).
  bool shared = false;

  // ---- Degradation directives (overload-control plane, eval/overload.hpp).
  // Set by the serving scheduler when its DegradationController has stepped
  // down the ladder; engines honor them at open_session time by disabling
  // the corresponding policy features for this session only. Both default
  // off — a default SessionEnv opens a full-policy session.
  /// Disable speculative work: DAOP pre-calculation, fetch-engine prefetch.
  bool degrade_no_speculation = false;
  /// Disable placement migrations beyond demand fetches: Algorithm-1
  /// prefill swaps and decode re-allocation.
  bool degrade_no_migrations = false;

  /// Failover-replay accounting (cluster plane, src/cluster): tokens an
  /// earlier attempt of this request generated on a crashed node before it
  /// died. This session restarts the request from its recorded routing
  /// trace (prefill re-runs, every token is regenerated); the count is
  /// purely observational — exposed via failover_replay_tokens() and traced
  /// as a "failover replay" instant — and never a scheduling input, so a
  /// zero value (the default) is byte-identical to pre-cluster behaviour.
  int failover_replay_tokens = 0;
};

/// Timing of one CPU-resident expert round trip (activations D2H, CPU
/// execution, result H2D).
struct CpuExpertTimes {
  double acts_out_start = 0.0;  ///< activations D2H transfer start
  double cpu_start = 0.0;       ///< CPU execution start
  double cpu_end = 0.0;         ///< CPU execution end
  double result_arrival = 0.0;  ///< result available on the GPU
};

/// Timeline interval tags for a CPU-expert round trip. The defaults are the
/// synchronous-execution tags; DAOP's speculative pre-calculation uses its
/// own so exported traces distinguish the two kinds of CPU work. Views of
/// literals, so their lengths are compile-time constants.
struct CpuExpertTags {
  std::string_view acts_out = "acts to CPU";
  std::string_view exec = "CPU expert";
  std::string_view acts_back = "acts to GPU";
};

/// Lazily formatted span name of the shape "<prefix><a><mid><b>" (numeric
/// parts skipped while negative). Untraced sessions pass these through
/// migrate_with_retry without ever materializing a std::string — span-name
/// formatting only happens when a tracer is attached.
struct SpanName {
  const char* prefix = "";
  const char* mid = "";
  int a = -1;
  int b = -1;
  std::string str() const;
};

/// Reusable per-session bookkeeping buffers: profiler decode-step windows,
/// expert-execution heatmap entries, and the working-set pin list. Sessions
/// acquire a pooled instance on open and return it (cleared, capacity kept)
/// on destruction, so a sweep running thousands of back-to-back sequences
/// reuses the same heap blocks instead of reallocating per sequence. The
/// pool is thread_local: lock-free, and each parallel sweep worker recycles
/// its own buffers.
struct SessionBuffers {
  std::vector<std::pair<double, double>> step_windows;
  std::vector<obs::ExpertExec> expert_execs;
  std::vector<std::pair<int, int>> step_pins;

  static std::unique_ptr<SessionBuffers> acquire();
  static void release(std::unique_ptr<SessionBuffers> b);
};

/// Ships `n_tokens` activations to the CPU, executes an expert over them
/// (`exec_cost` seconds), and ships the result back; bumps
/// `counters.cpu_expert_execs`. Shared by the per-sequence sessions and the
/// batch driver (core/daop_batch.hpp) so every CPU-expert round trip prices
/// identically.
inline CpuExpertTimes cpu_expert_roundtrip(sim::Timeline& tl,
                                           const model::OpCosts& costs,
                                           double start, int n_tokens,
                                           double exec_cost,
                                           EngineCounters& counters,
                                           const CpuExpertTags& tags = {}) {
  CpuExpertTimes t;
  const double out = tl.schedule(sim::Res::PcieD2H, start,
                                 costs.activations_d2h(n_tokens),
                                 tags.acts_out);
  t.acts_out_start = tl.last_start();
  t.cpu_end = tl.schedule(sim::Res::CpuPool, out, exec_cost, tags.exec);
  t.cpu_start = tl.last_start();
  ++counters.cpu_expert_execs;
  t.result_arrival = tl.schedule(sim::Res::PcieH2D, t.cpu_end,
                                 costs.activations_h2d(n_tokens),
                                 tags.acts_back);
  return t;
}

/// How a snapshot is applied to a freshly opened session (see
/// SequenceSession::restore).
struct RestoreOptions {
  /// Earliest time the restored session may resume. The snapshot's times
  /// are shifted forward by max(0, resume_floor - snapshot.ready); a floor
  /// at or before the snapshot frontier restores with zero shift, which is
  /// the bit-identity case.
  double resume_floor = 0.0;
  /// Restore the fault model's expert-load/transfer stream cursor saved in
  /// the snapshot. Only meaningful when the restoring session's FaultModel
  /// is fresh and private (same scenario + seed as the snapshotting run);
  /// a cluster peer keeps its own mid-run streams and leaves this false.
  bool apply_rng_cursor = false;
};

/// Every field of a snapshot, decoded and checked for consistency with
/// itself (SequenceSession::decode). Checks against a live session
/// (identity, pin range, policy state) are restore()'s.
struct SessionSnapshot {
  std::string engine;
  long long request_id = -1;
  int prompt_len = 0;
  int gen_len = 0;
  int step = 0;        ///< decode tokens completed at snapshot time
  double ready = 0.0;  ///< snapshot-time scheduling frontier
  /// The placement the session decoded against (replaced when decoded).
  cache::Placement placement{1, 1};
  int replay = 0;
  double start_time = 0.0;
  double prefill_end = 0.0;
  double stall_so_far = 0.0;
  EngineCounters counters;
  std::vector<std::pair<int, int>> pins;
  std::optional<sim::FaultModel::StreamCursor> cursor;
  /// The payload, whose tail of `policy_len` bytes is the policy block.
  std::vector<std::uint8_t> payload;
  std::size_t policy_len = 0;
};

/// Trace ownership: a session borrows its routing trace. It stores a
/// reference to the SequenceTrace it was opened with, so opening a session
/// costs no per-token copy, and the caller must keep that trace alive and at
/// a fixed address until the session is destroyed — the same contract as the
/// engine and the env-referenced timeline/arbiter/cache. Owners that keep
/// requests in containers that move (the continuous-batching scheduler's
/// queues) pin the trace behind a unique_ptr for the session's lifetime.
class SequenceSession {
 public:
  /// `initial` is copied into the session's private placement; with an
  /// arbiter attached the session decodes against the arbiter's shared
  /// placement instead.
  SequenceSession(std::string engine_name, const model::OpCosts& costs,
                  const data::SequenceTrace& trace, const SessionEnv& env,
                  sim::FaultModel* fault, obs::SpanTracer* tracer,
                  obs::Profiler* profiler,
                  const cache::Placement& initial);
  virtual ~SequenceSession();

  SequenceSession(const SequenceSession&) = delete;
  SequenceSession& operator=(const SequenceSession&) = delete;

  /// Schedules the prompt. Must be called exactly once, before any
  /// decode_step(). On return ready_time() is when decode may start.
  void prefill();

  /// Schedules one decode token. Returns false (without scheduling) once
  /// the sequence has generated all of its tokens. Must not be called while
  /// the session is parked.
  bool decode_step();

  /// Finalizes and returns the run's result. The session cannot be used
  /// afterwards.
  RunResult close();

  /// Cancels a decoding session without recording a result: arbiter pins
  /// are released and the session is closed for good. Work its steps
  /// already placed on the timeline keeps its cost (scheduled ops cannot be
  /// unscheduled) — `now` only labels the cancellation instant in traces.
  /// Used by the cluster router to cancel the losing copy of a hedged
  /// dispatch; close() and abandon() are mutually exclusive.
  void abandon(double now);

  /// Preempts the session mid-decode at time `now` (>= nothing in
  /// particular — the scheduler parks at the session's own frontier): the
  /// previous step's arbiter pins are released so the shared cache
  /// unfreezes, and decode_step() is forbidden until resume(). Only valid
  /// while decoding; a parked session holds no pins.
  void park(double now);
  /// Resumes a parked session: decode may continue no earlier than `now`
  /// (the frontier is pushed to max(ready_time, now) — the preempting
  /// session's work occupied the slot in between).
  void resume(double now);

  /// Serializes everything needed to resume this session mid-decode into a
  /// sealed `daop-ckpt/2` blob: lifecycle state, counters, working-set
  /// pins, the placement it decodes against, fault-stream cursor, and the
  /// engine's policy state. Only valid while decoding and not parked.
  std::vector<std::uint8_t> checkpoint() const;

  /// Applies a sealed snapshot to a freshly opened session (before
  /// prefill()), replacing the prefill+decode prefix the snapshot already
  /// paid for. Validates the frame checksum and every decoded field before
  /// mutating any state: on rejection it returns false and the session
  /// remains usable for the ordinary prefill() replay path. On success the
  /// session is decoding, its frontier is at the (possibly shifted)
  /// snapshot frontier, and the snapshot's working-set pins are re-pinned
  /// on this session's arbiter.
  bool restore(const std::vector<std::uint8_t>& sealed,
               const RestoreOptions& opts);
  /// restore() of an already decoded snapshot (see decode()).
  bool restore(SessionSnapshot snap, const RestoreOptions& opts);

  /// Decodes an unsealed payload (recovery::unseal, or what
  /// CheckpointStore::latest_valid hands out) without a session. nullopt
  /// when a field fails validation.
  static std::optional<SessionSnapshot> decode(
      std::vector<std::uint8_t> payload);

  const data::SequenceTrace& trace() const { return trace_; }
  long long request_id() const { return request_id_; }
  /// Tokens generated so far.
  int tokens_generated() const { return next_token_; }
  /// True once every decode token has been scheduled.
  bool decode_done() const { return next_token_ >= trace_.gen_len; }
  /// Time the session's next step would start at: start_time before
  /// prefill, the running decode frontier afterwards.
  double ready_time() const { return ready_; }
  double start_time() const { return start_time_; }
  const EngineCounters& counters() const { return counters_; }
  /// Tokens a crashed predecessor of this request generated and lost (from
  /// SessionEnv::failover_replay_tokens; 0 outside the failover path).
  int failover_replay_tokens() const { return replay_tokens_; }

 protected:
  /// Schedules the whole prompt. Must set prefill_end_ (end of prompt
  /// compute) and ready_ (earliest decode start, >= prefill_end_ when
  /// weights are still in flight).
  virtual void run_prefill() = 0;
  /// Schedules decode token `t` (0-based), advancing ready_.
  virtual void run_decode_token(int t) = 0;
  /// Runs after token `t`'s span is recorded (e.g. DAOP's periodic decode
  /// re-allocation, whose migrations happen between tokens).
  virtual void post_token(int t) { (void)t; }

  // ---- Checkpoint hooks: each engine serializes its policy state
  // (windows, readiness gates, LRU clocks — everything run_decode_token
  // consults beyond the base class) through these.
  /// Appends the engine's policy state to the snapshot payload, behind the
  /// (L, E) header the base writes and checks.
  virtual void save_policy_state(recovery::ByteWriter& w) const = 0;
  /// Bytes save_policy_state writes, so checkpoint() allocates once.
  virtual std::size_t policy_state_bytes() const = 0;
  /// Restores policy state written by save_policy_state. `r` holds exactly
  /// those bytes: a state that is short, long or malformed returns false.
  /// `shift` is the time-rebase applied to the snapshot (0 in the
  /// bit-identity case); engines must shift their own absolute times by it
  /// while preserving sentinel values. Runs before any base state is
  /// applied and must leave the policy state untouched when it returns
  /// false (which rejects the restore).
  virtual bool load_policy_state(recovery::ByteReader& r, double shift) = 0;

  /// The placement this session decodes against: the arbiter's shared one
  /// when an arbiter is attached, the private copy of the initial placement
  /// otherwise. Captured into snapshots so a surviving node can rebuild
  /// residency.
  cache::Placement& placement() { return *placement_; }
  const cache::Placement& placement() const { return *placement_; }

  sim::Timeline& tl() { return *tl_; }
  sim::FaultModel* fault() const { return fault_; }
  cache::PlacementArbiter* arbiter() const { return arbiter_; }
  bool shared() const { return shared_; }

  /// One expert-weight migration over PCIe under a retry discipline.
  struct MigrationOutcome {
    double done = 0.0;        ///< weight-arrival time (last attempt's end)
    double start = 0.0;       ///< first attempt's transfer start
    std::uint64_t span = 0;   ///< Migration-track span id (0 untraced)
    bool aborted = false;     ///< abandoned (deadline / retries exhausted)
  };

  /// Schedules the transfer at `issue` and, when a fault model is active,
  /// replays transient expert-load failures with exponential backoff.
  ///
  /// `abort_when_exhausted` selects between the two retry disciplines the
  /// engines use — they consume fault-model randomness in different orders,
  /// and that order is part of each engine's deterministic behavior:
  ///  - true (DAOP): draw the failure first, then abort if the retry budget
  ///    (`max_retries`) is spent or the running finish time exceeds
  ///    `issue + deadline_factor * cost` (deadline_factor 0 = no deadline).
  ///    The Migration span is traced as "`span_name` (aborted)".
  ///  - false (fetch engines): stop drawing once `max_retries` attempts were
  ///    made and assume the final load goes through; never aborts.
  MigrationOutcome migrate_with_retry(double issue, double cost,
                                      const char* tag, const char* retry_tag,
                                      const SpanName& span_name,
                                      int max_retries, double deadline_factor,
                                      bool abort_when_exhausted);

  /// Traced CPU-expert round trip; returns the result-arrival time. When
  /// `layer`/`expert` are given (>= 0) the execution also feeds the
  /// profiler's utilization heatmap.
  double cpu_expert(double start, int n_tokens, double exec_cost,
                    int layer = -1, int expert = -1) {
    const CpuExpertTimes t = cpu_expert_roundtrip(tl(), costs_, start,
                                                  n_tokens, exec_cost,
                                                  counters_);
    if (tracing()) {
      tspan(tracks::kExpertCpu, "CPU expert", t.cpu_start, t.cpu_end);
    }
    if (layer >= 0) {
      note_expert_exec(layer, expert, /*on_gpu=*/false, t.cpu_start,
                       t.cpu_end);
    }
    return t.result_arrival;
  }
  /// Traced GPU execution of expert (layer, expert) from `ready`, scheduled
  /// and traced as `name`; returns its end time.
  double gpu_expert(double ready, double exec_cost, int layer, int expert,
                    std::string_view name) {
    ++counters_.gpu_expert_execs;
    const double end =
        tl().schedule(sim::Res::GpuStream, ready, exec_cost, name);
    if (tracing()) {
      tspan(tracks::kExpertGpu, std::string(name), tl().last_start(), end);
    }
    note_expert_exec(layer, expert, /*on_gpu=*/true, tl().last_start(), end);
    return end;
  }

  // ---- Shared-placement conveniences: exact no-ops without an arbiter
  // (the single-sequence path), so private-session behavior is untouched.
  // The no-arbiter exits are inline. Pinning and the weight gate, which
  // run per expert, are out of line, so the private decode loop carries
  // none of their code.
  /// Pins (layer, expert) as part of this session's ACTIVE working set: the
  /// experts its current step computes with. Pins are held while other
  /// sessions interleave and released when this session's next step begins
  /// (and unconditionally in close()), so concurrent migrations can never
  /// evict an in-use expert but the shared cache never freezes solid.
  void pin_shared(int layer, int expert) {
    if (arbiter_ != nullptr) arbiter_pin(layer, expert);
  }
  /// Latest of `t` and the cross-session weight-arrival gate.
  double shared_weight_gate(int layer, int expert, double t) const {
    return arbiter_ == nullptr ? t : arbiter_weight_gate(layer, expert, t);
  }
  /// Publishes a weight-arrival time for other sessions to gate on.
  void publish_weight_ready(int layer, int expert, double t) {
    if (arbiter_ != nullptr) arbiter_->set_weight_ready(layer, expert, t);
  }

  // ---- Tracing: exact no-ops without a tracer; spans carry this
  // session's request id when one was assigned. ----
  bool tracing() const { return tracer_ != nullptr; }
  std::uint64_t tspan(const char* track, std::string name, double start,
                      double end);
  std::uint64_t tinstant(const char* track, std::string name, double t);
  void tflow(std::uint64_t from, std::uint64_t to, std::string name = {});

  // ---- Profiling: exact no-ops without a profiler. Shared-timeline
  // sessions never record per-run profiles (the window belongs to the whole
  // schedule; the serving scheduler profiles it once). ----
  bool profiling() const { return profiler_ != nullptr && !shared_; }
  /// Notes an already-scheduled expert execution for the per-layer ×
  /// per-expert utilization heatmap. Passive: `start`/`end` are times the
  /// schedule already produced.
  void note_expert_exec(int layer, int expert, bool on_gpu, double start,
                        double end) {
    if (cache_ != nullptr) cache_->note_use(layer, expert, request_id_, end);
    if (profiling()) {
      bufs_->expert_execs.push_back({layer, expert, on_gpu, start, end});
    }
  }

  const model::OpCosts& costs_;
  EngineCounters counters_;
  /// Scheduling frontier: when the next layer/token may start.
  double ready_ = 0.0;
  double prefill_end_ = 0.0;

 private:
  enum class Phase { kOpened, kDecoding, kClosed };

  /// The arbiter halves of pin_shared and shared_weight_gate (arbiter_ is
  /// set).
  void arbiter_pin(int layer, int expert);
  double arbiter_weight_gate(int layer, int expert, double t) const;
  /// Drops the previous step's working-set pins (see pin_shared).
  void release_step_pins();
  /// Runs a dynamic-cache reallocation scan after token `t` when a cache is
  /// attached and `t` lands on its cadence; executes each planned swap as a
  /// migration under the retry discipline, then commits it through the
  /// arbiter (pinned victims become refusals, never evictions).
  void maybe_cache_realloc(int t);

  std::string name_;
  /// Borrowed, never copied (see the class comment).
  const data::SequenceTrace& trace_;
  std::unique_ptr<sim::Timeline> owned_tl_;
  sim::Timeline* tl_;
  double start_time_;
  long long request_id_;
  cache::PlacementArbiter* arbiter_;
  /// The private placement copy; restore() overwrites it when no arbiter
  /// is attached (a shared placement belongs to the device, and the
  /// restoring scheduler reconciles it before restore()).
  cache::Placement own_placement_;
  /// &own_placement_, or the arbiter's placement when one is attached.
  cache::Placement* placement_;
  cache::ExpertCache* cache_;
  bool shared_;
  sim::FaultModel* fault_;
  obs::SpanTracer* tracer_;
  obs::Profiler* profiler_;
  /// Pooled bookkeeping buffers (decode-step windows and expert executions
  /// for the profiler, current-step pins for release_step_pins). Never
  /// null between construction and destruction.
  std::unique_ptr<SessionBuffers> bufs_;
  double stall0_ = 0.0;
  Phase phase_ = Phase::kOpened;
  bool parked_ = false;
  int next_token_ = 0;
  int replay_tokens_ = 0;
};

}  // namespace daop::engines
