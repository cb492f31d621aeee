#include "engines/session.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "engines/run_metrics.hpp"
#include "recovery/reconcile.hpp"

namespace daop::engines {

std::string SpanName::str() const {
  std::string s(prefix);
  if (a >= 0) s += std::to_string(a);
  if (b >= 0) {
    s += mid;
    s += std::to_string(b);
  }
  return s;
}

namespace {
// Thread-local free list of session buffers. Sized for the deepest
// plausible nesting of live sessions per worker (a continuous-batching
// scheduler holds max_concurrent sessions open at once).
thread_local std::vector<std::unique_ptr<SessionBuffers>> t_buffer_pool;
}  // namespace

std::unique_ptr<SessionBuffers> SessionBuffers::acquire() {
  if (t_buffer_pool.empty()) return std::make_unique<SessionBuffers>();
  std::unique_ptr<SessionBuffers> b = std::move(t_buffer_pool.back());
  t_buffer_pool.pop_back();
  return b;
}

void SessionBuffers::release(std::unique_ptr<SessionBuffers> b) {
  if (b == nullptr) return;
  b->step_windows.clear();
  b->expert_execs.clear();
  b->step_pins.clear();
  if (t_buffer_pool.size() < 32) t_buffer_pool.push_back(std::move(b));
}

SequenceSession::SequenceSession(std::string engine_name,
                                 const model::OpCosts& costs,
                                 const data::SequenceTrace& trace,
                                 const SessionEnv& env, sim::FaultModel* fault,
                                 obs::SpanTracer* tracer,
                                 obs::Profiler* profiler,
                                 const cache::Placement& initial)
    : costs_(costs),
      name_(std::move(engine_name)),
      trace_(trace),
      owned_tl_(env.timeline != nullptr ? nullptr
                                        : std::make_unique<sim::Timeline>()),
      tl_(env.timeline != nullptr ? env.timeline : owned_tl_.get()),
      start_time_(env.start_time),
      request_id_(env.request_id),
      arbiter_(env.arbiter),
      own_placement_(initial),
      placement_(arbiter_ != nullptr ? &arbiter_->placement()
                                     : &own_placement_),
      cache_(env.cache),
      shared_(env.shared),
      fault_(fault),
      tracer_(tracer),
      profiler_(profiler),
      bufs_(SessionBuffers::acquire()) {
  DAOP_CHECK_GE(start_time_, 0.0);
  // Sessions replay the trace's stored top-k ids, so its gate must be the
  // model's.
  DAOP_CHECK_EQ(trace.n_experts, costs.config().n_experts);
  DAOP_CHECK_EQ(trace.top_k, costs.config().top_k);
  tl_->set_fault_model(fault_);
  stall0_ = tl_->hazard_stall_s();
  ready_ = start_time_;
  // Attribution needs the timeline's interval record. Turning recording on
  // is the profiler's only touch on the run and never changes a scheduling
  // decision (timing-neutrality is locked down by obs_determinism_test).
  if (profiling()) tl_->set_record_intervals(true);
  if (env.degrade_no_speculation || env.degrade_no_migrations) {
    ++counters_.degraded_sessions;
  }
  replay_tokens_ = env.failover_replay_tokens;
  DAOP_CHECK_GE(replay_tokens_, 0);
  // Register this sequence's prefill routing as its reuse signature; the
  // dynamic cache aggregates demand across all live sessions.
  if (cache_ != nullptr) cache_->note_session_open(request_id_, trace_);
  if (replay_tokens_ > 0 && tracing()) {
    tinstant(tracks::kToken,
             "failover replay (re-running prefill, " +
                 std::to_string(replay_tokens_) + " tokens lost)",
             start_time_);
  }
}

SequenceSession::~SequenceSession() {
  // RAII pin guard: a session destroyed without close() — the cluster
  // crash-failover path tears down in-flight sessions of a dead node this
  // way — must not leak its arbiter pins, or the shared cache would stay
  // frozen for every surviving session. Normal close()/abandon() already
  // released them (unpin_session is idempotent per session).
  if (phase_ != Phase::kClosed && arbiter_ != nullptr) {
    arbiter_->unpin_session(request_id_);
  }
  // Same guard for the dynamic cache: a torn-down session's reuse signature
  // must stop contributing to aggregate demand (idempotent).
  if (phase_ != Phase::kClosed && cache_ != nullptr) {
    cache_->note_session_close(request_id_);
  }
  SessionBuffers::release(std::move(bufs_));
}

void SequenceSession::prefill() {
  DAOP_CHECK_MSG(phase_ == Phase::kOpened,
                 "prefill() must be called exactly once, before decode");
  run_prefill();
  DAOP_CHECK_GE(prefill_end_, start_time_);
  DAOP_CHECK_GE(ready_, prefill_end_);
  phase_ = Phase::kDecoding;
  if (tracing()) {
    tspan(tracks::kToken, "prefill", start_time_, prefill_end_);
  }
}

bool SequenceSession::decode_step() {
  DAOP_CHECK_MSG(phase_ == Phase::kDecoding,
                 (phase_ == Phase::kOpened ? "call prefill() first"
                                           : "session is closed"));
  DAOP_CHECK_MSG(!parked_, "decode_step() on a parked session");
  if (next_token_ >= trace_.gen_len) return false;
  // The previous token is done computing by now; its experts stop being
  // this session's active working set and become fair eviction candidates.
  release_step_pins();
  const int t = next_token_;
  const double token_start = ready_;
  run_decode_token(t);
  if (profiling()) bufs_->step_windows.emplace_back(token_start, ready_);
  if (tracing()) {
    tspan(tracks::kToken, "token " + std::to_string(t), token_start, ready_);
  }
  post_token(t);
  maybe_cache_realloc(t);
  ++next_token_;
  return true;
}

void SequenceSession::maybe_cache_realloc(int t) {
  if (cache_ == nullptr || arbiter_ == nullptr) return;
  const cache::ExpertCacheOptions& opt = cache_->options();
  if ((t + 1) % opt.realloc_interval != 0) return;
  for (const cache::PlannedSwap& s :
       cache_->plan(arbiter_->placement(), arbiter_, request_id_)) {
    // Re-check at execution time: another session may have pinned the
    // victim since planning. Pinned working sets are inviolable — record a
    // refusal naming the contending sessions instead of evicting.
    if (arbiter_->pinned_by_other(s.layer, s.expert_out, request_id_)) {
      ++counters_.pin_refusals;
      cache_->record_refusal(
          s, request_id_, ready_,
          arbiter_->pinning_sessions(s.layer, s.expert_out));
      continue;
    }
    // The swap is an ordinary migration: priced by the cost model, exposed
    // to the hazard plane, aborted by the same retry/deadline discipline as
    // DAOP's own reallocations. It overlaps decode — the weight-ready gate
    // (not the frontier) makes later tokens wait for the arriving expert.
    const MigrationOutcome m = migrate_with_retry(
        ready_, costs_.expert_migration(), "cache swap-in", "cache swap retry",
        SpanName{"cache swap-in L", " e", s.layer, s.expert_in},
        cache::kMigrationRetries, cache::kMigrationDeadlineFactor,
        /*abort_when_exhausted=*/true);
    if (m.aborted) {
      ++counters_.migration_aborts;
      cache_->record_abort(s, request_id_, m.done);
      continue;
    }
    if (!arbiter_->try_swap(s.layer, s.expert_in, s.expert_out,
                            request_id_)) {
      ++counters_.pin_refusals;
      cache_->record_refusal(
          s, request_id_, m.done,
          arbiter_->pinning_sessions(s.layer, s.expert_out));
      continue;
    }
    publish_weight_ready(s.layer, s.expert_in, m.done);
    // Audit the victim's foreign pins into the ledger (invariantly 0 —
    // the pre-check above and try_swap both refuse pinned victims).
    cache_->commit(s, request_id_, m.done,
                   arbiter_->other_pins(s.layer, s.expert_out, request_id_),
                   arbiter_->placement());
    ++counters_.decode_swaps;
  }
}

void SequenceSession::park(double now) {
  DAOP_CHECK_MSG(phase_ == Phase::kDecoding, "park() outside decode");
  DAOP_CHECK_MSG(!parked_, "park() on an already-parked session");
  DAOP_CHECK_GE(now, 0.0);
  // The last scheduled step completes regardless (work already on the
  // timeline cannot be unscheduled), but its experts stop being this
  // session's active working set: drop the pins so the preempting session's
  // migrations are not refused against a parked victim.
  release_step_pins();
  parked_ = true;
  ++counters_.preemptions;
  if (tracing()) tinstant(tracks::kToken, "preempted (parked)", now);
}

void SequenceSession::resume(double now) {
  DAOP_CHECK_MSG(parked_, "resume() on a session that is not parked");
  parked_ = false;
  // Decode continues once the slot is ours again AND the session's own
  // frontier has passed — whichever is later.
  ready_ = std::max(ready_, now);
  ++counters_.preempt_resumes;
  if (tracing()) tinstant(tracks::kToken, "resumed", ready_);
}

void SequenceSession::abandon(double now) {
  DAOP_CHECK_MSG(phase_ == Phase::kDecoding,
                 (phase_ == Phase::kOpened ? "abandon() before prefill()"
                                           : "session already closed"));
  DAOP_CHECK_GE(now, 0.0);
  phase_ = Phase::kClosed;
  parked_ = false;
  if (arbiter_ != nullptr) arbiter_->unpin_session(request_id_);
  if (cache_ != nullptr) cache_->note_session_close(request_id_);
  if (tracing()) tinstant(tracks::kToken, "cancelled (hedge lost)", now);
}

RunResult SequenceSession::close() {
  DAOP_CHECK_MSG(phase_ == Phase::kDecoding,
                 (phase_ == Phase::kOpened ? "close() before prefill()"
                                           : "session already closed"));
  DAOP_CHECK_MSG(!parked_, "close() on a parked session (resume it first)");
  phase_ = Phase::kClosed;
  if (arbiter_ != nullptr) arbiter_->unpin_session(request_id_);
  if (cache_ != nullptr) cache_->note_session_close(request_id_);
  const double decode_end = ready_;
  DAOP_CHECK_GE(decode_end, prefill_end_);

  RunResult r;
  r.engine = name_;
  r.prompt_tokens = trace_.prompt_len;
  r.generated_tokens = next_token_;
  r.prefill_s = prefill_end_ - start_time_;
  r.decode_s = decode_end - prefill_end_;
  r.total_s = decode_end - start_time_;
  if (r.total_s > 0.0) r.tokens_per_s = r.generated_tokens / r.total_s;
  if (r.decode_s > 0.0) {
    r.decode_tokens_per_s = r.generated_tokens / r.decode_s;
  }
  if (!shared_) {
    // Speculative work (prefetches, pre-calculations) may still be draining
    // when the last token is emitted; it burned energy regardless.
    r.energy = sim::compute_energy(costs_.cost_model().platform(), *tl_,
                                   std::max(decode_end, tl_->span()));
    if (r.energy.total_j > 0.0) {
      r.tokens_per_kj = r.generated_tokens / (r.energy.total_j / 1000.0);
    }
  }
  r.counters = counters_;
  // Hazard stall time is accumulated by the timeline (the single place all
  // engines schedule through). On a private timeline, subtracting the
  // session's starting baseline keeps the counter per-run; on a shared
  // timeline stalls are not attributable to one session, so the scheduler
  // accounts them once for the whole run.
  r.counters.hazard_stall_s =
      shared_ ? 0.0 : tl_->hazard_stall_s() - stall0_;
  if (profiling()) {
    profiler_->record_run(name_, request_id_, tl_->intervals(),
                          tl_->hazard_intervals(), start_time_, prefill_end_,
                          decode_end, bufs_->step_windows, bufs_->expert_execs,
                          counter_profile_metrics(r.counters));
  }
  return r;
}

namespace {

void write_counters(recovery::ByteWriter& w, const EngineCounters& c) {
  for (const CounterField& f : kCounterFields) {
    if (f.count != nullptr) {
      w.i64(c.*f.count);
    } else {
      w.f64(c.*f.real);
    }
  }
}

EngineCounters read_counters(recovery::ByteReader& r) {
  EngineCounters c;
  for (const CounterField& f : kCounterFields) {
    if (f.count != nullptr) {
      c.*f.count = r.i64();
    } else {
      c.*f.real = r.f64();
    }
  }
  return c;
}

// Payload bytes of checkpoint() that do not depend on the session's shape:
// name length, request id, four i32 lengths/steps, four f64 times, the
// counters, the pin count, the fault-stream flag, two fault-stream cursors
// (4 u64 words, seed, flag, cached normal), the placement's two dimensions,
// the policy length and the policy block's (L, E) header.
constexpr std::size_t kBaseBytes = 4 + 8 + 4 * 4 + 4 * 8 +
                                   sizeof(EngineCounters) + 4 + 1 +
                                   2 * (5 * 8 + 1 + 8) + 8 + 4 + 8;

void write_rng_state(recovery::ByteWriter& w, const Rng::State& s) {
  for (const std::uint64_t v : s.s) w.u64(v);
  w.u64(s.seed);
  w.u8(s.has_cached_normal ? 1 : 0);
  w.f64(s.cached_normal);
}

Rng::State read_rng_state(recovery::ByteReader& r) {
  Rng::State s;
  for (std::uint64_t& v : s.s) v = r.u64();
  s.seed = r.u64();
  s.has_cached_normal = r.u8() != 0;
  s.cached_normal = r.f64();
  return s;
}

}  // namespace

// The one decoder of checkpoint()'s payload, behind both restore()s.
std::optional<SessionSnapshot> SequenceSession::decode(
    std::vector<std::uint8_t> payload) {
  SessionSnapshot d;
  d.payload = std::move(payload);
  recovery::ByteReader r(d.payload.data(), d.payload.size());
  d.engine = r.str();
  d.request_id = r.i64();
  d.prompt_len = r.i32();
  d.gen_len = r.i32();
  d.step = r.i32();
  d.replay = r.i32();
  d.start_time = r.f64();
  d.prefill_end = r.f64();
  d.ready = r.f64();
  d.stall_so_far = r.f64();
  d.counters = read_counters(r);
  const std::uint32_t n_pins = r.u32();
  if (!r.ok() || n_pins > r.remaining() / 8) return std::nullopt;
  d.pins.reserve(n_pins);
  for (std::uint32_t i = 0; i < n_pins; ++i) {
    const int layer = r.i32();
    d.pins.emplace_back(layer, r.i32());
  }
  std::optional<cache::Placement> placement = recovery::read_placement(r);
  if (!placement.has_value()) return std::nullopt;
  d.placement = std::move(*placement);
  if (r.u8() != 0) {
    // Braced initialisation reads its elements in order: transfer, load.
    d.cursor = sim::FaultModel::StreamCursor{read_rng_state(r),
                                             read_rng_state(r)};
  }
  d.policy_len = r.u32();
  if (!r.ok() || d.policy_len != r.remaining()) return std::nullopt;
  // 0 <= start <= prefill end <= ready, all finite: the negated form
  // rejects NaN too.
  if (d.step < 0 || d.step > d.gen_len || d.replay < 0 ||
      !(0.0 <= d.start_time && d.start_time <= d.prefill_end &&
        d.prefill_end <= d.ready && std::isfinite(d.ready) &&
        std::isfinite(d.stall_so_far))) {
    return std::nullopt;
  }
  return d;
}

std::vector<std::uint8_t> SequenceSession::checkpoint() const {
  DAOP_CHECK_MSG(phase_ == Phase::kDecoding,
                 "checkpoint() is only valid mid-decode");
  DAOP_CHECK_MSG(!parked_, "checkpoint() on a parked session");
  const std::size_t cells = static_cast<std::size_t>(trace_.n_layers()) *
                            static_cast<std::size_t>(trace_.n_experts);
  // One pass into one buffer: the frame header, then the payload in place,
  // reserved for the base fields, the placement image and the policy state.
  recovery::ByteWriter w;
  w.reserve(recovery::kSealHeaderSize + kBaseBytes + name_.size() +
            8 * bufs_->step_pins.size() + cells +
            4 * static_cast<std::size_t>(trace_.n_layers()) +
            policy_state_bytes());
  recovery::begin_seal(w);
  w.str(name_);
  w.i64(request_id_);
  w.i32(trace_.prompt_len);
  w.i32(trace_.gen_len);
  w.i32(next_token_);
  w.i32(replay_tokens_);
  w.f64(start_time_);
  w.f64(prefill_end_);
  w.f64(ready_);
  // Hazard stalls this session accumulated so far, so close() after a
  // restore reports pre-crash + post-restore stalls like an uninterrupted
  // run would.
  w.f64(tl_->hazard_stall_s() - stall0_);
  write_counters(w, counters_);
  w.u32(static_cast<std::uint32_t>(bufs_->step_pins.size()));
  for (const auto& [layer, expert] : bufs_->step_pins) {
    w.i32(layer);
    w.i32(expert);
  }
  recovery::write_placement(w, placement());
  w.u8(fault_ != nullptr ? 1 : 0);
  if (fault_ != nullptr) {
    const sim::FaultModel::StreamCursor cursor = fault_->stream_cursor();
    write_rng_state(w, cursor.transfer);
    write_rng_state(w, cursor.load);
  }
  // The policy block is the payload's tail, behind its byte length: the
  // (L, E) the session decodes with, then the engine's state.
  const std::size_t policy_len_at = w.size();
  w.u32(0);
  w.i32(placement().n_layers());
  w.i32(placement().n_experts());
  save_policy_state(w);
  w.patch_u32(policy_len_at,
              static_cast<std::uint32_t>(w.size() - policy_len_at - 4));
  return recovery::end_seal(w);
}

bool SequenceSession::restore(const std::vector<std::uint8_t>& sealed,
                              const RestoreOptions& opts) {
  DAOP_CHECK_MSG(phase_ == Phase::kOpened,
                 "restore() replaces prefill() on a fresh session");
  std::optional<std::vector<std::uint8_t>> payload = recovery::unseal(sealed);
  if (!payload.has_value()) return false;
  std::optional<SessionSnapshot> snap = decode(std::move(*payload));
  return snap.has_value() && restore(std::move(*snap), opts);
}

bool SequenceSession::restore(SessionSnapshot snap,
                              const RestoreOptions& opts) {
  DAOP_CHECK_MSG(phase_ == Phase::kOpened,
                 "restore() replaces prefill() on a fresh session");
  // Validate everything first: state is only mutated once the whole
  // snapshot validated, so a rejected restore leaves the session usable for
  // the prefill-replay fallback.
  if (snap.engine != name_ || snap.request_id != request_id_ ||
      snap.prompt_len != trace_.prompt_len ||
      snap.gen_len != trace_.gen_len) {
    return false;
  }
  // Re-pinning happens past the point of no return, so an out-of-range
  // cell must be rejected here.
  for (const auto& [layer, expert] : snap.pins) {
    if (layer < 0 || layer >= trace_.n_layers() || expert < 0 ||
        expert >= trace_.n_experts) {
      return false;
    }
  }

  // The policy block's (L, E) must be this session's. A shared placement
  // belongs to the device (the restoring scheduler reconciles it before
  // restore()); only a private copy takes the snapshot's, at the point of
  // no return, so its dimensions must match too.
  recovery::ByteReader pr(
      snap.payload.data() + (snap.payload.size() - snap.policy_len),
      snap.policy_len);
  const int n_layers = pr.i32();
  const int n_experts = pr.i32();
  if (n_layers != placement().n_layers() ||
      n_experts != placement().n_experts() ||
      (arbiter_ == nullptr && (snap.placement.n_layers() != n_layers ||
                               snap.placement.n_experts() != n_experts))) {
    return false;
  }
  const double shift = std::max(0.0, opts.resume_floor - snap.ready);
  if (!load_policy_state(pr, shift) || !pr.ok()) return false;

  // Point of no return: apply the validated base state.
  if (arbiter_ == nullptr) own_placement_ = std::move(snap.placement);
  counters_ = snap.counters;
  next_token_ = snap.step;
  replay_tokens_ = snap.replay;
  start_time_ = snap.start_time + shift;
  prefill_end_ = snap.prefill_end + shift;
  ready_ = snap.ready + shift;
  stall0_ = tl_->hazard_stall_s() - snap.stall_so_far;
  for (const auto& [layer, expert] : snap.pins) pin_shared(layer, expert);
  if (opts.apply_rng_cursor && fault_ != nullptr && snap.cursor) {
    fault_->set_stream_cursor(*snap.cursor);
  }
  phase_ = Phase::kDecoding;
  parked_ = false;
  if (tracing()) {
    tinstant(tracks::kToken,
             "warm restart (resumed at token " + std::to_string(next_token_) +
                 ")",
             ready_);
  }
  return true;
}

SequenceSession::MigrationOutcome SequenceSession::migrate_with_retry(
    double issue, double cost, const char* tag, const char* retry_tag,
    const SpanName& span_name, int max_retries, double deadline_factor,
    bool abort_when_exhausted) {
  MigrationOutcome out;
  out.done = tl().schedule(sim::Res::PcieH2D, issue, cost, tag);
  out.start = tl().last_start();
  ++counters_.expert_migrations;
  // PCIe queueing counts against the deadline (measured from `issue`), so a
  // congested link aborts swaps instead of stalling decode.
  const double deadline =
      deadline_factor > 0.0 ? issue + deadline_factor * cost : 0.0;
  if (fault_ != nullptr && fault_->enabled()) {
    double backoff = sim::kTransferRetryBackoffS;
    int attempts = 0;
    for (;;) {
      if (!abort_when_exhausted && attempts >= max_retries) break;
      if (!fault_->expert_load_fails()) break;
      if (abort_when_exhausted &&
          (attempts >= max_retries ||
           (deadline > 0.0 && out.done > deadline))) {
        out.aborted = true;
        break;
      }
      ++attempts;
      ++counters_.migration_retries;
      out.done = tl().schedule(sim::Res::PcieH2D, out.done + backoff, cost,
                               retry_tag);
      ++counters_.expert_migrations;
      backoff *= 2.0;
    }
  }
  if (abort_when_exhausted && deadline > 0.0 && out.done > deadline) {
    out.aborted = true;
  }
  if (tracing()) {
    out.span = tspan(tracks::kMigration,
                     out.aborted ? span_name.str() + " (aborted)"
                                 : span_name.str(),
                     out.start, out.done);
  }
  return out;
}

void SequenceSession::arbiter_pin(int layer, int expert) {
  arbiter_->pin(layer, expert, request_id_);
  bufs_->step_pins.emplace_back(layer, expert);
}

double SequenceSession::arbiter_weight_gate(int layer, int expert,
                                            double t) const {
  return std::max(t, arbiter_->weight_ready(layer, expert));
}

void SequenceSession::release_step_pins() {
  if (arbiter_ != nullptr) {
    for (const auto& [layer, expert] : bufs_->step_pins) {
      arbiter_->unpin(layer, expert, request_id_);
    }
  }
  bufs_->step_pins.clear();
}

std::uint64_t SequenceSession::tspan(const char* track, std::string name,
                                     double start, double end) {
  if (tracer_ == nullptr) return 0;
  // A null tracer makes the scope a no-op: without a request id the
  // tracer's ambient request is left as it is.
  const obs::RequestScope scope(request_id_ < 0 ? nullptr : tracer_,
                                request_id_);
  return tracer_->span(tracer_->track(track), std::move(name), start, end);
}

std::uint64_t SequenceSession::tinstant(const char* track, std::string name,
                                        double t) {
  if (tracer_ == nullptr) return 0;
  const obs::RequestScope scope(request_id_ < 0 ? nullptr : tracer_,
                                request_id_);
  return tracer_->instant(tracer_->track(track), std::move(name), t);
}

void SequenceSession::tflow(std::uint64_t from, std::uint64_t to,
                            std::string name) {
  if (tracer_ == nullptr || from == 0 || to == 0) return;
  tracer_->flow(from, to, std::move(name));
}

}  // namespace daop::engines
