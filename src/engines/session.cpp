#include "engines/session.hpp"

#include <algorithm>

#include "cache/arbiter.hpp"
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

CpuExpertTimes cpu_expert_roundtrip(sim::Timeline& tl,
                                    const model::OpCosts& costs, double start,
                                    int n_tokens, double exec_cost,
                                    EngineCounters& counters,
                                    const CpuExpertTags& tags) {
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

SequenceSession::SequenceSession(std::string engine_name,
                                 const model::OpCosts& costs,
                                 const data::SequenceTrace& trace,
                                 const SessionEnv& env, sim::FaultModel* fault,
                                 obs::SpanTracer* tracer,
                                 obs::Profiler* profiler)
    : costs_(costs),
      name_(std::move(engine_name)),
      trace_(trace),
      owned_tl_(env.timeline != nullptr ? nullptr
                                        : std::make_unique<sim::Timeline>()),
      tl_(env.timeline != nullptr ? env.timeline : owned_tl_.get()),
      start_time_(env.start_time),
      request_id_(env.request_id),
      arbiter_(env.arbiter),
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
  const std::vector<cache::PlannedSwap> plan =
      cache_->plan(arbiter_->placement(), arbiter_, request_id_);
  for (const cache::PlannedSwap& s : plan) {
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
        opt.max_migration_retries, opt.migration_deadline_factor,
        /*abort_when_exhausted=*/true);
    if (m.aborted) {
      ++counters_.migration_aborts;
      cache_->record_abort(s, request_id_, m.done);
      continue;
    }
    // Audit the victim's foreign pin count into the ledger (invariantly 0 —
    // the pre-check above and try_swap both refuse pinned victims).
    int victim_other_pins = 0;
    for (const long long holder :
         arbiter_->pinning_sessions(s.layer, s.expert_out)) {
      if (holder != request_id_) ++victim_other_pins;
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
    cache_->commit(s, request_id_, m.done, victim_other_pins,
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

// `daop-ckpt/1` payload revision. Bump when the field layout below changes;
// unseal() already guards the outer frame version.
constexpr std::uint32_t kPayloadVersion = 1;

// Tripwire: a counter added to EngineCounters must also be added to the
// fixed serialization order below (and to counter_profile_metrics, which
// tests/engines/engine_counters_test.cpp enforces). 19 long long + 1 double,
// no padding.
static_assert(sizeof(EngineCounters) ==
                  19 * sizeof(long long) + sizeof(double),
              "EngineCounters changed: update snapshot (de)serialization");

void write_counters(recovery::ByteWriter& w, const EngineCounters& c) {
  w.i64(c.expert_migrations);
  w.i64(c.gpu_expert_execs);
  w.i64(c.cpu_expert_execs);
  w.i64(c.cache_hits);
  w.i64(c.cache_misses);
  w.i64(c.prefetch_hits);
  w.i64(c.predictions);
  w.i64(c.mispredictions);
  w.i64(c.degradations);
  w.i64(c.prefill_swaps);
  w.i64(c.decode_swaps);
  w.i64(c.skipped_experts);
  w.i64(c.migration_retries);
  w.i64(c.migration_aborts);
  w.i64(c.stale_precalcs);
  w.i64(c.pin_refusals);
  w.i64(c.preemptions);
  w.i64(c.preempt_resumes);
  w.i64(c.degraded_sessions);
  w.f64(c.hazard_stall_s);
}

EngineCounters read_counters(recovery::ByteReader& r) {
  EngineCounters c;
  c.expert_migrations = r.i64();
  c.gpu_expert_execs = r.i64();
  c.cpu_expert_execs = r.i64();
  c.cache_hits = r.i64();
  c.cache_misses = r.i64();
  c.prefetch_hits = r.i64();
  c.predictions = r.i64();
  c.mispredictions = r.i64();
  c.degradations = r.i64();
  c.prefill_swaps = r.i64();
  c.decode_swaps = r.i64();
  c.skipped_experts = r.i64();
  c.migration_retries = r.i64();
  c.migration_aborts = r.i64();
  c.stale_precalcs = r.i64();
  c.pin_refusals = r.i64();
  c.preemptions = r.i64();
  c.preempt_resumes = r.i64();
  c.degraded_sessions = r.i64();
  c.hazard_stall_s = r.f64();
  return c;
}

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

std::vector<std::uint8_t> SequenceSession::checkpoint() const {
  DAOP_CHECK_MSG(phase_ == Phase::kDecoding,
                 "checkpoint() is only valid mid-decode");
  DAOP_CHECK_MSG(!parked_, "checkpoint() on a parked session");
  recovery::ByteWriter policy;
  if (!save_policy_state(policy)) return {};

  recovery::ByteWriter w;
  w.u32(kPayloadVersion);
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
  const cache::Placement* placement = effective_placement();
  w.u8(placement != nullptr ? 1 : 0);
  if (placement != nullptr) {
    recovery::write_placement_image(w,
                                    recovery::capture_placement(*placement));
  }
  w.u8(fault_ != nullptr ? 1 : 0);
  if (fault_ != nullptr) {
    const sim::FaultModel::StreamCursor cursor = fault_->stream_cursor();
    write_rng_state(w, cursor.transfer);
    write_rng_state(w, cursor.load);
  }
  w.u32(static_cast<std::uint32_t>(policy.data().size()));
  w.bytes(policy.data().data(), policy.data().size());
  return recovery::seal(w.data());
}

bool SequenceSession::restore(const std::vector<std::uint8_t>& sealed,
                              const RestoreOptions& opts) {
  DAOP_CHECK_MSG(phase_ == Phase::kOpened,
                 "restore() replaces prefill() on a fresh session");
  const std::optional<std::vector<std::uint8_t>> payload =
      recovery::unseal(sealed);
  if (!payload.has_value()) return false;
  recovery::ByteReader r(payload->data(), payload->size());
  if (r.u32() != kPayloadVersion) return false;

  // Decode everything into locals first: state is only mutated once the
  // whole snapshot validated, so a rejected restore leaves the session
  // usable for the prefill-replay fallback.
  const std::string engine = r.str();
  const long long request_id = r.i64();
  const int prompt_len = r.i32();
  const int gen_len = r.i32();
  const int step = r.i32();
  const int replay = r.i32();
  const double start_time = r.f64();
  const double prefill_end = r.f64();
  const double ready = r.f64();
  const double stall_so_far = r.f64();
  const EngineCounters counters = read_counters(r);
  const std::uint32_t n_pins = r.u32();
  if (!r.ok() || n_pins > r.remaining() / 8) return false;
  std::vector<std::pair<int, int>> pins;
  pins.reserve(n_pins);
  for (std::uint32_t i = 0; i < n_pins; ++i) {
    const int layer = r.i32();
    const int expert = r.i32();
    pins.emplace_back(layer, expert);
  }
  const bool has_placement = r.u8() != 0;
  recovery::PlacementImage image;
  if (has_placement && !recovery::read_placement_image(r, &image)) {
    return false;
  }
  const bool has_rng = r.u8() != 0;
  sim::FaultModel::StreamCursor cursor;
  if (has_rng) {
    cursor.transfer = read_rng_state(r);
    cursor.load = read_rng_state(r);
  }
  const std::uint32_t policy_len = r.u32();
  if (!r.ok() || policy_len != r.remaining()) return false;

  if (engine != name_ || request_id != request_id_ ||
      prompt_len != trace_.prompt_len || gen_len != trace_.gen_len) {
    return false;
  }
  if (step < 0 || step > gen_len || replay < 0 || start_time < 0.0 ||
      prefill_end < start_time || ready < prefill_end) {
    return false;
  }

  const double shift = std::max(0.0, opts.resume_floor - ready);
  recovery::ByteReader pr(payload->data() + (payload->size() - policy_len),
                          policy_len);
  if (!load_policy_state(pr, shift) || !pr.ok()) return false;
  if (has_placement && arbiter_ == nullptr) {
    cache::Placement* mine = private_placement();
    if (mine != nullptr && !recovery::apply_placement_image(image, *mine)) {
      return false;
    }
  }

  // Point of no return: apply the validated base state.
  counters_ = counters;
  next_token_ = step;
  replay_tokens_ = replay;
  start_time_ = start_time + shift;
  prefill_end_ = prefill_end + shift;
  ready_ = ready + shift;
  stall0_ = tl_->hazard_stall_s() - stall_so_far;
  for (const auto& [layer, expert] : pins) pin_shared(layer, expert);
  if (opts.apply_rng_cursor && fault_ != nullptr && has_rng) {
    fault_->set_stream_cursor(cursor);
  }
  phase_ = Phase::kDecoding;
  parked_ = false;
  if (tracing()) {
    tinstant(tracks::kToken,
             "warm restart (resumed at token " + std::to_string(step) + ")",
             ready_);
  }
  return true;
}

std::optional<SessionSnapshotInfo> SequenceSession::peek(
    const std::vector<std::uint8_t>& sealed) {
  const std::optional<std::vector<std::uint8_t>> payload =
      recovery::unseal(sealed);
  if (!payload.has_value()) return std::nullopt;
  recovery::ByteReader r(payload->data(), payload->size());
  if (r.u32() != kPayloadVersion) return std::nullopt;
  SessionSnapshotInfo info;
  info.engine = r.str();
  info.request_id = r.i64();
  info.prompt_len = r.i32();
  info.gen_len = r.i32();
  info.step = r.i32();
  r.i32();  // replay tokens
  r.f64();  // start time
  r.f64();  // prefill end
  info.ready = r.f64();
  r.f64();  // stalls so far
  read_counters(r);
  const std::uint32_t n_pins = r.u32();
  if (!r.ok() || n_pins > r.remaining() / 8) return std::nullopt;
  for (std::uint32_t i = 0; i < n_pins; ++i) {
    r.i32();
    r.i32();
  }
  info.has_placement = r.u8() != 0;
  if (info.has_placement && !recovery::read_placement_image(r, &info.placement))
    return std::nullopt;
  if (!r.ok()) return std::nullopt;
  return info;
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
    double backoff = fault_->scenario().retry_backoff_s;
    int attempts = 0;
    for (;;) {
      if (!abort_when_exhausted && attempts >= max_retries) break;
      if (!fault_->expert_load_fails()) break;
      if (abort_when_exhausted &&
          (attempts >= max_retries ||
           (deadline > 0.0 && out.done > deadline))) {
        if (tracing()) {
          out.span = tspan(tracks::kMigration, span_name.str() + " (aborted)",
                           out.start, out.done);
        }
        out.aborted = true;
        return out;
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
    if (tracing()) {
      out.span = tspan(tracks::kMigration, span_name.str() + " (aborted)",
                       out.start, out.done);
    }
    out.aborted = true;
    return out;
  }
  if (tracing()) {
    out.span = tspan(tracks::kMigration, span_name.str(), out.start, out.done);
  }
  return out;
}

double SequenceSession::cpu_expert(double start, int n_tokens,
                                   double exec_cost, int layer, int expert) {
  const CpuExpertTimes t = cpu_expert_roundtrip(tl(), costs_, start, n_tokens,
                                                exec_cost, counters_);
  if (tracing()) {
    tspan(tracks::kExpertCpu, "CPU expert", t.cpu_start, t.cpu_end);
  }
  if (layer >= 0) {
    note_expert_exec(layer, expert, /*on_gpu=*/false, t.cpu_start, t.cpu_end);
  }
  return t.result_arrival;
}

double SequenceSession::gpu_expert(double ready, double exec_cost, int layer,
                                   int expert, const char* name) {
  ++counters_.gpu_expert_execs;
  const double end = tl().schedule(sim::Res::GpuStream, ready, exec_cost, name);
  if (tracing()) tspan(tracks::kExpertGpu, name, tl().last_start(), end);
  note_expert_exec(layer, expert, /*on_gpu=*/true, tl().last_start(), end);
  return end;
}

void SequenceSession::pin_shared(int layer, int expert) {
  if (arbiter_ == nullptr) return;
  arbiter_->pin(layer, expert, request_id_);
  bufs_->step_pins.emplace_back(layer, expert);
}

void SequenceSession::release_step_pins() {
  if (arbiter_ != nullptr) {
    for (const auto& [layer, expert] : bufs_->step_pins) {
      arbiter_->unpin(layer, expert, request_id_);
    }
  }
  bufs_->step_pins.clear();
}

double SequenceSession::shared_weight_gate(int layer, int expert,
                                           double t) const {
  if (arbiter_ == nullptr) return t;
  return std::max(t, arbiter_->weight_ready(layer, expert));
}

void SequenceSession::publish_weight_ready(int layer, int expert, double t) {
  if (arbiter_ != nullptr) arbiter_->set_weight_ready(layer, expert, t);
}

std::uint64_t SequenceSession::tspan(const char* track, std::string name,
                                     double start, double end) {
  if (tracer_ == nullptr) return 0;
  if (request_id_ < 0) {
    return tracer_->span(tracer_->track(track), std::move(name), start, end);
  }
  const obs::RequestScope scope(tracer_, request_id_);
  return tracer_->span(tracer_->track(track), std::move(name), start, end);
}

std::uint64_t SequenceSession::tinstant(const char* track, std::string name,
                                        double t) {
  if (tracer_ == nullptr) return 0;
  if (request_id_ < 0) {
    return tracer_->instant(tracer_->track(track), std::move(name), t);
  }
  const obs::RequestScope scope(tracer_, request_id_);
  return tracer_->instant(tracer_->track(track), std::move(name), t);
}

void SequenceSession::tflow(std::uint64_t from, std::uint64_t to,
                            std::string name) {
  if (tracer_ == nullptr || from == 0 || to == 0) return;
  tracer_->flow(from, to, std::move(name));
}

}  // namespace daop::engines
