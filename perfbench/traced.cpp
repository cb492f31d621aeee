// The traced pass's shared probes: each times calls the benchmark makes
// into one layer's public functions, from outside, on the workload's own
// inputs.
#include "traced.hpp"

#include <algorithm>

#include "data/trace_generator.hpp"
#include "engines/session.hpp"
#include "eval/speed.hpp"
#include "metrics.hpp"
#include "recovery/snapshot.hpp"
#include "sim/timeline.hpp"

namespace perfbench {

namespace {

/// Traces the engine probes drive (a prefix of the workload's plan).
constexpr std::size_t kEngineProbeTraces = 32;
/// Mid-decode sessions the recovery probe snapshots.
constexpr std::size_t kRecoveryProbeTraces = 16;
/// Minimum wall time the schedule() replay is repeated for.
constexpr double kReplayMinS = 0.25;

std::vector<const data::SequenceTrace*> prefix(
    const std::vector<const data::SequenceTrace*>& ts, std::size_t n) {
  return {ts.begin(), ts.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(n, ts.size()))};
}

bool same_placement(const cache::Placement& a, const cache::Placement& b) {
  const model::ModelConfig& m = sys().model;
  for (int l = 0; l < m.n_layers; ++l) {
    for (int e = 0; e < m.n_experts; ++e) {
      if (a.on_gpu(l, e) != b.on_gpu(l, e)) return false;
    }
  }
  return true;
}

/// data: TraceGenerator::generate per prompt+gen token.
void probe_data(const Workload& w, MetricValues& out, Checks& checks) {
  const auto ts = prefix(w.traces(), kEngineProbeTraces);
  const model::ModelConfig& m = sys().model;
  const data::TraceGenerator gen(sys().dataset, m.n_layers, m.n_experts,
                                 m.top_k, w.seed());
  std::vector<data::SequenceTrace> again;
  long long tokens = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < ts.size(); ++i) {
    again.push_back(gen.generate(static_cast<int>(i), ts[i]->prompt_len,
                                 ts[i]->gen_len));
    tokens += ts[i]->prompt_len + ts[i]->gen_len;
  }
  out.set("data.trace_gen_us_per_tok",
          per_token(seconds_since(t0), tokens, 1e6));
  std::vector<const data::SequenceTrace*> again_ptrs;
  for (const auto& t : again) again_ptrs.push_back(&t);
  checks.expect(fingerprint(again_ptrs) == fingerprint(ts),
                "data: regenerated traces equal the setup's");
}

/// cache (calibration): eval::calibrated_initial_placement.
void probe_calibration(const Workload& w, MetricValues& out, Checks& checks) {
  const Clock::time_point t0 = Clock::now();
  const cache::Placement p = calibrate(w.seed());
  out.set("cache.calibrate_s", seconds_since(t0));
  checks.expect(same_placement(p, w.placement()),
                "cache: recalibration reproduces the setup's placement");
}

/// engines: SequenceSession::prefill / decode_step on private timelines.
/// Returns the bare-engine wall per prompt+gen token.
double probe_engines(const Workload& w, MetricValues& out) {
  auto engine = eval::make_engine(eval::EngineKind::Daop, sys().costs);
  double prefill_s = 0.0;
  double decode_s = 0.0;
  long long prompt = 0;
  long long steps = 0;
  for (const data::SequenceTrace* t : prefix(w.traces(), kEngineProbeTraces)) {
    auto session = engine->open_session(*t, w.placement(), {});
    Clock::time_point t0 = Clock::now();
    session->prefill();
    prefill_s += seconds_since(t0);
    prompt += t->prompt_len;
    for (;;) {
      t0 = Clock::now();
      const bool more = session->decode_step();
      decode_s += seconds_since(t0);
      if (!more) break;
      ++steps;
    }
    session->close();
  }
  out.set("engines.prefill_us_per_tok", per_token(prefill_s, prompt, 1e6));
  out.set("engines.decode_us_per_step", per_token(decode_s, steps, 1e6));
  return per_token(prefill_s + decode_s, prompt + steps, 1e6);
}

/// sim: replays one recorded op stream through fresh Timeline::schedule.
void probe_schedule(const Workload& w, MetricValues& out, Checks& checks) {
  auto engine = eval::make_engine(eval::EngineKind::Daop, sys().costs);
  sim::Timeline rec;
  rec.set_record_intervals(true);
  engine->run(*w.traces().front(), w.placement(), &rec);
  const sim::IntervalSoA& ops = rec.intervals_soa();
  long long replayed = 0;
  double span = 0.0;
  const Clock::time_point t0 = Clock::now();
  do {
    sim::Timeline tl;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      tl.schedule(ops.res[i], ops.start[i], ops.end[i] - ops.start[i]);
    }
    span = tl.span();
    replayed += static_cast<long long>(ops.size());
  } while (seconds_since(t0) < kReplayMinS);
  out.set("sim.schedule_ns_per_op",
          per_token(seconds_since(t0), replayed, 1e9));
  checks.expect(span == rec.span(),
                "sim: replayed op stream ends where it did");
}

/// recovery: checkpoint / unseal / restore of mid-decode sessions.
void probe_recovery(const Workload& w, MetricValues& out, Checks& checks) {
  auto engine = eval::make_engine(eval::EngineKind::Daop, sys().costs);
  double ckpt_s = 0.0, unseal_s = 0.0, restore_s = 0.0;
  long long bytes = 0;
  long long n = 0;
  bool all_ok = true;
  for (const data::SequenceTrace* t :
       prefix(w.traces(), kRecoveryProbeTraces)) {
    auto session = engine->open_session(*t, w.placement(), {});
    session->prefill();
    for (int s = 0; s < t->gen_len / 2; ++s) session->decode_step();
    Clock::time_point t0 = Clock::now();
    const std::vector<std::uint8_t> blob = session->checkpoint();
    ckpt_s += seconds_since(t0);
    t0 = Clock::now();
    const auto payload = recovery::unseal(blob);
    unseal_s += seconds_since(t0);
    auto fresh = engine->open_session(*t, w.placement(), {});
    t0 = Clock::now();
    const bool ok = fresh->restore(blob, {});
    restore_s += seconds_since(t0);
    all_ok = all_ok && payload.has_value() && ok &&
             fresh->tokens_generated() == session->tokens_generated() &&
             fresh->ready_time() == session->ready_time();
    bytes += static_cast<long long>(blob.size());
    ++n;
  }
  checks.expect(all_ok, "recovery: every mid-decode snapshot restores");
  out.set("recovery.checkpoint_us", per_token(ckpt_s, n, 1e6));
  out.set("recovery.unseal_us", per_token(unseal_s, n, 1e6));
  out.set("recovery.restore_us", per_token(restore_s, n, 1e6));
  out.set("recovery.snapshot_bytes", per_token(static_cast<double>(bytes), n));
}

}  // namespace

double run_shared_probes(Workload& w, MetricValues& out, Checks& checks) {
  probe_data(w, out, checks);
  probe_calibration(w, out, checks);
  const double bare_us_per_tok = probe_engines(w, out);
  probe_schedule(w, out, checks);
  probe_recovery(w, out, checks);
  return bare_us_per_tok;
}

}  // namespace perfbench
