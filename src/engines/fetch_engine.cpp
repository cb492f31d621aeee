#include "engines/fetch_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

#include "cache/arbiter.hpp"
#include "common/check.hpp"
#include "engines/session.hpp"
#include "tensor/ops.hpp"

namespace daop::engines {
namespace {

/// Fetch-based session: policy decides WHAT to fetch/prefetch and WHEN;
/// the session base supplies the migration/retry and tracing mechanics.
class FetchSession final : public SequenceSession {
 public:
  FetchSession(const model::OpCosts& costs, const FetchPolicy& policy,
               const data::SequenceTrace& trace, const SessionEnv& env,
               sim::FaultModel* fault, obs::SpanTracer* tracer,
               obs::Profiler* profiler, const cache::Placement& initial)
      : SequenceSession(policy.name, costs, trace, env, fault, tracer,
                        profiler),
        policy_(policy),
        placement_(initial),
        mig_time_(costs.cost_model().h2d_time(costs.config().expert_bytes() *
                                              policy.weight_bytes_factor)),
        last_use_(static_cast<std::size_t>(initial.n_layers()) *
                      initial.n_experts(),
                  0),
        fetch_ready_(last_use_.size(), -1.0),
        prefetch_pending_(last_use_.size(), 0),
        fetch_span_(last_use_.size(), 0),
        pattern_prefetched_(last_use_.size(), false) {
    const auto k = static_cast<std::size_t>(costs.config().top_k);
    selected_.reserve(k);
    guess_.reserve(k);
    if (policy_.prefetch_uses_sequence_pattern) {
      // MoE-Infinity's guess per layer: the top-k experts of the prefill
      // activation pattern. The pattern is constant for the sequence, so
      // it is ranked once here rather than on every decode token-layer.
      std::vector<float> pattern(static_cast<std::size_t>(initial.n_experts()));
      std::vector<int> top;
      pattern_guess_.reserve(static_cast<std::size_t>(initial.n_layers()) * k);
      for (int l = 0; l < initial.n_layers(); ++l) {
        const std::span<const double> counts =
            this->trace().counts(data::Phase::Prefill, l);
        std::copy(counts.begin(), counts.end(), pattern.begin());
        topk_indices_into(pattern, costs.config().top_k, top);
        pattern_guess_.insert(pattern_guess_.end(), top.begin(), top.end());
      }
    }
    if (policy_.ignore_initial_cache) {
      // DeepSpeed-MII has no expert offloading mechanism (§V-C): every
      // expert streams from host memory on every use. Under a shared
      // placement this clears residency for the whole device, which is
      // exactly what running such an engine on the device means.
      cache::Placement& p = placement();
      for (int l = 0; l < p.n_layers(); ++l) {
        for (int e = 0; e < p.n_experts(); ++e) p.move_to_cpu(l, e);
      }
    }
  }

 private:
  /// The shared placement under an arbiter, a private copy otherwise.
  cache::Placement& placement() {
    return arbiter() != nullptr ? arbiter()->placement() : placement_;
  }

  std::size_t idx(int l, int e) const {
    return static_cast<std::size_t>(l) *
               static_cast<std::size_t>(placement_.n_experts()) +
           static_cast<std::size_t>(e);
  }

  void touch(int l, int e) { last_use_[idx(l, e)] = ++use_clock_; }

  /// LRU victim among residents of `layer` that are not in `protect` and —
  /// under an arbiter — not pinned by another session. When only pins stand
  /// between the caller and a victim, the refusal is counted.
  int victim(int layer, std::span<const int> protect) {
    int best = -1;
    long long best_use = 0;
    bool pin_blocked = false;
    for (int e = 0; e < placement().n_experts(); ++e) {
      if (!placement().on_gpu(layer, e) ||
          std::find(protect.begin(), protect.end(), e) != protect.end()) {
        continue;
      }
      if (arbiter() != nullptr &&
          arbiter()->pinned_by_other(layer, e, request_id())) {
        pin_blocked = true;
        continue;
      }
      const long long u = last_use_[idx(layer, e)];
      if (best < 0 || u < best_use) {
        best = e;
        best_use = u;
      }
    }
    if (best < 0 && pin_blocked) ++counters_.pin_refusals;
    return best;
  }

  // Ensures room for `expert` on the GPU, evicting an LRU resident if
  // needed, and marks it resident. Returns false if it could not be cached
  // (zero capacity, or every candidate victim pinned by another session) —
  // the expert is then streamed without residency.
  bool make_resident(int l, int e, std::span<const int> protect) {
    if (placement().capacity(l) == 0) return false;
    if (placement().gpu_count(l) >= placement().capacity(l)) {
      const int v = victim(l, protect);
      if (v < 0) return false;
      placement().move_to_cpu(l, v);
      fetch_ready_[idx(l, v)] = -1.0;
      // An evicted prefetch was never used, so it can no longer be a hit.
      prefetch_pending_[idx(l, v)] = 0;
    }
    placement().move_to_gpu(l, e);
    return true;
  }

  // Fetches `e`'s weights, honoring the overlap policy. `issue` is the
  // earliest time routing knowledge allows the fetch; `serial_after` is the
  // previous dependent op for synchronous mode.
  double fetch(int l, int e, double issue, double serial_after) {
    const double ready =
        policy_.overlap_fetch ? issue : std::max(issue, serial_after);
    // A GPU-centric engine has no CPU execution path to degrade to, so a
    // transient load failure means re-streaming the weights: bounded
    // retries, after which the load is assumed to go through.
    const int max_retries =
        fault() != nullptr && fault()->enabled()
            ? fault()->scenario().max_transfer_retries
            : 0;
    const MigrationOutcome m = migrate_with_retry(
        ready, mig_time_, "fetch expert", "refetch expert",
        SpanName{"fetch L", " E", l, e}, max_retries, 0.0,
        /*abort_when_exhausted=*/false);
    fetch_ready_[idx(l, e)] = m.done;
    // A re-stream always supersedes any previous fetch of this expert.
    prefetch_pending_[idx(l, e)] = 0;
    fetch_span_[idx(l, e)] = m.span;
    publish_weight_ready(l, e, m.done);
    return m.done;
  }

  void run_prefill() override {
    const model::ModelConfig& cfg = costs_.config();
    const int np = trace().prompt_len;
    for (int l = 0; l < cfg.n_layers; ++l) {
      const double nonmoe_end = tl().schedule(
          sim::Res::GpuStream, ready_, costs_.nonmoe_gpu_prefill(np),
          "prefill non-MoE");
      const std::span<const double> counts =
          trace().counts(data::Phase::Prefill, l);
      // Activated experts, most-loaded first so heavy work starts earliest.
      std::vector<int> active;
      for (int e = 0; e < cfg.n_experts; ++e) {
        if (counts[static_cast<std::size_t>(e)] > 0.0) active.push_back(e);
      }
      std::stable_sort(active.begin(), active.end(), [&](int a, int b) {
        return counts[static_cast<std::size_t>(a)] >
               counts[static_cast<std::size_t>(b)];
      });

      double layer_end = nonmoe_end;
      double prev_exec_end = nonmoe_end;
      for (int e : active) {
        const int tok = static_cast<int>(counts[static_cast<std::size_t>(e)]);
        double exec_ready = nonmoe_end;
        if (!placement().on_gpu(l, e)) {
          ++counters_.cache_misses;
          const double done = fetch(l, e, nonmoe_end, prev_exec_end);
          exec_ready = done;
          if (!policy_.reuse_cache || !make_resident(l, e, active)) {
            fetch_ready_[idx(l, e)] = -1.0;
          }
        } else {
          ++counters_.cache_hits;
          exec_ready = shared_weight_gate(l, e, exec_ready);
        }
        const double exec_end = gpu_expert(
            exec_ready, costs_.expert_gpu_prefill(tok), l, e, "prefill expert");
        touch(l, e);
        prev_exec_end = exec_end;
        layer_end = std::max(layer_end, exec_end);
      }
      ready_ = layer_end;
    }
    prefill_end_ = ready_;
  }

  void run_decode_token(int t) override {
    const model::ModelConfig& cfg = costs_.config();
    const int ctx = trace().prompt_len + t;
    for (int l = 0; l < cfg.n_layers; ++l) {
      const double nonmoe_end = tl().schedule(
          sim::Res::GpuStream, ready_, costs_.nonmoe_gpu(ctx), "non-MoE");
      const data::TokenRouting tok = trace().at(data::Phase::Decode, l, t);
      selected_.assign(tok.selected.begin(), tok.selected.end());
      const std::span<const int> selected = selected_;
      if (tracing()) {
        tinstant(tracks::kGate, "gate L" + std::to_string(l), nonmoe_end);
      }

      // Issue next-layer prefetches as soon as this layer's gate resolves.
      if (policy_.prefetch_next_layer && l + 1 < cfg.n_layers) {
        std::span<const int> guess;
        std::uint64_t pred_span = 0;
        if (policy_.prefetch_uses_sequence_pattern) {
          // MoE-Infinity: prefetch the next layer's sequence-level dominant
          // experts (prefill activation pattern).
          const auto k = static_cast<std::size_t>(cfg.top_k);
          guess = std::span<const int>(pattern_guess_)
                      .subspan(static_cast<std::size_t>(l + 1) * k, k);
        } else if (policy_.prefetch_uses_prediction) {
          const std::span<const data::ExpertId> predicted =
              trace().predicted(l + 1, t);
          guess_.assign(predicted.begin(), predicted.end());
          guess = guess_;
          if (!guess.empty()) {
            ++counters_.predictions;
            if (tracing()) {
              pred_span = tinstant(tracks::kPrediction,
                                   "predict L" + std::to_string(l + 1),
                                   nonmoe_end);
            }
          }
        } else {
          guess = selected;  // assume expert reuse across layers
        }
        for (int e : guess) {
          const std::size_t i = idx(l + 1, e);
          if (placement().on_gpu(l + 1, e) || fetch_ready_[i] >= 0.0) {
            continue;
          }
          if (policy_.prefetch_uses_sequence_pattern) {
            if (pattern_prefetched_[i]) continue;
            pattern_prefetched_[i] = true;
          }
          fetch(l + 1, e, nonmoe_end, nonmoe_end);
          prefetch_pending_[i] = 1;
          tflow(pred_span, fetch_span_[i], "prefetch");
          if (policy_.reuse_cache) make_resident(l + 1, e, guess);
        }
      }

      double layer_end = nonmoe_end;
      double prev_exec_end = nonmoe_end;
      for (int e : selected) {
        double exec_ready = nonmoe_end;
        const std::size_t i = idx(l, e);
        bool consumed_prefetch = false;
        if (placement().on_gpu(l, e)) {
          ++counters_.cache_hits;
          pin_shared(l, e);
          consumed_prefetch = prefetch_pending_[i] != 0;
          // May still be in-flight from a prefetch (possibly another
          // session's, under a shared placement).
          if (fetch_ready_[i] > exec_ready) {
            exec_ready = fetch_ready_[i];
          }
          exec_ready = shared_weight_gate(l, e, exec_ready);
        } else {
          ++counters_.cache_misses;
          if (fetch_ready_[i] >= 0.0) {
            // An earlier fetch is in flight (or landed without a free
            // slot); consume it instead of re-streaming the weights.
            exec_ready = std::max(nonmoe_end, fetch_ready_[i]);
            consumed_prefetch = prefetch_pending_[i] != 0;
          } else {
            exec_ready = fetch(l, e, nonmoe_end, prev_exec_end);
          }
          // Streamed weights are discarded after use unless a cache slot
          // absorbs them.
          if (!policy_.reuse_cache || !make_resident(l, e, selected)) {
            fetch_ready_[i] = -1.0;
          }
        }
        if (consumed_prefetch) {
          // Credit each speculative prefetch at most once, on first use.
          prefetch_pending_[i] = 0;
          ++counters_.prefetch_hits;
        }
        const double exec_end = tl().schedule(
            sim::Res::GpuStream, exec_ready, costs_.expert_gpu(), "expert");
        if (tracing()) {
          const std::uint64_t x = tspan(tracks::kExpertGpu, "expert",
                                        tl().last_start(), exec_end);
          if (consumed_prefetch) tflow(fetch_span_[i], x, "prefetched");
        }
        note_expert_exec(l, e, /*on_gpu=*/true, tl().last_start(), exec_end);
        ++counters_.gpu_expert_execs;
        touch(l, e);
        prev_exec_end = exec_end;
        layer_end = std::max(layer_end, exec_end);
      }
      ready_ = layer_end;
    }
  }

  // ---- Warm-restart checkpointing: the LRU clock, per-expert in-flight
  // transfer gates (-1 sentinel preserved across the time rebase), prefetch
  // credit flags, trace span ids (valid when restoring under the same
  // tracer; cosmetic otherwise), and the once-per-expert pattern-prefetch
  // marks.
  bool save_policy_state(recovery::ByteWriter& w) const override {
    w.i32(placement_.n_layers());
    w.i32(placement_.n_experts());
    w.i64(use_clock_);
    for (const long long v : last_use_) w.i64(v);
    for (const double v : fetch_ready_) w.f64(v);
    for (const char v : prefetch_pending_) {
      w.u8(static_cast<std::uint8_t>(v));
    }
    for (const std::uint64_t v : fetch_span_) w.u64(v);
    for (std::size_t i = 0; i < pattern_prefetched_.size(); ++i) {
      w.u8(pattern_prefetched_[i] ? 1 : 0);
    }
    return true;
  }

  bool load_policy_state(recovery::ByteReader& r, double shift) override {
    const int L = r.i32();
    const int E = r.i32();
    if (!r.ok() || L != placement_.n_layers() || E != placement_.n_experts())
      return false;
    const long long clock = r.i64();
    std::vector<long long> last_use(last_use_.size());
    for (long long& v : last_use) v = r.i64();
    std::vector<double> fetch_ready(fetch_ready_.size());
    for (double& v : fetch_ready) {
      v = r.f64();
      if (v >= 0.0) v += shift;  // negative = nothing in flight, keep as-is
    }
    std::vector<char> pending(prefetch_pending_.size());
    for (char& v : pending) v = static_cast<char>(r.u8());
    std::vector<std::uint64_t> spans(fetch_span_.size());
    for (std::uint64_t& v : spans) v = r.u64();
    std::vector<bool> pattern(pattern_prefetched_.size());
    for (std::size_t i = 0; i < pattern.size(); ++i) pattern[i] = r.u8() != 0;
    if (!r.ok()) return false;
    use_clock_ = clock;
    last_use_ = std::move(last_use);
    fetch_ready_ = std::move(fetch_ready);
    prefetch_pending_ = std::move(pending);
    fetch_span_ = std::move(spans);
    pattern_prefetched_ = std::move(pattern);
    return true;
  }

  const cache::Placement* effective_placement() const override {
    return arbiter() != nullptr ? &arbiter()->placement() : &placement_;
  }

  cache::Placement* private_placement() override { return &placement_; }

  /// By value: open_session may hand each session a per-session variant of
  /// the policy (degradation directives disable prefetching for one session
  /// without touching the engine).
  const FetchPolicy policy_;
  cache::Placement placement_;
  const double mig_time_;
  /// MoE-Infinity's per-layer prefetch guess, [layer][top_k]; empty for
  /// every other policy.
  std::vector<int> pattern_guess_;
  /// Monotonic use counter per (layer, expert) for LRU eviction.
  std::vector<long long> last_use_;
  long long use_clock_ = 0;
  /// Completion time of an in-flight (or done) transfer per (layer,
  /// expert); negative when none.
  std::vector<double> fetch_ready_;
  /// Set while a *prefetch* (speculative fetch issued ahead of need) is
  /// outstanding and has not yet been credited as a prefetch hit. A single
  /// prefetch is credited at most once, on its first use; demand fetches
  /// never set this.
  std::vector<char> prefetch_pending_;
  /// Tracing: span id of the last fetch per (layer, expert); 0 when none.
  std::vector<std::uint64_t> fetch_span_;
  /// Sequence-pattern prefetches (MoE-Infinity) are issued once per
  /// (layer, expert): the pattern is static for the sequence, so
  /// re-issuing it every token would only thrash the cache.
  std::vector<bool> pattern_prefetched_;

  // ---- Per-layer scratch for run_decode_token, reused so a step never
  // allocates (not policy state).
  std::vector<int> selected_;
  std::vector<int> guess_;
};

}  // namespace

FetchBasedEngine::FetchBasedEngine(const model::OpCosts& costs,
                                   FetchPolicy policy)
    : Engine(costs), policy_(std::move(policy)) {
  DAOP_CHECK_GT(policy_.weight_bytes_factor, 0.0);
}

std::unique_ptr<SequenceSession> FetchBasedEngine::do_open_session(
    const data::SequenceTrace& trace, const cache::Placement& initial,
    const SessionEnv& env) {
  const model::ModelConfig& cfg = costs_.config();
  DAOP_CHECK_EQ(initial.n_layers(), cfg.n_layers);
  DAOP_CHECK_EQ(initial.n_experts(), cfg.n_experts);
  // Degradation directives (overload plane) narrow THIS session's policy;
  // demand fetches are load-bearing and stay on regardless.
  FetchPolicy session_policy = policy_;
  if (env.degrade_no_speculation) session_policy.prefetch_next_layer = false;
  return std::make_unique<FetchSession>(costs_, session_policy, trace, env,
                                        fault_model_, tracer_, profiler_,
                                        initial);
}

std::unique_ptr<Engine> make_moe_ondemand(const model::OpCosts& costs) {
  FetchPolicy p;
  p.name = "MoE-OnDemand";
  p.reuse_cache = true;
  p.overlap_fetch = true;
  return std::make_unique<FetchBasedEngine>(costs, p);
}

std::unique_ptr<Engine> make_deepspeed_mii(const model::OpCosts& costs) {
  FetchPolicy p;
  p.name = "DeepSpeed-MII";
  p.reuse_cache = false;
  p.overlap_fetch = false;
  p.ignore_initial_cache = true;
  return std::make_unique<FetchBasedEngine>(costs, p);
}

std::unique_ptr<Engine> make_mixtral_offloading(const model::OpCosts& costs) {
  FetchPolicy p;
  p.name = "Mixtral-Offloading";
  p.reuse_cache = true;
  p.overlap_fetch = true;
  p.prefetch_next_layer = true;
  p.prefetch_uses_prediction = false;
  p.weight_bytes_factor = 0.5;  // mixed quantization
  return std::make_unique<FetchBasedEngine>(costs, p);
}

std::unique_ptr<Engine> make_pregated_moe(const model::OpCosts& costs) {
  FetchPolicy p;
  p.name = "Pre-gated MoE";
  p.reuse_cache = true;
  p.overlap_fetch = true;
  p.prefetch_next_layer = true;
  p.prefetch_uses_prediction = true;
  return std::make_unique<FetchBasedEngine>(costs, p);
}

std::unique_ptr<Engine> make_edgemoe(const model::OpCosts& costs) {
  FetchPolicy p;
  p.name = "EdgeMoE";
  p.reuse_cache = true;
  p.overlap_fetch = true;
  p.prefetch_next_layer = true;
  p.prefetch_uses_prediction = true;
  // Expert-wise bit-width adaptation: ~4-bit experts plus per-group scales.
  p.weight_bytes_factor = 0.3;
  return std::make_unique<FetchBasedEngine>(costs, p);
}

std::unique_ptr<Engine> make_moe_infinity(const model::OpCosts& costs) {
  FetchPolicy p;
  p.name = "MoE-Infinity";
  p.reuse_cache = true;
  p.overlap_fetch = true;
  p.prefetch_next_layer = true;
  p.prefetch_uses_sequence_pattern = true;
  return std::make_unique<FetchBasedEngine>(costs, p);
}

}  // namespace daop::engines
