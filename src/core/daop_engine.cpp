#include "core/daop_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "cache/arbiter.hpp"
#include "common/check.hpp"
#include "core/allocation.hpp"
#include "core/decode_policy.hpp"
#include "engines/session.hpp"
#include "tensor/quant.hpp"

namespace daop::core {
namespace {

/// DAOP session: Algorithm-1 prefill swaps, predictive pre-calculation, and
/// graceful degradation as policy over the session base's mechanics.
class DaopSession final : public engines::SequenceSession {
 public:
  DaopSession(std::string engine_name, const model::OpCosts& costs,
              const DaopConfig& config, const data::SequenceTrace& trace,
              const engines::SessionEnv& env, sim::FaultModel* fault,
              obs::SpanTracer* tracer, obs::Profiler* profiler,
              const cache::Placement& initial)
      : SequenceSession(std::move(engine_name), costs, trace, env, fault,
                        tracer, profiler, initial),
        config_(config),
        L_(costs.config().n_layers),
        E_(costs.config().n_experts),
        mig_cost_(costs.expert_migration()),
        // Decode-phase CPU expert cost; quantized when the EdgeMoE-style
        // extension is enabled (the CPU path is memory-bound).
        cpu_expert_cost_(
            config.cpu_quant_bits > 0
                ? costs.expert_cpu_scaled(
                      QuantSpec{config.cpu_quant_bits, kCpuQuantGroup}
                          .bytes_per_weight() /
                      costs.config().bytes_per_param)
                : costs.expert_cpu()),
        reallocates_(!shared() && config.decode_realloc_interval > 0),
        swap_ready_(reallocates_ ? static_cast<std::size_t>(L_) * E_ : 0,
                    0.0),
        window_(swap_ready_.size(), 0.0),
        exec_on_gpu_(static_cast<std::size_t>(E_), 0),
        swap_scratch_(config.enable_seq_allocation || reallocates_ ? E_ : 0),
        policy_(config, L_, costs.config().top_k),
        precalc_arrival_(static_cast<std::size_t>(E_), 0.0),
        precalc_span_(static_cast<std::size_t>(E_), 0),
        stale_(static_cast<std::size_t>(E_), 0) {}

 private:
  std::size_t sidx(int l, int e) const {
    return static_cast<std::size_t>(l) * static_cast<std::size_t>(E_) +
           static_cast<std::size_t>(e);
  }

  /// One expert migration under the robustness policies (bounded retries,
  /// deadline budget). Returns the weight-arrival time, or a negative value
  /// when the migration was aborted (the caller must then leave the expert
  /// on the CPU).
  double migrate(double issue, const char* tag) {
    const MigrationOutcome m = migrate_with_retry(
        issue, mig_cost_, tag, tag, engines::SpanName{tag},
        config_.max_migration_retries, config_.migration_deadline_factor,
        /*abort_when_exhausted=*/true);
    return m.aborted ? -1.0 : m.done;
  }

  /// Applies one Algorithm-1 swap decision: refuses up front when the
  /// victim is pinned by a concurrent session, otherwise migrates the
  /// incoming expert (which may itself abort) and commits the swap.
  /// Returns the weight-arrival time, or < 0 when nothing was swapped.
  double swap_in(int l, const SwapDecision& s, double issue,
                 const char* tag) {
    if (arbiter() != nullptr &&
        arbiter()->pinned_by_other(l, s.expert_out, request_id())) {
      ++counters_.pin_refusals;
      return -1.0;
    }
    const double done = migrate(issue, tag);
    if (done < 0.0) {
      // Deadline-abort / retries exhausted: the expert stays on the CPU
      // and decode degrades gracefully instead of stalling.
      ++counters_.migration_aborts;
      return -1.0;
    }
    if (arbiter() != nullptr) {
      if (!arbiter()->try_swap(l, s.expert_in, s.expert_out, request_id())) {
        // Pinned between the pre-check and the commit (cannot happen in a
        // deterministic interleave, but the arbiter owns the rule).
        ++counters_.pin_refusals;
        return -1.0;
      }
      publish_weight_ready(l, s.expert_in, done);
    } else {
      placement().swap(l, s.expert_in, s.expert_out);
    }
    return done;
  }

  void run_prefill() override {
    // Prefill: in-place hybrid execution + Algorithm 1 swaps whose
    // migrations ride the PCIe link underneath the remaining compute.
    const int np = trace().prompt_len;
    double last_swap_end = 0.0;
    for (int l = 0; l < L_; ++l) {
      const double nonmoe_end = tl().schedule(
          sim::Res::GpuStream, ready_, costs_.nonmoe_gpu_prefill(np),
          "prefill non-MoE");
      const std::span<const double> counts =
          trace().counts(data::Phase::Prefill, l);

      // Execute this layer where experts currently live; swaps adjust the
      // cache for the decode phase and ride the PCIe link concurrently.
      for (int e = 0; e < E_; ++e) {
        exec_on_gpu_[static_cast<std::size_t>(e)] = placement().on_gpu(l, e);
      }

      if (config_.enable_seq_allocation) {
        for (const SwapDecision& s :
             sequence_specific_swaps(counts, placement(), l,
                                     config_.swap_in_out, swap_scratch_)) {
          const double done = swap_in(l, s, nonmoe_end, "swap-in expert");
          if (done < 0.0) continue;
          last_swap_end = std::max(last_swap_end, done);
          ++counters_.prefill_swaps;
        }
      }

      double layer_end = nonmoe_end;
      for (int e = 0; e < E_; ++e) {
        const int tok = static_cast<int>(counts[static_cast<std::size_t>(e)]);
        if (tok == 0) continue;
        if (exec_on_gpu_[static_cast<std::size_t>(e)] != 0) {
          ++counters_.cache_hits;
          layer_end = std::max(
              layer_end, gpu_expert(shared_weight_gate(l, e, nonmoe_end),
                                    costs_.expert_gpu_prefill(tok), l, e,
                                    "prefill expert"));
        } else {
          ++counters_.cache_misses;
          layer_end = std::max(
              layer_end,
              cpu_expert(nonmoe_end, tok, costs_.expert_cpu_prefill(tok), l,
                         e));
        }
      }
      ready_ = layer_end;
    }
    prefill_end_ = ready_;
    // The decode configuration requires all swapped-in weights to be
    // resident.
    ready_ = std::max(ready_, last_swap_end);
  }

  void run_decode_token(int t) override {
    const double nonmoe_cost = costs_.nonmoe_gpu(trace().prompt_len + t);
    for (int l = 0; l < L_; ++l) {
      const double nonmoe_end = tl().schedule(
          sim::Res::GpuStream, ready_, nonmoe_cost, "non-MoE");

      const data::TokenRouting tok = trace().at(data::Phase::Decode, l, t);
      if (tracing()) {
        tinstant(engines::tracks::kGate, "gate L" + std::to_string(l),
                 nonmoe_end);
      }
      const double gpu_cost = costs_.expert_gpu();
      // Stale-discard policy: a pre-calc result landing too late (e.g. the
      // CPU pool was stolen by a co-running app) is dropped in favour of
      // the best GPU-resident substitute with exact inputs.
      std::span<const char> stale;
      if (config_.stale_precalc_factor > 0.0) {
        for (const int e : policy_.plan().precalc) {
          const auto ei = static_cast<std::size_t>(e);
          stale_[ei] = precalc_arrival_[ei] >
                       nonmoe_end + config_.stale_precalc_factor * gpu_cost;
        }
        stale = stale_;
      }
      const LayerDecision d = policy_.plan_layer(placement(), l, tok.selected,
                                                 tok.scores, stale);
      counters_.skipped_experts += d.skipped;
      if (d.mispredicted) ++counters_.mispredictions;

      double layer_end = nonmoe_end;
      for (const ExpertStep& s : d.steps) {
        const int e = s.expert;
        const auto ei = static_cast<std::size_t>(e);
        if (reallocates_) window_[sidx(l, e)] += 1.0;
        ++(s.action == DecodeAction::GpuHit ? counters_.cache_hits
                                            : counters_.cache_misses);
        double end = nonmoe_end;
        switch (s.action) {
          case DecodeAction::GpuHit:
            pin_shared(l, e);
            // Experts swapped in mid-decode are usable once their weights
            // arrive.
            end = gpu_expert(
                shared_weight_gate(
                    l, e,
                    reallocates_ ? std::max(nonmoe_end, swap_ready_[sidx(l, e)])
                                 : nonmoe_end),
                gpu_cost, l, e, "GPU expert");
            break;
          case DecodeAction::PrecalcCommit:
            // Usually already arrived: just wait for the result.
            end = precalc_arrival_[ei];
            if (tracing()) {
              tflow(precalc_span_[ei],
                    tinstant(engines::tracks::kPrecalc,
                             "pre-calc commit E" + std::to_string(e), end),
                    "commit");
            }
            break;
          case DecodeAction::StaleDiscard:
            ++counters_.stale_precalcs;
            ++counters_.degradations;
            if (tracing()) {
              tflow(precalc_span_[ei],
                    tinstant(engines::tracks::kPrecalc,
                             "pre-calc discard E" + std::to_string(e),
                             nonmoe_end),
                    "stale");
            }
            end = gpu_expert(nonmoe_end, gpu_cost, l, s.exec, "stale fallback");
            break;
          case DecodeAction::Substitute:
            end = gpu_expert(nonmoe_end, gpu_cost, l, s.exec,
                             "substitute expert");
            break;
          case DecodeAction::Fallback:
            ++counters_.degradations;
            end = gpu_expert(nonmoe_end, gpu_cost, l, s.exec,
                             "fallback expert");
            break;
          case DecodeAction::Recompute:
          case DecodeAction::InPlaceCpu:
            end = cpu_expert(nonmoe_end, 1, cpu_expert_cost_, l, e);
            break;
        }
        layer_end = std::max(layer_end, end);
      }

      // Plan pre-calculation for layer l+1 from this layer's hidden states
      // (available at nonmoe_end).
      const int nl = l + 1;
      if (policy_.predicts(nl)) {
        const data::TokenRouting ntok =
            trace().at(data::Phase::Decode, nl, t);
        if (!ntok.pred_scores.empty()) {
          ++counters_.predictions;
          std::uint64_t pred_span = 0;
          if (tracing()) {
            pred_span = tinstant(engines::tracks::kPrediction,
                                 "predict L" + std::to_string(nl), nonmoe_end);
          }
          const NextLayerPlan& plan = policy_.plan_next(
              placement(), nl, ntok.predicted, ntok.pred_scores);
          if (plan.substitute >= 0) ++counters_.degradations;
          for (const int e : plan.precalc) {
            const engines::CpuExpertTimes ct = engines::cpu_expert_roundtrip(
                tl(), costs_, nonmoe_end, 1, cpu_expert_cost_, counters_,
                {"precalc acts", "precalc CPU expert", "precalc result"});
            note_expert_exec(nl, e, /*on_gpu=*/false, ct.cpu_start,
                             ct.cpu_end);
            const auto ei = static_cast<std::size_t>(e);
            precalc_arrival_[ei] = ct.result_arrival;
            if (tracing()) {
              precalc_span_[ei] =
                  tspan(engines::tracks::kPrecalc,
                        "pre-calc L" + std::to_string(nl) + " E" +
                            std::to_string(e),
                        ct.acts_out_start, ct.result_arrival);
              tflow(pred_span, precalc_span_[ei], "pre-calc");
            }
          }
        }
      }

      ready_ = layer_end;
    }
  }

  void post_token(int t) override {
    // Decode re-allocation (extension): every N tokens, re-run Algorithm 1
    // over the trailing window so the cache follows within-sequence drift.
    // On a SHARED placement the cache is prefill-frozen (paper §IV-A applies
    // per-sequence allocation at prefill only): concurrent sessions have
    // conflicting trailing windows, and letting each re-steer the shared
    // cache every interval thrashes the very experts its peers pinned.
    if (!reallocates_ || (t + 1) % config_.decode_realloc_interval != 0) {
      return;
    }
    for (int l = 0; l < L_; ++l) {
      const std::span<double> window(window_.data() + sidx(l, 0),
                                     static_cast<std::size_t>(E_));
      for (const SwapDecision& s :
           sequence_specific_swaps(window, placement(), l, config_.swap_in_out,
                                   swap_scratch_)) {
        const double done = swap_in(l, s, ready_, "decode swap-in");
        if (done < 0.0) continue;
        swap_ready_[sidx(l, s.expert_in)] = done;
        ++counters_.decode_swaps;
      }
      std::fill(window.begin(), window.end(), 0.0);
    }
  }

  // ---- Warm-restart checkpointing: everything run_decode_token/post_token
  // consult beyond the base class. That is nothing unless decode
  // re-allocation can run, and then the swap-arrival gates and the trailing
  // activation window. The policy's pre-calc plan never outlives the token
  // that made it (the last layer plans nothing), so it is not state.
  void save_policy_state(recovery::ByteWriter& w) const override {
    for (const double v : swap_ready_) w.f64(v);
    for (const double v : window_) w.f64(v);
  }

  std::size_t policy_state_bytes() const override {
    return 8 * (swap_ready_.size() + window_.size());
  }

  bool load_policy_state(recovery::ByteReader& r, double shift) override {
    std::vector<double> gates(swap_ready_.size());
    std::vector<double> window(window_.size());
    for (double& v : gates) v = r.f64();
    for (double& v : window) v = r.f64();
    const auto bad = [](double v) { return !(v >= 0.0 && std::isfinite(v)); };
    if (!r.ok() || r.remaining() != 0 ||
        std::any_of(gates.begin(), gates.end(), bad) ||
        std::any_of(window.begin(), window.end(), bad)) {
      return false;
    }
    for (double& v : gates) {
      if (v != 0.0) v += shift;  // 0.0 is the "never swapped in" sentinel
    }
    swap_ready_ = std::move(gates);
    window_ = std::move(window);
    return true;
  }

  /// By value: open_session may hand each session a per-session variant of
  /// the engine config (degradation directives disable pre-calc /
  /// migrations for one session without touching the engine).
  const DaopConfig config_;
  const int L_;
  const int E_;
  const double mig_cost_;
  const double cpu_expert_cost_;
  /// Decode re-allocation (the extension) can run: a private session with
  /// decode_realloc_interval > 0. Otherwise the two vectors below are empty.
  const bool reallocates_;
  /// Per-(layer, expert) weight-arrival gates for experts swapped in
  /// mid-decode.
  std::vector<double> swap_ready_;
  /// Per-(layer, expert) trailing-window activation counts.
  std::vector<double> window_;

  /// Per-layer prefill scratch: where each expert lived before the layer's
  /// swaps (it executes there).
  std::vector<char> exec_on_gpu_;
  /// Algorithm 1 scratch (prefill and decode re-allocation); empty when
  /// neither runs.
  SwapScratch swap_scratch_;

  // ---- Per-layer scratch for run_decode_token (not policy state).
  DecodePolicy policy_;
  /// Result-arrival time and tracing span of each pre-calculated expert of
  /// the pending plan (valid for the experts in policy_.plan().precalc).
  std::vector<double> precalc_arrival_;
  std::vector<std::uint64_t> precalc_span_;
  /// Stale mask handed to the policy, filled for the same experts.
  std::vector<char> stale_;
};

}  // namespace

DaopEngine::DaopEngine(const model::OpCosts& costs, DaopConfig config)
    : Engine(costs), config_(config) {
  validate_config(config_);
}

std::string DaopEngine::name() const { return engine_name(config_); }

std::unique_ptr<engines::SequenceSession> DaopEngine::do_open_session(
    const data::SequenceTrace& trace, const cache::Placement& initial,
    const engines::SessionEnv& env) {
  const model::ModelConfig& cfg = costs_.config();
  DAOP_CHECK_EQ(initial.n_layers(), cfg.n_layers);
  DAOP_CHECK_EQ(initial.n_experts(), cfg.n_experts);
  // Degradation directives (overload plane) narrow THIS session's policy;
  // the engine config — and the engine's reported name — are unchanged.
  DaopConfig session_cfg = config_;
  if (env.degrade_no_speculation) session_cfg.enable_precalc = false;
  if (env.degrade_no_migrations) {
    session_cfg.enable_seq_allocation = false;
    session_cfg.decode_realloc_interval = 0;
  }
  return std::make_unique<DaopSession>(name(), costs_, session_cfg, trace,
                                       env, fault_model_, tracer_, profiler_,
                                       initial);
}

std::unique_ptr<engines::Engine> make_daop(const model::OpCosts& costs,
                                           DaopConfig config) {
  return std::make_unique<DaopEngine>(costs, config);
}

std::unique_ptr<engines::Engine> make_fiddler(const model::OpCosts& costs) {
  return make_daop(costs, fiddler_config());
}

}  // namespace daop::core
