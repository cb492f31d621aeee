#include "core/daop_engine.hpp"

#include <algorithm>
#include <cstdint>

#include "cache/arbiter.hpp"
#include "common/check.hpp"
#include "core/allocation.hpp"
#include "engines/session.hpp"
#include "tensor/ops.hpp"
#include "tensor/quant.hpp"

namespace daop::core {
namespace {

/// Pre-calculation plan produced at layer i for layer i+1.
struct NextLayerPlan {
  bool active = false;
  /// Whether this plan has already been charged a misprediction (the counter
  /// means "the predicted set missed a used expert", so it is charged at
  /// most once per plan even when several selected experts were missed).
  bool mispredicted = false;
  /// Result-arrival time (on GPU) per pre-calculated CPU expert; < 0 when
  /// the expert was not pre-calculated.
  std::vector<double> precalc_arrival;
  /// Graceful-degradation substitute per dropped CPU expert; -1 when none.
  std::vector<int> substitute;
  /// Tracing: span id of the prediction instant and of each expert's
  /// pre-calculation span (0 when tracing is off / not pre-calculated).
  std::uint64_t pred_span = 0;
  std::vector<std::uint64_t> precalc_span;

  explicit NextLayerPlan(int n_experts)
      : precalc_arrival(static_cast<std::size_t>(n_experts), -1.0),
        substitute(static_cast<std::size_t>(n_experts), -1),
        precalc_span(static_cast<std::size_t>(n_experts), 0) {}

  /// Back to the freshly constructed state, keeping the heap blocks.
  void reset() {
    active = false;
    mispredicted = false;
    pred_span = 0;
    std::fill(precalc_arrival.begin(), precalc_arrival.end(), -1.0);
    std::fill(substitute.begin(), substitute.end(), -1);
    std::fill(precalc_span.begin(), precalc_span.end(), 0);
  }
};

/// Best GPU-resident expert by `scores`, excluding `exclude`; -1 if none.
int best_gpu_expert(const cache::Placement& placement, int layer,
                    std::span<const float> scores,
                    const std::vector<int>& exclude) {
  int best = -1;
  float best_score = 0.0F;
  for (int e = 0; e < placement.n_experts(); ++e) {
    if (!placement.on_gpu(layer, e)) continue;
    if (std::find(exclude.begin(), exclude.end(), e) != exclude.end()) continue;
    const float s = scores[static_cast<std::size_t>(e)];
    if (best < 0 || s > best_score) {
      best = e;
      best_score = s;
    }
  }
  return best;
}

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
                        tracer, profiler),
        config_(config),
        placement_(initial),
        L_(costs.config().n_layers),
        E_(costs.config().n_experts),
        mig_cost_(costs.expert_migration()),
        // Decode-phase CPU expert cost; quantized when the EdgeMoE-style
        // extension is enabled (the CPU path is memory-bound).
        cpu_expert_cost_(
            config.cpu_quant_bits > 0
                ? costs.expert_cpu_scaled(
                      QuantSpec{config.cpu_quant_bits, config.cpu_quant_group}
                          .bytes_per_weight() /
                      costs.config().bytes_per_param)
                : costs.expert_cpu()),
        swap_ready_(static_cast<std::size_t>(L_) * E_, 0.0),
        window_(static_cast<std::size_t>(L_),
                std::vector<double>(static_cast<std::size_t>(E_), 0.0)),
        exec_on_gpu_(static_cast<std::size_t>(E_), 0),
        plan_(E_) {
    // Sized for the worst case up front: exclude holds the selected experts
    // plus at most one fallback per selected expert.
    const auto k = static_cast<std::size_t>(costs.config().top_k);
    selected_.reserve(k);
    exclude_.reserve(2 * k);
    predicted_.reserve(k);
    pred_cpu_.reserve(k);
    weights_.reserve(k);
  }

 private:
  /// The shared placement under an arbiter, a private copy otherwise.
  cache::Placement& placement() {
    return arbiter() != nullptr ? arbiter()->placement() : placement_;
  }

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
      apply_swaps(placement(), l, {s});
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
        const auto swaps = sequence_specific_swaps(counts, placement(), l,
                                                   config_.swap_in_out);
        for (const SwapDecision& s : swaps) {
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
          ++counters_.gpu_expert_execs;
          const double eready = shared_weight_gate(l, e, nonmoe_end);
          const double exec_end =
              tl().schedule(sim::Res::GpuStream, eready,
                            costs_.expert_gpu_prefill(tok), "prefill expert");
          if (tracing()) {
            tspan(engines::tracks::kExpertGpu, "prefill expert",
                  tl().last_start(), exec_end);
          }
          note_expert_exec(l, e, /*on_gpu=*/true, tl().last_start(), exec_end);
          layer_end = std::max(layer_end, exec_end);
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
    const model::ModelConfig& cfg = costs_.config();
    const int ctx = trace().prompt_len + t;
    // Session-owned scratch, reset rather than reallocated: a decode step
    // makes no heap allocation (tests/engines/session_alloc_test.cpp).
    NextLayerPlan& plan = plan_;  // produced at layer l-1 for layer l
    plan.reset();
    std::vector<int>& selected = selected_;
    std::vector<int>& exclude = exclude_;
    for (int l = 0; l < L_; ++l) {
      const double nonmoe_end = tl().schedule(
          sim::Res::GpuStream, ready_, costs_.nonmoe_gpu(ctx), "non-MoE");

      const data::TokenRouting tok = trace().at(data::Phase::Decode, l, t);
      selected.assign(tok.selected.begin(), tok.selected.end());
      if (tracing()) {
        tinstant(engines::tracks::kGate, "gate L" + std::to_string(l),
                 nonmoe_end);
      }
      // Adaptive expert skipping (extension): confident tokens keep only
      // their top-1 expert.
      if (config_.skip_top1_margin > 0.0 && selected.size() >= 2) {
        weights_.resize(selected.size());
        softmax_subset(tok.scores, selected, weights_);
        if (weights_[0] >= config_.skip_top1_margin) {
          counters_.skipped_experts +=
              static_cast<long long>(selected.size()) - 1;
          selected.resize(1);
        }
      }

      double layer_end = nonmoe_end;
      // Fallbacks must be fresh experts.
      exclude.assign(selected.begin(), selected.end());
      for (int e : selected) {
        window_[static_cast<std::size_t>(l)][static_cast<std::size_t>(e)] +=
            1.0;
        if (placement().on_gpu(l, e)) {
          ++counters_.cache_hits;
          ++counters_.gpu_expert_execs;
          pin_shared(l, e);
          // Experts swapped in mid-decode are usable once their weights
          // arrive (no-op when decode re-allocation is off).
          const double eready = shared_weight_gate(
              l, e, std::max(nonmoe_end, swap_ready_[sidx(l, e)]));
          const double exec_end = tl().schedule(sim::Res::GpuStream, eready,
                                                costs_.expert_gpu(),
                                                "GPU expert");
          if (tracing()) {
            tspan(engines::tracks::kExpertGpu, "GPU expert",
                  tl().last_start(), exec_end);
          }
          note_expert_exec(l, e, /*on_gpu=*/true, tl().last_start(), exec_end);
          layer_end = std::max(layer_end, exec_end);
          continue;
        }
        ++counters_.cache_misses;
        const auto ei = static_cast<std::size_t>(e);
        if (plan.active && plan.precalc_arrival[ei] >= 0.0) {
          // Pre-calculated on CPU from the previous layer's hidden states;
          // normally just wait for the result (usually already arrived).
          // Under the stale-discard policy a result landing too late (e.g.
          // the CPU pool was stolen by a co-running app) is dropped in
          // favour of the best GPU-resident substitute with exact inputs.
          const double arrival = plan.precalc_arrival[ei];
          int fb = -1;
          if (config_.stale_precalc_factor > 0.0 &&
              arrival > nonmoe_end + config_.stale_precalc_factor *
                                         costs_.expert_gpu()) {
            fb = best_gpu_expert(placement(), l, tok.scores, exclude);
          }
          if (fb >= 0) {
            ++counters_.stale_precalcs;
            ++counters_.degradations;
            ++counters_.gpu_expert_execs;
            exclude.push_back(fb);
            if (tracing()) {
              const std::uint64_t d = tinstant(
                  engines::tracks::kPrecalc,
                  "pre-calc discard E" + std::to_string(e), nonmoe_end);
              tflow(plan.precalc_span[ei], d, "stale");
            }
            const double exec_end =
                tl().schedule(sim::Res::GpuStream, nonmoe_end,
                              costs_.expert_gpu(), "stale fallback");
            if (tracing()) {
              tspan(engines::tracks::kExpertGpu, "stale fallback",
                    tl().last_start(), exec_end);
            }
            note_expert_exec(l, fb, /*on_gpu=*/true, tl().last_start(),
                             exec_end);
            layer_end = std::max(layer_end, exec_end);
          } else {
            if (tracing()) {
              const std::uint64_t c = tinstant(
                  engines::tracks::kPrecalc,
                  "pre-calc commit E" + std::to_string(e), arrival);
              tflow(plan.precalc_span[ei], c, "commit");
            }
            layer_end = std::max(layer_end, arrival);
          }
        } else if (plan.active && plan.substitute[ei] >= 0) {
          // Graceful degradation planned at prediction time: the GPU
          // substitute executes with exact current inputs.
          ++counters_.gpu_expert_execs;
          exclude.push_back(plan.substitute[ei]);
          const double exec_end =
              tl().schedule(sim::Res::GpuStream, nonmoe_end,
                            costs_.expert_gpu(), "substitute expert");
          if (tracing()) {
            tspan(engines::tracks::kExpertGpu, "substitute expert",
                  tl().last_start(), exec_end);
          }
          note_expert_exec(l, plan.substitute[ei], /*on_gpu=*/true,
                           tl().last_start(), exec_end);
          layer_end = std::max(layer_end, exec_end);
        } else if (plan.active) {
          // Misprediction: a selected CPU expert was not pre-calculated.
          // Charged once per plan — the counter's unit is "predicted set
          // missed a used expert", not "missed expert", so a top-k gate
          // missing both experts is still one misprediction.
          if (!plan.mispredicted) {
            plan.mispredicted = true;
            ++counters_.mispredictions;
          }
          int fb = -1;
          if (config_.mispredict_policy ==
              MispredictPolicy::GracefulFallback) {
            fb = best_gpu_expert(placement(), l, tok.scores, exclude);
          }
          if (fb >= 0) {
            ++counters_.degradations;
            ++counters_.gpu_expert_execs;
            exclude.push_back(fb);
            const double exec_end =
                tl().schedule(sim::Res::GpuStream, nonmoe_end,
                              costs_.expert_gpu(), "fallback expert");
            if (tracing()) {
              tspan(engines::tracks::kExpertGpu, "fallback expert",
                    tl().last_start(), exec_end);
            }
            note_expert_exec(l, fb, /*on_gpu=*/true, tl().last_start(),
                             exec_end);
            layer_end = std::max(layer_end, exec_end);
          } else {
            layer_end = std::max(
                layer_end, cpu_expert(nonmoe_end, 1, cpu_expert_cost_, l, e));
          }
        } else {
          // Early layers (or precalc disabled): in-place hybrid execution.
          layer_end = std::max(
              layer_end, cpu_expert(nonmoe_end, 1, cpu_expert_cost_, l, e));
        }
      }

      // ---- Plan pre-calculation for layer l+1 using this layer's hidden
      // states (available at nonmoe_end). ----
      plan.reset();
      const int nl = l + 1;
      if (config_.enable_precalc && nl < L_ &&
          nl >= config_.min_predict_layer) {
        const data::TokenRouting ntok =
            trace().at(data::Phase::Decode, nl, t);
        if (!ntok.pred_scores.empty()) {
          plan.active = true;
          ++counters_.predictions;
          if (tracing()) {
            plan.pred_span =
                tinstant(engines::tracks::kPrediction,
                         "predict L" + std::to_string(nl), nonmoe_end);
          }
          std::vector<int>& predicted = predicted_;
          predicted.assign(ntok.predicted.begin(), ntok.predicted.end());
          // Under adaptive skipping, confident predictions only need their
          // top-1 expert pre-calculated.
          if (config_.skip_top1_margin > 0.0 && predicted.size() >= 2) {
            weights_.resize(predicted.size());
            softmax_subset(ntok.pred_scores, predicted, weights_);
            if (weights_[0] >= config_.skip_top1_margin) predicted.resize(1);
          }

          std::vector<int>& pred_cpu = pred_cpu_;
          pred_cpu.clear();
          for (int e : predicted) {
            if (!placement().on_gpu(nl, e)) pred_cpu.push_back(e);
          }

          // Graceful degradation: if every predicted expert sits on the
          // CPU, replace the lowest-scored one with the best GPU-resident
          // expert.
          if (config_.enable_degradation &&
              static_cast<int>(pred_cpu.size()) == cfg.top_k &&
              cfg.top_k >= 2) {
            int drop = pred_cpu.back();  // ids are score-descending
            const int sub = best_gpu_expert(placement(), nl,
                                            ntok.pred_scores, predicted);
            if (sub >= 0) {
              plan.substitute[static_cast<std::size_t>(drop)] = sub;
              pred_cpu.pop_back();
              ++counters_.degradations;
            }
          }

          // Pre-calculate the remaining predicted CPU experts from this
          // layer's non-MoE hidden states.
          for (int e : pred_cpu) {
            const engines::CpuExpertTimes ct = engines::cpu_expert_roundtrip(
                tl(), costs_, nonmoe_end, 1, cpu_expert_cost_, counters_,
                {"precalc acts", "precalc CPU expert", "precalc result"});
            note_expert_exec(nl, e, /*on_gpu=*/false, ct.cpu_start,
                             ct.cpu_end);
            const double arrival = ct.result_arrival;
            plan.precalc_arrival[static_cast<std::size_t>(e)] = arrival;
            if (tracing()) {
              const std::uint64_t ps =
                  tspan(engines::tracks::kPrecalc,
                        "pre-calc L" + std::to_string(nl) + " E" +
                            std::to_string(e),
                        ct.acts_out_start, arrival);
              plan.precalc_span[static_cast<std::size_t>(e)] = ps;
              tflow(plan.pred_span, ps, "pre-calc");
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
    if (shared() || config_.decode_realloc_interval <= 0 ||
        (t + 1) % config_.decode_realloc_interval != 0) {
      return;
    }
    for (int l = 0; l < L_; ++l) {
      const auto swaps = sequence_specific_swaps(
          window_[static_cast<std::size_t>(l)], placement(), l,
          config_.swap_in_out);
      for (const SwapDecision& s : swaps) {
        const double done = swap_in(l, s, ready_, "decode swap-in");
        if (done < 0.0) continue;
        swap_ready_[sidx(l, s.expert_in)] = done;
        ++counters_.decode_swaps;
      }
      std::fill(window_[static_cast<std::size_t>(l)].begin(),
                window_[static_cast<std::size_t>(l)].end(), 0.0);
    }
  }

  // ---- Warm-restart checkpointing: everything run_decode_token/post_token
  // consult beyond the base class — the swap-arrival gates and the trailing
  // activation window. The NextLayerPlan scratch is reset at the start of
  // every token and never carries across a decode_step boundary, so it is
  // not state.
  bool save_policy_state(recovery::ByteWriter& w) const override {
    w.i32(L_);
    w.i32(E_);
    for (const double v : swap_ready_) w.f64(v);
    for (const auto& row : window_) {
      for (const double v : row) w.f64(v);
    }
    return true;
  }

  bool load_policy_state(recovery::ByteReader& r, double shift) override {
    const int L = r.i32();
    const int E = r.i32();
    if (!r.ok() || L != L_ || E != E_) return false;
    std::vector<double> swap_ready(swap_ready_.size());
    for (double& v : swap_ready) {
      v = r.f64();
      if (v != 0.0) v += shift;  // 0.0 is the "never swapped in" sentinel
    }
    std::vector<std::vector<double>> window = window_;
    for (auto& row : window) {
      for (double& v : row) v = r.f64();
    }
    if (!r.ok()) return false;
    swap_ready_ = std::move(swap_ready);
    window_ = std::move(window);
    return true;
  }

  const cache::Placement* effective_placement() const override {
    return arbiter() != nullptr ? &arbiter()->placement() : &placement_;
  }

  cache::Placement* private_placement() override { return &placement_; }

  /// By value: open_session may hand each session a per-session variant of
  /// the engine config (degradation directives disable pre-calc /
  /// migrations for one session without touching the engine).
  const DaopConfig config_;
  cache::Placement placement_;
  const int L_;
  const int E_;
  const double mig_cost_;
  const double cpu_expert_cost_;
  /// Per-expert weight-arrival gates for experts swapped in mid-decode
  /// (decode re-allocation extension state).
  std::vector<double> swap_ready_;
  /// Trailing-window activation counts for decode re-allocation.
  std::vector<std::vector<double>> window_;

  /// Per-layer prefill scratch: where each expert lived before the layer's
  /// swaps (it executes there).
  std::vector<char> exec_on_gpu_;

  // ---- Per-layer scratch for run_decode_token (not policy state).
  NextLayerPlan plan_;
  std::vector<int> selected_;
  std::vector<int> exclude_;
  std::vector<int> predicted_;
  std::vector<int> pred_cpu_;
  std::vector<float> weights_;
};

}  // namespace

DaopEngine::DaopEngine(const model::OpCosts& costs, DaopConfig config)
    : Engine(costs), config_(config) {
  validate_config(config_);
}

std::string DaopEngine::name() const {
  if (config_.enable_seq_allocation && config_.enable_precalc &&
      config_.enable_degradation) {
    return "DAOP";
  }
  std::string n = "DAOP[";
  n += config_.enable_seq_allocation ? "alloc," : "-alloc,";
  n += config_.enable_precalc ? "precalc," : "-precalc,";
  n += config_.enable_degradation ? "degrade]" : "-degrade]";
  return n;
}

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

}  // namespace daop::core
