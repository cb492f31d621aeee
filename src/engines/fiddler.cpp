#include "engines/fiddler.hpp"

#include <algorithm>

#include "cache/arbiter.hpp"
#include "common/check.hpp"
#include "engines/session.hpp"

namespace daop::engines {
namespace {

/// Fiddler is pure policy-free hybrid execution: the calibrated placement is
/// static, selected experts run wherever they live. All mechanics come from
/// the session base.
class FiddlerSession final : public SequenceSession {
 public:
  FiddlerSession(const model::OpCosts& costs, const data::SequenceTrace& trace,
                 const SessionEnv& env, sim::FaultModel* fault,
                 obs::SpanTracer* tracer, obs::Profiler* profiler,
                 const cache::Placement& initial)
      : SequenceSession("Fiddler", costs, trace, env, fault, tracer, profiler),
        placement_(initial) {}

 private:
  /// The shared placement under an arbiter, a private copy otherwise.
  const cache::Placement& placement() const {
    return arbiter() != nullptr ? arbiter()->placement() : placement_;
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
      double layer_end = nonmoe_end;
      for (int e = 0; e < cfg.n_experts; ++e) {
        const int tok = static_cast<int>(counts[static_cast<std::size_t>(e)]);
        if (tok == 0) continue;
        if (placement().on_gpu(l, e)) {
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
  }

  void run_decode_token(int t) override {
    const model::ModelConfig& cfg = costs_.config();
    const double nonmoe_cost = costs_.nonmoe_gpu(trace().prompt_len + t);
    for (int l = 0; l < cfg.n_layers; ++l) {
      const double nonmoe_end = tl().schedule(
          sim::Res::GpuStream, ready_, nonmoe_cost, "non-MoE");
      if (tracing()) {
        tinstant(tracks::kGate, "gate L" + std::to_string(l), nonmoe_end);
      }
      double layer_end = nonmoe_end;
      for (const int e : trace().selected(data::Phase::Decode, l, t)) {
        if (placement().on_gpu(l, e)) {
          ++counters_.cache_hits;
          pin_shared(l, e);
          layer_end = std::max(
              layer_end, gpu_expert(shared_weight_gate(l, e, nonmoe_end),
                                    costs_.expert_gpu(), l, e, "GPU expert"));
        } else {
          ++counters_.cache_misses;
          layer_end = std::max(
              layer_end, cpu_expert(nonmoe_end, 1, costs_.expert_cpu(), l, e));
        }
      }
      ready_ = layer_end;
    }
  }

  // Fiddler has no policy state beyond its placement, which the session
  // base snapshots/restores; the hooks just opt in to checkpointing.
  bool save_policy_state(recovery::ByteWriter& w) const override {
    (void)w;
    return true;
  }
  bool load_policy_state(recovery::ByteReader& r, double shift) override {
    (void)r;
    (void)shift;
    return true;
  }
  const cache::Placement* effective_placement() const override {
    return &placement();
  }
  cache::Placement* private_placement() override { return &placement_; }

  cache::Placement placement_;
};

}  // namespace

std::unique_ptr<SequenceSession> FiddlerEngine::do_open_session(
    const data::SequenceTrace& trace, const cache::Placement& initial,
    const SessionEnv& env) {
  DAOP_CHECK_EQ(initial.n_layers(), costs_.config().n_layers);
  return std::make_unique<FiddlerSession>(costs_, trace, env, fault_model_,
                                          tracer_, profiler_, initial);
}

std::unique_ptr<Engine> make_fiddler(const model::OpCosts& costs) {
  return std::make_unique<FiddlerEngine>(costs);
}

}  // namespace daop::engines
