// DAOP inference engine — performance-simulation plane (§IV).
//
// Prefill: Fiddler-style in-place hybrid execution, plus Algorithm 1
// sequence-specific swaps whose migrations ride the PCIe link underneath the
// remaining prefill compute (decode starts once both finish).
//
// Decode: per layer i >= min_predict_layer-1, the gate of layer i+1 is
// applied to layer i's non-MoE hidden states; predicted CPU-resident experts
// are pre-calculated on the CPU (activations ship D2H, result ships back
// H2D) while the GPU proceeds — CPU and GPU execute in parallel. Graceful
// degradation replaces the lower-scored of two predicted CPU experts with
// the best GPU-resident expert. Mispredicted CPU experts follow
// DaopConfig::mispredict_policy.
#pragma once

#include "core/daop_config.hpp"
#include "engines/engine.hpp"

namespace daop::core {

class DaopEngine : public engines::Engine {
 public:
  explicit DaopEngine(const model::OpCosts& costs, DaopConfig config = {});

  std::string name() const override;

 protected:
  std::unique_ptr<engines::SequenceSession> do_open_session(
      const data::SequenceTrace& trace, const cache::Placement& initial,
      const engines::SessionEnv& env) override;

 private:
  DaopConfig config_;
};

std::unique_ptr<engines::Engine> make_daop(const model::OpCosts& costs,
                                           DaopConfig config = {});

/// The Fiddler baseline: make_daop(costs, fiddler_config()). With the three
/// mechanisms off, selected experts execute where they live (CPU-resident
/// ones on the CPU, concurrently with the GPU's) and nothing migrates.
std::unique_ptr<engines::Engine> make_fiddler(const model::OpCosts& costs);

}  // namespace daop::core
