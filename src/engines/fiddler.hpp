// Fiddler baseline (Kamahori et al.): when a selected expert is not GPU-
// resident, execute it on the CPU instead of migrating weights — activations
// are ~4 orders of magnitude smaller than expert weights. Within a layer,
// CPU experts run concurrently with GPU experts, but there is no cross-layer
// lookahead, no prediction, and the calibrated placement is static.
#pragma once

#include "engines/engine.hpp"

namespace daop::engines {

class FiddlerEngine : public Engine {
 public:
  explicit FiddlerEngine(const model::OpCosts& costs) : Engine(costs) {}

  std::string name() const override { return "Fiddler"; }

 protected:
  std::unique_ptr<SequenceSession> do_open_session(
      const data::SequenceTrace& trace, const cache::Placement& initial,
      const SessionEnv& env) override;
};

std::unique_ptr<Engine> make_fiddler(const model::OpCosts& costs);

}  // namespace daop::engines
