// Extension bench: EdgeMoE-style quantized CPU expert execution inside
// DAOP (DaopConfig::cpu_quant_bits). The CPU path is memory-bound, so
// quantization buys decode speed; this bench quantifies the speed/fidelity
// trade-off across bit-widths on both planes.
#include <cstdio>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "eval/accuracy.hpp"
#include "eval/speed.hpp"
#include "model/config.hpp"
#include "tensor/quant.hpp"

int main() {
  using namespace daop;

  const std::vector<int> bit_options = {0, 8, 4, 2};

  std::printf(
      "DAOP + quantized CPU experts (extension) — speed on simulated\n"
      "Mixtral/A6000 @ECR 46.9%%, fidelity on the functional tiny model\n"
      "@ECR 37.5%% (teacher-forced agreement with the official model)\n\n");

  // Functional fidelity.
  const model::FunctionalModel fm(model::tiny_mixtral(), 0xDA0Full);
  const auto calib = eval::calibrate_functional_counts(
      fm, data::sharegpt_calibration(), 8, 24, 24, 0x5eedULL);

  TextTable t({"CPU weights", "tokens/s (sim)", "vs fp16 CPU", "agreement (%)",
               "quantized execs"});
  double fp_tps = 0.0;
  for (int bits : bit_options) {
    core::DaopConfig dc;
    dc.cpu_quant_bits = bits;

    eval::SpeedEvalOptions sopt;
    sopt.prompt_len = 256;
    sopt.gen_len = 256;
    sopt.ecr = 0.469;
    sopt.daop_config = dc;
    const auto sr = eval::run_speed_eval(eval::EngineKind::Daop,
                                         model::mixtral_8x7b(),
                                         sim::a6000_i9_platform(),
                                         data::c4(), sopt);
    if (bits == 0) fp_tps = sr.tokens_per_s;

    eval::AccuracyEvalOptions aopt;
    aopt.n_episodes = 16;
    aopt.prompt_len = 24;
    aopt.gen_len = 32;
    aopt.calib_counts = &calib;
    const auto ar =
        eval::evaluate_daop_accuracy(fm, data::c4(), dc, 0.375, aopt);

    t.add_row({bits == 0 ? "fp (off)" : ("int" + std::to_string(bits)),
               fmt_f(sr.tokens_per_s, 2),
               "+" + fmt_pct(sr.tokens_per_s / fp_tps - 1.0),
               fmt_f(ar.token_agreement * 100.0, 2),
               std::to_string(ar.stats.quantized_execs)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "shape: int8 is nearly free fidelity-wise and buys a solid\n"
      "decode speedup; int4 costs a little fidelity and int2 a lot —\n"
      "matching EdgeMoE's expert-wise bit-width adaptation argument.\n");
  return 0;
}
