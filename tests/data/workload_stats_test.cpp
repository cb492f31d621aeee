// Statistical contracts of the workload presets: these pin the calibration
// against the paper's published routing statistics, so a preset change that
// silently breaks an observation fails here rather than in a bench.
#include <gtest/gtest.h>

#include "data/trace_generator.hpp"
#include "data/workload.hpp"
#include "eval/similarity.hpp"
#include "model/config.hpp"

namespace daop::data {

// Print a spec by name: gtest's default byte dump includes the name string's
// heap pointer, which puts a per-build address into the registered test name.
void PrintTo(const WorkloadSpec& spec, std::ostream* os) { *os << spec.name; }

namespace {

constexpr int kSeqs = 48;  // enough for +-1.5% precision at test speed

model::ModelConfig cfg() { return model::mixtral_8x7b(); }

TraceGenerator gen_for(const WorkloadSpec& spec, std::uint64_t seed = 99) {
  const auto c = cfg();
  return TraceGenerator(spec, c.n_layers, c.n_experts, c.top_k, seed);
}

// Observation ② / Table II: prefill-decode similarity ~90% (87..94 here).
class SimilarityBand : public ::testing::TestWithParam<WorkloadSpec> {};

TEST_P(SimilarityBand, Near90Percent) {
  const double sim =
      eval::avg_prefill_decode_similarity(gen_for(GetParam()), kSeqs);
  EXPECT_GT(sim, 0.87) << GetParam().name;
  EXPECT_LT(sim, 0.95) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, SimilarityBand,
    ::testing::Values(c4(), math_ds(), gsm8k(), triviaqa(), alpaca()),
    [](const ::testing::TestParamInfo<WorkloadSpec>& info) {
      std::string n = info.param.name;
      for (auto& ch : n) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return n;
    });

// Observation ③ / Fig. 5: average one-layer-ahead prediction accuracy ~84%,
// with early layers notably weaker.
TEST(WorkloadStats, PredictionAccuracyMatchesFig5) {
  for (const auto& spec : {alpaca(), math_ds(), c4()}) {
    const auto acc = eval::prediction_accuracy_by_layer(gen_for(spec), kSeqs);
    const double avg = eval::avg_prediction_accuracy(gen_for(spec), kSeqs);
    EXPECT_GT(avg, 0.78) << spec.name;
    EXPECT_LT(avg, 0.90) << spec.name;
    // Early layers below the stable region (paper starts predicting at 4).
    const double early = (acc[1] + acc[2] + acc[3]) / 3.0;
    const double late = (acc[10] + acc[20] + acc[30]) / 3.0;
    EXPECT_LT(early + 0.05, late) << spec.name;
    EXPECT_GT(late, 0.80) << spec.name;
  }
}

// Observation ① / Fig. 4: dataset-level marginals near uniform.
TEST(WorkloadStats, MarginalActivationNearUniform) {
  const auto marg = eval::marginal_activation(gen_for(c4()), kSeqs);
  const double uniform = 1.0 / cfg().n_experts;
  for (const auto& layer : marg) {
    for (double p : layer) {
      EXPECT_GT(p, uniform * 0.55);
      EXPECT_LT(p, uniform * 1.6);
    }
  }
}

// Observation ①: individual sequences ARE skewed even though the dataset
// marginal is flat.
TEST(WorkloadStats, SequencesAreIndividuallySkewed) {
  const auto gen = gen_for(c4());
  double ratio_sum = 0.0;
  for (int s = 0; s < 16; ++s) {
    const auto counts = gen.generate(s).activation_counts(Phase::Decode);
    for (const auto& layer : counts) {
      const double mx = *std::max_element(layer.begin(), layer.end());
      const double mn =
          std::max(1.0, *std::min_element(layer.begin(), layer.end()));
      ratio_sum += mx / mn;
    }
  }
  // Per-layer max/min activation within one sequence is far from 1.
  EXPECT_GT(ratio_sum / (16.0 * cfg().n_layers), 2.0);
}

// §VI-B: GSM8K's windowed decode similarity sits measurably below the
// stable datasets' (paper: 3.43% below TriviaQA).
TEST(WorkloadStats, Gsm8kDriftsMoreThanStableDatasets) {
  const double gsm =
      eval::avg_decode_window_similarity(gen_for(gsm8k()), kSeqs, 15);
  const double trivia =
      eval::avg_decode_window_similarity(gen_for(triviaqa()), kSeqs, 15);
  EXPECT_LT(gsm + 0.02, trivia);
  EXPECT_GT(trivia - gsm, 0.02);
  EXPECT_LT(trivia - gsm, 0.09);
}

TEST(WorkloadStats, AllEvalWorkloadsListed) {
  const auto all = all_eval_workloads();
  EXPECT_EQ(all.size(), 7U);
  for (const auto& w : all) {
    EXPECT_FALSE(w.name.empty());
    EXPECT_GT(w.prompt_len, 0);
    EXPECT_GT(w.gen_len, 0);
  }
}

TEST(WorkloadStats, CalibrationSetIsDistinctFromEvalSets) {
  const auto cal = sharegpt_calibration();
  for (const auto& w : all_eval_workloads()) {
    EXPECT_NE(w.name, cal.name);
  }
}

}  // namespace
}  // namespace daop::data
