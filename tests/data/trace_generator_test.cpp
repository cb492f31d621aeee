#include "data/trace_generator.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/check.hpp"

namespace daop::data {
namespace {

std::vector<float> vec(std::span<const float> s) {
  return {s.begin(), s.end()};
}

TraceGenerator make_gen(std::uint64_t seed = 7) {
  return TraceGenerator(c4(), /*n_layers=*/8, /*n_experts=*/8, /*top_k=*/2,
                        seed);
}

TEST(TraceGenerator, ShapeMatchesRequest) {
  const auto tr = make_gen().generate(0, 12, 20);
  EXPECT_EQ(tr.n_layers(), 8);
  EXPECT_EQ(tr.prompt_len, 12);
  EXPECT_EQ(tr.gen_len, 20);
  ASSERT_EQ(tr.prefill.size(), 8U);
  ASSERT_EQ(tr.decode.size(), 8U);
  for (const auto& lt : tr.prefill) EXPECT_EQ(lt.tokens.size(), 12U);
  for (const auto& lt : tr.decode) EXPECT_EQ(lt.tokens.size(), 20U);
  EXPECT_EQ(tr.at(Phase::Decode, 3, 5).scores.size(), 8U);
}

TEST(TraceGenerator, DeterministicPerSequenceIndex) {
  const auto a = make_gen().generate(4);
  const auto b = make_gen().generate(4);
  EXPECT_EQ(vec(a.at(Phase::Decode, 2, 7).scores),
            vec(b.at(Phase::Decode, 2, 7).scores));
  EXPECT_EQ(vec(a.at(Phase::Prefill, 5, 3).scores),
            vec(b.at(Phase::Prefill, 5, 3).scores));
}

TEST(TraceGenerator, DifferentSequencesDiffer) {
  const auto gen = make_gen();
  const auto a = gen.generate(0);
  const auto b = gen.generate(1);
  EXPECT_NE(vec(a.at(Phase::Decode, 0, 0).scores),
            vec(b.at(Phase::Decode, 0, 0).scores));
}

TEST(TraceGenerator, PredictionsOnlyForLayersAboveZero) {
  const auto tr = make_gen().generate(0, 4, 6);
  for (int t = 0; t < 6; ++t) {
    EXPECT_TRUE(tr.at(Phase::Decode, 0, t).pred_scores.empty());
    for (int l = 1; l < 8; ++l) {
      EXPECT_EQ(tr.at(Phase::Decode, l, t).pred_scores.size(), 8U);
    }
  }
  EXPECT_TRUE(tr.predicted(0, 0).empty());
  EXPECT_EQ(tr.predicted(3, 0).size(), 2U);
}

TEST(TraceGenerator, PrefillHasNoPredictions) {
  const auto tr = make_gen().generate(0, 4, 4);
  for (int l = 0; l < 8; ++l) {
    for (int t = 0; t < 4; ++t) {
      EXPECT_TRUE(tr.at(Phase::Prefill, l, t).pred_scores.empty());
    }
  }
}

TEST(TraceGenerator, SelectedReturnsTopKDescending) {
  const auto tr = make_gen().generate(2, 4, 4);
  const std::span<const float> scores = tr.at(Phase::Decode, 1, 1).scores;
  const auto sel = tr.selected(Phase::Decode, 1, 1);
  ASSERT_EQ(sel.size(), 2U);
  EXPECT_GE(scores[static_cast<std::size_t>(sel[0])],
            scores[static_cast<std::size_t>(sel[1])]);
  for (std::size_t e = 0; e < scores.size(); ++e) {
    if (static_cast<int>(e) != sel[0] && static_cast<int>(e) != sel[1]) {
      EXPECT_LE(scores[e], scores[static_cast<std::size_t>(sel[0])]);
    }
  }
}

TEST(TraceGenerator, ActivationCountsSumToTopKTimesTokens) {
  const auto tr = make_gen().generate(0, 10, 14);
  const auto pc = tr.activation_counts(Phase::Prefill);
  const auto dc = tr.activation_counts(Phase::Decode);
  for (const auto& layer : pc) {
    double sum = 0.0;
    for (double v : layer) sum += v;
    EXPECT_DOUBLE_EQ(sum, 2.0 * 10);
  }
  for (const auto& layer : dc) {
    double sum = 0.0;
    for (double v : layer) sum += v;
    EXPECT_DOUBLE_EQ(sum, 2.0 * 14);
  }
}

TEST(TraceGenerator, DecodeWindowCountsRespectBounds) {
  const auto tr = make_gen().generate(0, 4, 10);
  const auto w = tr.decode_window_counts(5, 100);  // clamped to gen_len
  double sum = 0.0;
  for (const auto& layer : w) {
    for (double v : layer) sum += v;
  }
  EXPECT_DOUBLE_EQ(sum, 8.0 * 2.0 * 5);  // layers x top_k x 5 tokens
  EXPECT_THROW(tr.decode_window_counts(5, 2), CheckError);
}

TEST(TraceGenerator, ZeroGenLenSupported) {
  const auto tr = make_gen().generate(0, 4, 0);
  EXPECT_EQ(tr.gen_len, 0);
  const auto dc = tr.activation_counts(Phase::Decode);
  for (const auto& layer : dc) {
    for (double v : layer) EXPECT_EQ(v, 0.0);
  }
}

TEST(TraceGenerator, RejectsBadConstruction) {
  EXPECT_THROW(TraceGenerator(c4(), 0, 8, 2, 1), CheckError);
  EXPECT_THROW(TraceGenerator(c4(), 8, 8, 9, 1), CheckError);
  WorkloadSpec bad = c4();
  bad.layer_rho = 1.0;
  EXPECT_THROW(TraceGenerator(bad, 8, 8, 2, 1), CheckError);
}

TEST(TraceGenerator, OutOfRangeAccessChecked) {
  const auto tr = make_gen().generate(0, 4, 4);
  EXPECT_THROW(tr.at(Phase::Decode, 8, 0), CheckError);
  EXPECT_THROW(tr.at(Phase::Decode, 0, 4), CheckError);
  EXPECT_THROW(tr.at(Phase::Prefill, 0, 4), CheckError);
}

}  // namespace
}  // namespace daop::data
