#include "data/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "data/trace_generator.hpp"

namespace daop::data {
namespace {

std::vector<float> vec(std::span<const float> s) {
  return {s.begin(), s.end()};
}

std::vector<int> ids(std::span<const ExpertId> s) {
  return {s.begin(), s.end()};
}

SequenceTrace sample_trace() {
  const TraceGenerator gen(c4(), 4, 8, 2, 123);
  return gen.generate(1, 5, 7);
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const SequenceTrace original = sample_trace();
  std::stringstream ss;
  save_trace(original, ss);
  const SequenceTrace loaded = load_trace(ss);

  EXPECT_EQ(loaded.n_layers(), original.n_layers());
  EXPECT_EQ(loaded.n_experts, original.n_experts);
  EXPECT_EQ(loaded.top_k, original.top_k);
  EXPECT_EQ(loaded.prompt_len, original.prompt_len);
  EXPECT_EQ(loaded.gen_len, original.gen_len);
  for (int l = 0; l < original.n_layers(); ++l) {
    for (int t = 0; t < original.prompt_len; ++t) {
      EXPECT_EQ(vec(loaded.at(Phase::Prefill, l, t).scores),
                vec(original.at(Phase::Prefill, l, t).scores));
    }
    for (int t = 0; t < original.gen_len; ++t) {
      EXPECT_EQ(vec(loaded.at(Phase::Decode, l, t).scores),
                vec(original.at(Phase::Decode, l, t).scores));
      EXPECT_EQ(vec(loaded.at(Phase::Decode, l, t).pred_scores),
                vec(original.at(Phase::Decode, l, t).pred_scores));
    }
  }
}

TEST(TraceIo, RoundTripPreservesEngineDecisions) {
  const SequenceTrace original = sample_trace();
  std::stringstream ss;
  save_trace(original, ss);
  const SequenceTrace loaded = load_trace(ss);
  // The quantities engines consume must survive the float round-trip.
  EXPECT_EQ(ids(loaded.selected(Phase::Decode, 2, 3)),
            ids(original.selected(Phase::Decode, 2, 3)));
  EXPECT_EQ(ids(loaded.predicted(3, 1)), ids(original.predicted(3, 1)));
  EXPECT_EQ(loaded.activation_counts(Phase::Prefill),
            original.activation_counts(Phase::Prefill));
}

TEST(TraceIo, ZeroGenLenRoundTrips) {
  const TraceGenerator gen(c4(), 3, 4, 2, 5);
  const SequenceTrace original = gen.generate(0, 4, 0);
  std::stringstream ss;
  save_trace(original, ss);
  const SequenceTrace loaded = load_trace(ss);
  EXPECT_EQ(loaded.gen_len, 0);
  EXPECT_EQ(loaded.prompt_len, 4);
}

TEST(TraceIo, CommentsAndBlankLinesIgnored) {
  const SequenceTrace original = sample_trace();
  std::stringstream ss;
  save_trace(original, ss);
  std::string text = ss.str();
  const auto pos = text.find('\n');
  text.insert(pos + 1, "# a comment\n\n");
  std::stringstream in(text);
  EXPECT_EQ(load_trace(in).prompt_len, original.prompt_len);
}

TEST(TraceIo, RejectsMissingMagic) {
  std::stringstream in("header 2 4 2 1 1\n");
  EXPECT_THROW(load_trace(in), CheckError);
}

TEST(TraceIo, RejectsMissingCells) {
  std::stringstream in(
      "daop-trace v1\n"
      "header 1 2 1 2 0\n"
      "P 0 0 1.0 2.0\n");  // P 0 1 missing
  EXPECT_THROW(load_trace(in), CheckError);
}

TEST(TraceIo, RejectsDuplicateCells) {
  std::stringstream in(
      "daop-trace v1\n"
      "header 1 2 1 1 0\n"
      "P 0 0 1.0 2.0\n"
      "P 0 0 1.0 2.0\n");
  EXPECT_THROW(load_trace(in), CheckError);
}

TEST(TraceIo, RejectsOutOfRangeIndices) {
  std::stringstream in(
      "daop-trace v1\n"
      "header 1 2 1 1 0\n"
      "P 5 0 1.0 2.0\n");
  EXPECT_THROW(load_trace(in), CheckError);
}

TEST(TraceIo, RejectsTruncatedScores) {
  std::stringstream in(
      "daop-trace v1\n"
      "header 1 4 2 1 0\n"
      "P 0 0 1.0 2.0\n");  // needs 4 scores
  EXPECT_THROW(load_trace(in), CheckError);
}

// A record holds exactly its fields; anything after them is an error
// naming the record, never silently dropped.
void expect_trailing_rejected(const std::string& text,
                              const std::string& record) {
  std::stringstream in(text);
  try {
    (void)load_trace(in);
    ADD_FAILURE() << "accepted a record with trailing tokens";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trailing"), std::string::npos) << what;
    EXPECT_NE(what.find(record), std::string::npos) << what;
  }
}

TEST(TraceIo, RejectsPrefillRecordWithExtraScores) {
  // A 16-expert record under an 8-expert header.
  expect_trailing_rejected(
      "daop-trace v1\n"
      "header 1 8 2 1 0\n"
      "P 0 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16\n",
      "P record at layer 0 token 0");
}

TEST(TraceIo, RejectsPrefillRecordWithPredictions) {
  expect_trailing_rejected(
      "daop-trace v1\n"
      "header 1 2 1 2 0\n"
      "P 0 0 1.0 2.0\n"
      "P 0 1 1.0 2.0 | 2.0 1.0\n",
      "P record at layer 0 token 1");
}

TEST(TraceIo, RejectsDecodeRecordWithExtraValuesAfterPredictions) {
  expect_trailing_rejected(
      "daop-trace v1\n"
      "header 2 2 1 1 1\n"
      "P 0 0 1.0 2.0\n"
      "P 1 0 1.0 2.0\n"
      "D 0 0 1.0 2.0\n"
      "D 1 0 1.0 2.0 | 2.0 1.0 3.0\n",
      "D record at layer 1 token 0");
}

TEST(TraceIo, RejectsDecodeRecordWithExtraScoresAndNoPredictions) {
  std::stringstream in(
      "daop-trace v1\n"
      "header 1 2 1 1 1\n"
      "P 0 0 1.0 2.0\n"
      "D 0 0 1.0 2.0 3.0\n");
  EXPECT_THROW(load_trace(in), CheckError);
}

TEST(TraceIo, RejectsBadHeader) {
  std::stringstream in(
      "daop-trace v1\n"
      "header 0 4 2 1 0\n");
  EXPECT_THROW(load_trace(in), CheckError);
  std::stringstream in2(
      "daop-trace v1\n"
      "header 1 4 5 1 0\n");  // top_k > experts
  EXPECT_THROW(load_trace(in2), CheckError);
}

// Headers are untrusted: the flat blocks are sized from them, so a shape
// whose size overflows, exceeds the cap, or has more experts than a stored
// id can name must be refused up front with a diagnostic naming the header
// (not a bad_alloc, not a wrapped size).
TEST(TraceIo, RejectsHostileHeaders) {
  const auto expect_rejected = [](const std::string& header,
                                  const std::string& reason) {
    std::stringstream in("daop-trace v1\n" + header + "\n");
    try {
      (void)load_trace(in);
      ADD_FAILURE() << "accepted '" << header << "'";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + header + "'"), std::string::npos) << what;
      EXPECT_NE(what.find(reason), std::string::npos) << what;
    }
  };
  // 100000 x (100000 + 2 x 100000) x 8 = 2.4e11 score values.
  expect_rejected("header 100000 8 2 100000 100000", "exceeds the cap");
  // One past the cap of 2^28.
  expect_rejected("header 1 1 1 268435457 0", "exceeds the cap");
  // The product wraps 64 bits.
  expect_rejected("header 2147483647 256 2 2147483647 2147483647",
                  "overflows");
  // 257 experts cannot all be named by an 8-bit id.
  expect_rejected("header 1 257 2 1 1", "exceeds the trace id bound");
  expect_rejected("header 1 -8 2 1 1", "bad trace header");
  // The same bounds guard traces built in memory.
  EXPECT_THROW(SequenceTrace(1, kMaxTraceExperts + 1, 2, 1, 1), CheckError);
  EXPECT_THROW(SequenceTrace(1, 1, 1, 1 << 28, 1), CheckError);
  EXPECT_NO_THROW(SequenceTrace(1, kMaxTraceExperts, 2, 1, 1));
}

// Round-trip property sweep across trace shapes (including degenerate ones).
class TraceIoRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(TraceIoRoundTrip, Exact) {
  const auto [layers, experts, topk, prompt, gen] = GetParam();
  WorkloadSpec spec = gsm8k();  // exercises drift + predictions
  const TraceGenerator g(spec, layers, experts, topk, 777);
  const SequenceTrace original = g.generate(2, prompt, gen);
  std::stringstream ss;
  save_trace(original, ss);
  const SequenceTrace loaded = load_trace(ss);
  for (int l = 0; l < layers; ++l) {
    for (int t = 0; t < prompt; ++t) {
      ASSERT_EQ(vec(loaded.at(Phase::Prefill, l, t).scores),
                vec(original.at(Phase::Prefill, l, t).scores));
    }
    for (int t = 0; t < gen; ++t) {
      ASSERT_EQ(vec(loaded.at(Phase::Decode, l, t).scores),
                vec(original.at(Phase::Decode, l, t).scores));
      ASSERT_EQ(vec(loaded.at(Phase::Decode, l, t).pred_scores),
                vec(original.at(Phase::Decode, l, t).pred_scores));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TraceIoRoundTrip,
    ::testing::Values(std::make_tuple(1, 2, 1, 1, 0),
                      std::make_tuple(2, 4, 2, 3, 1),
                      std::make_tuple(8, 8, 2, 16, 16),
                      std::make_tuple(4, 16, 2, 7, 9),
                      std::make_tuple(3, 3, 3, 2, 5)));

TEST(TraceIo, FileRoundTrip) {
  const SequenceTrace original = sample_trace();
  const std::string path = ::testing::TempDir() + "daop_trace_io_test.trace";
  save_trace_file(original, path);
  const SequenceTrace loaded = load_trace_file(path);
  EXPECT_EQ(loaded.gen_len, original.gen_len);
  std::remove(path.c_str());
  EXPECT_THROW(load_trace_file("/nonexistent-dir-xyz/x.trace"), CheckError);
}

}  // namespace
}  // namespace daop::data
