// Differential test of the flat routing-trace layout. A trace stores each
// cell's top-k expert ids and each layer's activation counts when it is
// built; replay trusts them instead of re-ranking the scores. Here every
// stored id is checked against an independent re-rank of its cell's scores
// (ties included), every stored count against a recount, and save -> load
// and copies against the original, over every dataset preset, several
// seeds, two expert counts and three top-k widths. Copies share their
// blocks until set_cell writes one (copy-on-write); the tests below pin
// that sharing, the isolation of a write, and view lifetimes across copies.
// A counting global operator new also pins the costs: a build, and the
// detach of a shared copy, take a fixed number of heap blocks whatever the
// trace length, and a copy takes none.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "data/trace_generator.hpp"
#include "data/trace_io.hpp"
#include "data/workload.hpp"
#include "model/config.hpp"
#include "tensor/ops.hpp"

namespace {
std::atomic<long long> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace daop::data {
namespace {

long long allocs() { return g_allocs.load(std::memory_order_relaxed); }

constexpr std::uint64_t kSeeds[] = {1, 7, 11};
constexpr int kPrompt = 16;
constexpr int kGen = 12;

std::vector<WorkloadSpec> presets() {
  std::vector<WorkloadSpec> all = all_eval_workloads();
  all.push_back(sharegpt_calibration());
  return all;
}

/// Mixtral (8 experts) and Phi-3.5-MoE (16 experts) at their top-2, plus
/// top-1 and top-4 variants.
std::vector<model::ModelConfig> models() {
  model::ModelConfig top1 = model::mixtral_8x7b();
  top1.name += " (top-1)";
  top1.top_k = 1;
  model::ModelConfig top4 = model::phi35_moe();
  top4.name += " (top-4)";
  top4.top_k = 4;
  return {model::mixtral_8x7b(), model::phi35_moe(), top1, top4};
}

std::vector<int> ids(std::span<const ExpertId> s) {
  return {s.begin(), s.end()};
}

/// Reference top-k, independent of the selection kernel: a partial sort
/// of the indices under the strict order (score desc, index asc).
std::vector<int> reference_topk(std::span<const float> x, int k) {
  std::vector<int> idx(x.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + k, idx.end(), [&](int a, int b) {
    const float xa = x[static_cast<std::size_t>(a)];
    const float xb = x[static_cast<std::size_t>(b)];
    return xa > xb || (xa == xb && a < b);
  });
  idx.resize(static_cast<std::size_t>(k));
  return idx;
}

/// Every stored id of `tr` equals a fresh re-rank of its cell's scores,
/// and the stored counts of both phases equal a recount.
void expect_stored_ids_match_rerank(const SequenceTrace& tr) {
  for (const Phase phase : {Phase::Prefill, Phase::Decode}) {
    const int n_tokens = phase == Phase::Prefill ? tr.prompt_len : tr.gen_len;
    for (int l = 0; l < tr.n_layers(); ++l) {
      std::vector<double> recount(static_cast<std::size_t>(tr.n_experts), 0.0);
      for (int t = 0; t < n_tokens; ++t) {
        SCOPED_TRACE(::testing::Message() << (phase == Phase::Prefill ? "P" : "D")
                                          << " layer " << l << " token " << t);
        const TokenRouting c = tr.at(phase, l, t);
        const std::vector<int> truth = reference_topk(c.scores, tr.top_k);
        ASSERT_EQ(ids(c.selected), truth);
        ASSERT_EQ(ids(c.selected), topk_indices(c.scores, tr.top_k));
        for (const int e : truth) recount[static_cast<std::size_t>(e)] += 1.0;
        if (c.pred_scores.empty()) {
          ASSERT_TRUE(c.predicted.empty());
        } else {
          ASSERT_EQ(ids(c.predicted), reference_topk(c.pred_scores, tr.top_k));
        }
      }
      const std::span<const double> stored = tr.counts(phase, l);
      ASSERT_EQ(std::vector<double>(stored.begin(), stored.end()), recount)
          << "layer " << l;
    }
  }
}

/// `tr` rebuilt through set_cell with every score snapped to a coarse grid
/// and every third cell flattened to all-equal scores, so that ties are
/// everywhere.
SequenceTrace with_forced_ties(const SequenceTrace& tr) {
  SequenceTrace out(tr.n_layers(), tr.n_experts, tr.top_k, tr.prompt_len,
                    tr.gen_len);
  std::vector<float> s;
  std::vector<float> p;
  const auto coarse = [](std::span<const float> in, std::vector<float>& o,
                         bool flat) {
    o.assign(in.begin(), in.end());
    for (float& v : o) v = flat ? 1.0F : std::round(v * 2.0F) / 2.0F;
  };
  for (const Phase phase : {Phase::Prefill, Phase::Decode}) {
    const int n_tokens = phase == Phase::Prefill ? tr.prompt_len : tr.gen_len;
    for (int l = 0; l < tr.n_layers(); ++l) {
      for (int t = 0; t < n_tokens; ++t) {
        const TokenRouting c = tr.at(phase, l, t);
        const bool flat = (l + t) % 3 == 0;
        coarse(c.scores, s, flat);
        if (c.pred_scores.empty()) {
          out.set_cell(phase, l, t, s);
        } else {
          coarse(c.pred_scores, p, flat);
          out.set_cell(phase, l, t, s, p);
        }
      }
    }
  }
  return out;
}

/// Every stored id, prediction id and count of `a` and `b` agrees.
void expect_same_stored_routing(const SequenceTrace& a,
                                const SequenceTrace& b) {
  ASSERT_EQ(a.n_layers(), b.n_layers());
  ASSERT_EQ(a.prompt_len, b.prompt_len);
  ASSERT_EQ(a.gen_len, b.gen_len);
  for (const Phase phase : {Phase::Prefill, Phase::Decode}) {
    const int n_tokens = phase == Phase::Prefill ? a.prompt_len : a.gen_len;
    for (int l = 0; l < a.n_layers(); ++l) {
      for (int t = 0; t < n_tokens; ++t) {
        const TokenRouting ca = a.at(phase, l, t);
        const TokenRouting cb = b.at(phase, l, t);
        ASSERT_EQ(ids(ca.selected), ids(cb.selected));
        ASSERT_EQ(ids(ca.predicted), ids(cb.predicted));
      }
      const std::span<const double> ka = a.counts(phase, l);
      const std::span<const double> kb = b.counts(phase, l);
      ASSERT_TRUE(std::equal(ka.begin(), ka.end(), kb.begin(), kb.end()));
    }
  }
}

template <class Fn>
void for_each_case(Fn fn) {
  for (const model::ModelConfig& m : models()) {
    for (const WorkloadSpec& spec : presets()) {
      for (const std::uint64_t seed : kSeeds) {
        SCOPED_TRACE(::testing::Message() << m.name << " / " << spec.name
                                          << " / seed " << seed);
        const TraceGenerator gen(spec, m.n_layers, m.n_experts, m.top_k, seed);
        fn(gen.generate(static_cast<int>(seed % 5), kPrompt, kGen));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(TraceLayout, StoredIdsAndCountsMatchRerank) {
  for_each_case([](const SequenceTrace& tr) {
    expect_stored_ids_match_rerank(tr);
    expect_stored_ids_match_rerank(with_forced_ties(tr));
  });
}

TEST(TraceLayout, TiesResolveToLowerIndex) {
  SequenceTrace tr(1, 4, 2, 1, 1);
  // Freshly shaped cells are all-zero: a full tie.
  EXPECT_EQ(ids(tr.selected(Phase::Prefill, 0, 0)), (std::vector<int>{0, 1}));
  const std::vector<float> two_way = {1.0F, 3.0F, 3.0F, 0.0F};
  const std::vector<float> after_top = {5.0F, 2.0F, 2.0F, 2.0F};
  tr.set_cell(Phase::Decode, 0, 0, two_way, after_top);
  EXPECT_EQ(ids(tr.selected(Phase::Decode, 0, 0)), (std::vector<int>{1, 2}));
  EXPECT_EQ(ids(tr.predicted(0, 0)), (std::vector<int>{0, 1}));
  const std::span<const double> counts = tr.counts(Phase::Decode, 0);
  EXPECT_EQ(std::vector<double>(counts.begin(), counts.end()),
            (std::vector<double>{0.0, 1.0, 1.0, 0.0}));
  // Dropping the prediction clears the predicted ids.
  tr.set_cell(Phase::Decode, 0, 0, two_way);
  EXPECT_TRUE(tr.predicted(0, 0).empty());
}

TEST(TraceLayout, SetCellUsesTheBuiltShape) {
  SequenceTrace tr(1, 4, 2, 1, 1);
  // The public dimensions drifting from the blocks must not move set_cell's
  // indexing: it keeps to the shape the blocks were built with.
  tr.n_experts = 2;
  tr.top_k = 1;
  const std::vector<float> scores = {0.0F, 1.0F, 3.0F, 2.0F};
  tr.set_cell(Phase::Prefill, 0, 0, scores);
  EXPECT_EQ(ids(tr.selected(Phase::Prefill, 0, 0)), (std::vector<int>{2, 3}));
  const std::span<const double> counts = tr.counts(Phase::Prefill, 0);
  EXPECT_EQ(std::vector<double>(counts.begin(), counts.end()),
            (std::vector<double>{0.0, 0.0, 1.0, 1.0}));
  const std::vector<float> narrow = {1.0F, 0.0F};
  EXPECT_THROW(tr.set_cell(Phase::Prefill, 0, 0, narrow), CheckError);
}

TEST(TraceLayout, SaveLoadAndCopyReproduceIds) {
  for_each_case([](const SequenceTrace& tr) {
    for (const SequenceTrace& original : {tr, with_forced_ties(tr)}) {
      std::stringstream ss;
      save_trace(original, ss);
      const SequenceTrace loaded = load_trace(ss);
      expect_same_stored_routing(loaded, original);
      const SequenceTrace copy = original;  // NOLINT(performance-*)
      expect_same_stored_routing(copy, original);
      SequenceTrace moved_from = original;
      const SequenceTrace moved = std::move(moved_from);
      expect_same_stored_routing(moved, original);
    }
  });
}

TEST(TraceLayout, BuildAllocationsIndependentOfLength) {
  for (const model::ModelConfig& m : models()) {
    SCOPED_TRACE(m.name);
    const TraceGenerator gen(c4(), m.n_layers, m.n_experts, m.top_k, 3);
    (void)gen.generate(0, 4, 2);
    long long before = allocs();
    const SequenceTrace small = gen.generate(0, 4, 2);
    const long long small_allocs = allocs() - before;
    before = allocs();
    const SequenceTrace large = gen.generate(0, 256, 512);
    const long long large_allocs = allocs() - before;
    EXPECT_EQ(small_allocs, large_allocs)
        << "4+2 vs 256+512 tokens over " << m.n_layers << " layers";
    // The blocks plus the generator's per-layer fields, never per cell.
    EXPECT_LT(small_allocs, 4L * m.n_layers + 16);
    EXPECT_EQ(large.gen_len, 512);
    EXPECT_EQ(small.gen_len, 2);
  }
}

std::vector<float> floats(std::span<const float> s) {
  return {s.begin(), s.end()};
}

/// `a` and `b` hold the same shape, scores, predictions, ids and counts.
void expect_same_trace(const SequenceTrace& a, const SequenceTrace& b) {
  ASSERT_EQ(a.n_experts, b.n_experts);
  ASSERT_EQ(a.top_k, b.top_k);
  expect_same_stored_routing(a, b);
  for (const Phase phase : {Phase::Prefill, Phase::Decode}) {
    const int n_tokens = phase == Phase::Prefill ? a.prompt_len : a.gen_len;
    for (int l = 0; l < a.n_layers(); ++l) {
      for (int t = 0; t < n_tokens; ++t) {
        ASSERT_EQ(floats(a.at(phase, l, t).scores),
                  floats(b.at(phase, l, t).scores));
        ASSERT_EQ(floats(a.at(phase, l, t).pred_scores),
                  floats(b.at(phase, l, t).pred_scores));
      }
    }
  }
}

/// Scores that rank the experts in reverse index order.
std::vector<float> descending_ids(int n_experts) {
  std::vector<float> s(static_cast<std::size_t>(n_experts));
  std::iota(s.begin(), s.end(), 0.0F);
  return s;
}

/// The CheckError text `f` throws ("" if it throws none).
template <class F>
std::string failure_of(F&& f) {
  try {
    f();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(TraceLayout, OutOfRangeLookupsNameTheCellAndShape) {
  const SequenceTrace trace(4, 8, 2, 16, 12);
  const auto expect_failure = [](const std::string& what,
                                 const std::string& want) {
    EXPECT_NE(what.find(want), std::string::npos)
        << "got: " << what << "\nwant: " << want;
  };
  expect_failure(failure_of([&] { trace.at(Phase::Decode, 4, 0); }),
                 "decode cell (layer 4, token 0) is outside the trace's "
                 "decode shape of 4 layers x 12 tokens");
  expect_failure(failure_of([&] { trace.at(Phase::Decode, 1, 12); }),
                 "decode cell (layer 1, token 12) is outside the trace's "
                 "decode shape of 4 layers x 12 tokens");
  expect_failure(failure_of([&] { trace.at(Phase::Prefill, 0, -1); }),
                 "prefill cell (layer 0, token -1) is outside the trace's "
                 "prefill shape of 4 layers x 16 tokens");
  expect_failure(failure_of([&] { trace.predicted(-2, 3); }),
                 "decode cell (layer -2, token 3) is outside the trace's "
                 "decode shape of 4 layers x 12 tokens");
  expect_failure(failure_of([&] { trace.counts(Phase::Prefill, 4); }),
                 "prefill layer 4 is outside the trace's prefill shape of "
                 "4 layers x 16 tokens");
  expect_failure(failure_of([&] { trace.counts(Phase::Decode, -1); }),
                 "decode layer -1 is outside the trace's decode shape of "
                 "4 layers x 12 tokens");
  // In-range corners stay valid.
  EXPECT_EQ(trace.at(Phase::Decode, 3, 11).scores.size(), 8U);
  EXPECT_EQ(trace.at(Phase::Prefill, 0, 15).selected.size(), 2U);
  EXPECT_EQ(trace.counts(Phase::Decode, 3).size(), 8U);
}

TEST(TraceLayout, CopySharesBlocks) {
  const TraceGenerator gen(c4(), 4, 8, 2, 5);
  const SequenceTrace original = gen.generate(0, 6, 5);
  const SequenceTrace copy = original;  // NOLINT(performance-*)
  for (const Phase phase : {Phase::Prefill, Phase::Decode}) {
    EXPECT_EQ(copy.at(phase, 2, 3).scores.data(),
              original.at(phase, 2, 3).scores.data());
    EXPECT_EQ(copy.counts(phase, 1).data(), original.counts(phase, 1).data());
  }
  EXPECT_EQ(copy.predicted(1, 0).data(), original.predicted(1, 0).data());
}

TEST(TraceLayout, SetCellOnACopyChangesOnlyTheCopy) {
  const TraceGenerator gen(c4(), 4, 8, 2, 5);
  const SequenceTrace original = gen.generate(0, 6, 5);
  const SequenceTrace reference = gen.generate(0, 6, 5);  // private blocks
  SequenceTrace copy = original;
  const std::vector<float> scores = descending_ids(8);
  std::vector<float> pred = scores;
  std::reverse(pred.begin(), pred.end());
  copy.set_cell(Phase::Decode, 1, 2, scores, pred);

  expect_same_trace(original, reference);
  EXPECT_NE(copy.at(Phase::Decode, 1, 2).scores.data(),
            original.at(Phase::Decode, 1, 2).scores.data());
  EXPECT_EQ(ids(copy.selected(Phase::Decode, 1, 2)), (std::vector<int>{7, 6}));
  EXPECT_EQ(ids(copy.predicted(1, 2)), (std::vector<int>{0, 1}));
  expect_stored_ids_match_rerank(copy);
  // Only the written phase detached: prefill is still shared.
  EXPECT_EQ(copy.at(Phase::Prefill, 0, 0).scores.data(),
            original.at(Phase::Prefill, 0, 0).scores.data());

  copy.set_cell(Phase::Prefill, 0, 0, scores);
  expect_same_trace(original, reference);
  EXPECT_EQ(ids(copy.selected(Phase::Prefill, 0, 0)), (std::vector<int>{7, 6}));
  expect_stored_ids_match_rerank(copy);
}

TEST(TraceLayout, CopyAndDetachAllocationsIndependentOfLength) {
  const TraceGenerator gen(c4(), 4, 8, 2, 5);
  const std::vector<float> scores = descending_ids(8);
  long long detach[2] = {};
  int i = 0;
  for (const auto [prompt, gen_len] : {std::pair{4, 2}, std::pair{256, 512}}) {
    SCOPED_TRACE(::testing::Message() << prompt << "+" << gen_len);
    const SequenceTrace original = gen.generate(0, prompt, gen_len);
    long long before = allocs();
    SequenceTrace copy = original;
    EXPECT_EQ(allocs() - before, 0) << "a copy shares the blocks";
    before = allocs();
    copy.set_cell(Phase::Decode, 1, 0, scores);
    detach[i++] = allocs() - before;
    before = allocs();
    copy.set_cell(Phase::Decode, 1, 1, scores);
    EXPECT_EQ(allocs() - before, 0) << "an unshared phase writes in place";
  }
  EXPECT_GT(detach[0], 0);
  EXPECT_EQ(detach[0], detach[1]);
  const long long before = allocs();
  const SequenceTrace empty;
  EXPECT_EQ(allocs() - before, 0);
  EXPECT_EQ(empty.n_layers(), 0);
}

TEST(TraceLayout, ViewsFromACopyOutliveTheOriginal) {
  const TraceGenerator gen(c4(), 4, 8, 2, 5);
  auto original = std::make_unique<SequenceTrace>(gen.generate(0, 6, 5));
  const SequenceTrace copy = *original;
  const TokenRouting cell = copy.at(Phase::Decode, 2, 4);
  const LayerTokens layer = copy.prefill[3];
  const std::span<const double> counts = copy.counts(Phase::Decode, 2);
  original.reset();

  const SequenceTrace reference = gen.generate(0, 6, 5);
  const TokenRouting want = reference.at(Phase::Decode, 2, 4);
  EXPECT_EQ(floats(cell.scores), floats(want.scores));
  EXPECT_EQ(floats(cell.pred_scores), floats(want.pred_scores));
  EXPECT_EQ(ids(cell.selected), ids(want.selected));
  EXPECT_EQ(ids(cell.predicted), ids(want.predicted));
  ASSERT_EQ(layer.tokens.size(), 6U);
  for (std::size_t t = 0; t < layer.tokens.size(); ++t) {
    EXPECT_EQ(floats(layer.tokens[t].scores),
              floats(reference.at(Phase::Prefill, 3, static_cast<int>(t))
                         .scores));
  }
  const std::span<const double> want_counts =
      reference.counts(Phase::Decode, 2);
  EXPECT_TRUE(std::equal(counts.begin(), counts.end(), want_counts.begin(),
                         want_counts.end()));
}

TEST(TraceLayout, CopyMoveAndSelfAssignmentKeepBothSides) {
  const TraceGenerator gen(c4(), 4, 8, 2, 5);
  // Private references, built apart from the traces under test.
  const SequenceTrace ref_a = gen.generate(0, 6, 5);
  const SequenceTrace ref_b = gen.generate(1, 3, 7);
  const std::vector<float> scores = descending_ids(8);

  SequenceTrace a = gen.generate(0, 6, 5);
  SequenceTrace b = gen.generate(1, 3, 7);
  a = b;  // a's old blocks are freed here
  expect_same_trace(a, ref_b);
  expect_same_trace(b, ref_b);
  a.set_cell(Phase::Decode, 0, 0, scores);
  expect_same_trace(b, ref_b);
  b.set_cell(Phase::Prefill, 1, 1, scores);
  EXPECT_EQ(ids(a.selected(Phase::Prefill, 1, 1)),
            ids(ref_b.selected(Phase::Prefill, 1, 1)));
  EXPECT_EQ(ids(a.selected(Phase::Decode, 0, 0)), (std::vector<int>{7, 6}));

  SequenceTrace c = gen.generate(0, 6, 5);
  SequenceTrace d = c;
  a = std::move(c);  // a now shares with d
  expect_same_trace(a, ref_a);
  expect_same_trace(d, ref_a);
  d.set_cell(Phase::Decode, 3, 1, scores);
  expect_same_trace(a, ref_a);
  c = d;  // a moved-from trace takes a copy
  expect_same_trace(c, d);

  SequenceTrace& alias = a;
  a = alias;
  expect_same_trace(a, ref_a);
  a = std::move(alias);
  expect_same_trace(a, ref_a);
  const float* in_place = a.at(Phase::Decode, 3, 1).scores.data();
  a.set_cell(Phase::Decode, 3, 1, scores);  // sole owner: writes in place
  EXPECT_EQ(a.at(Phase::Decode, 3, 1).scores.data(), in_place);
  expect_same_trace(a, d);
}

}  // namespace
}  // namespace daop::data
