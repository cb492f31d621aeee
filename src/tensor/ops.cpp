#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace daop {

void matvec(const Tensor& w, std::span<const float> x, std::span<float> y) {
  DAOP_CHECK_EQ(w.rank(), 2);
  DAOP_CHECK_EQ(static_cast<std::int64_t>(x.size()), w.cols());
  DAOP_CHECK_EQ(static_cast<std::int64_t>(y.size()), w.rows());
  const std::int64_t rows = w.rows();
  const std::int64_t cols = w.cols();
  const float* wd = w.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* wr = wd + r * cols;
    float acc = 0.0F;
    for (std::int64_t c = 0; c < cols; ++c) acc += wr[c] * x[c];
    y[static_cast<std::size_t>(r)] = acc;
  }
}

void add_inplace(std::span<float> a, std::span<const float> b) {
  DAOP_CHECK_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

void axpy_inplace(std::span<float> a, float s, std::span<const float> b) {
  DAOP_CHECK_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += s * b[i];
}

double cosine_similarity(std::span<const double> a,
                         std::span<const double> b) {
  DAOP_CHECK_EQ(a.size(), b.size());
  double ab = 0.0;
  double aa = 0.0;
  double bb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ab += a[i] * b[i];
    aa += a[i] * a[i];
    bb += b[i] * b[i];
  }
  if (aa == 0.0 || bb == 0.0) return 0.0;
  return ab / (std::sqrt(aa) * std::sqrt(bb));
}

void softmax_inplace(std::span<float> x) {
  DAOP_CHECK(!x.empty());
  float mx = x[0];
  for (float v : x) mx = std::max(mx, v);
  float sum = 0.0F;
  for (auto& v : x) {
    v = std::exp(v - mx);
    sum += v;
  }
  for (auto& v : x) v /= sum;
}

void softmax_subset(std::span<const float> x, std::span<const int> idx,
                    std::span<float> out) {
  DAOP_CHECK_EQ(idx.size(), out.size());
  DAOP_CHECK(!idx.empty());
  float mx = x[static_cast<std::size_t>(idx[0])];
  for (int i : idx) {
    DAOP_CHECK(i >= 0 && static_cast<std::size_t>(i) < x.size());
    mx = std::max(mx, x[static_cast<std::size_t>(i)]);
  }
  float sum = 0.0F;
  for (std::size_t j = 0; j < idx.size(); ++j) {
    out[j] = std::exp(x[static_cast<std::size_t>(idx[j])] - mx);
    sum += out[j];
  }
  for (auto& v : out) v /= sum;
}

void rmsnorm(std::span<const float> x, std::span<const float> gain, float eps,
             std::span<float> out) {
  DAOP_CHECK_EQ(x.size(), gain.size());
  DAOP_CHECK_EQ(x.size(), out.size());
  double ss = 0.0;
  for (float v : x) ss += static_cast<double>(v) * v;
  const float inv =
      1.0F / std::sqrt(static_cast<float>(ss / static_cast<double>(x.size())) + eps);
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] * inv * gain[i];
}

float silu(float x) { return x / (1.0F + std::exp(-x)); }

void rope_inplace(std::span<float> x, int n_heads, int head_dim, int pos,
                  float theta) {
  DAOP_CHECK_EQ(static_cast<int>(x.size()), n_heads * head_dim);
  DAOP_CHECK_EQ(head_dim % 2, 0);
  for (int h = 0; h < n_heads; ++h) {
    float* base = x.data() + static_cast<std::size_t>(h) * head_dim;
    for (int i = 0; i < head_dim; i += 2) {
      const float freq =
          std::pow(theta, -static_cast<float>(i) / static_cast<float>(head_dim));
      const float angle = static_cast<float>(pos) * freq;
      const float c = std::cos(angle);
      const float s = std::sin(angle);
      const float x0 = base[i];
      const float x1 = base[i + 1];
      base[i] = x0 * c - x1 * s;
      base[i + 1] = x0 * s + x1 * c;
    }
  }
}

std::vector<int> topk_indices(std::span<const float> x, int k) {
  std::vector<int> out;
  topk_indices_into(x, k, out);
  return out;
}

void topk_indices_into(std::span<const float> x, int k,
                       std::vector<int>& out) {
  DAOP_CHECK_GE(k, 0);
  DAOP_CHECK_LE(static_cast<std::size_t>(k), x.size());
  out.resize(static_cast<std::size_t>(k));
  topk_indices_into(x, std::span<int>(out));
}

template <typename T>
void topk_indices_into(std::span<const float> x, std::span<T> out) {
  DAOP_CHECK_LE(out.size(), x.size());
  DAOP_CHECK_LE(x.size(),
                static_cast<std::size_t>(std::numeric_limits<T>::max()) + 1);
  // Repeated max-scan over the strict total order (score desc, index asc).
  // (score, index) pairs are distinct, so the top-k sequence is uniquely
  // determined and this matches a partial_sort with the same comparator
  // exactly — but with no index scratch vector and O(k*n) work, which wins
  // for MoE routing's tiny k (top-2 of 8 experts). Routing traces run it
  // once per recorded cell when they are built; replay reads the stored ids.
  float prev_x = 0.0f;
  int prev_i = -1;
  for (T& slot : out) {
    int best = -1;
    float best_x = 0.0f;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const float xi = x[i];
      const int ii = static_cast<int>(i);
      // Only elements ranked strictly after the previous pick remain.
      if (prev_i >= 0 && !(xi < prev_x || (xi == prev_x && ii > prev_i))) {
        continue;
      }
      // Ascending scan + strict improvement keeps the lowest index on ties.
      if (best < 0 || xi > best_x) {
        best = ii;
        best_x = xi;
      }
    }
    slot = static_cast<T>(best);
    prev_x = best_x;
    prev_i = best;
  }
}

template void topk_indices_into<int>(std::span<const float>, std::span<int>);
template void topk_indices_into<std::uint8_t>(std::span<const float>,
                                              std::span<std::uint8_t>);

int argmax(std::span<const float> x) {
  DAOP_CHECK(!x.empty());
  int best = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] > x[static_cast<std::size_t>(best)]) best = static_cast<int>(i);
  }
  return best;
}

}  // namespace daop
