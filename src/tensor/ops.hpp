// Numerical kernels for the functional MoE model.
//
// All kernels operate on float spans / Tensor views and are deterministic:
// reductions use a fixed accumulation order so results are identical across
// runs and thread counts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace daop {

// ---- GEMV ------------------------------------------------------------------

/// y = W * x where W is [rows, cols] and x has `cols` elements.
void matvec(const Tensor& w, std::span<const float> x, std::span<float> y);

// ---- Elementwise / reductions ----------------------------------------------

void add_inplace(std::span<float> a, std::span<const float> b);
/// a += s * b
void axpy_inplace(std::span<float> a, float s, std::span<const float> b);

/// Cosine similarity; returns 0 when either vector is all-zero.
double cosine_similarity(std::span<const double> a, std::span<const double> b);

/// In-place numerically stable softmax.
void softmax_inplace(std::span<float> x);

/// Softmax restricted to `idx` entries of x (others untouched); used for
/// renormalizing top-k gate scores. Writes normalized probabilities into out
/// (same length as idx).
void softmax_subset(std::span<const float> x, std::span<const int> idx,
                    std::span<float> out);

// ---- Normalization / activations -------------------------------------------

/// RMSNorm: out = x / rms(x) * gain (gain has the same length as x).
void rmsnorm(std::span<const float> x, std::span<const float> gain,
             float eps, std::span<float> out);

float silu(float x);

// ---- Rotary position embedding ---------------------------------------------

/// Applies RoPE in-place to a [n_heads * head_dim] vector at position `pos`.
/// Pairs are (2i, 2i+1) within each head, standard LLaMA/Mixtral convention.
void rope_inplace(std::span<float> x, int n_heads, int head_dim, int pos,
                  float theta);

// ---- Selection ---------------------------------------------------------------

/// Indices of the k largest values, ordered by descending value
/// (ties broken by lower index, making selection deterministic).
std::vector<int> topk_indices(std::span<const float> x, int k);

/// topk_indices into a caller-owned buffer: `out` is cleared and refilled,
/// keeping its capacity, so a hot loop that reuses one buffer never
/// allocates once the buffer holds k entries.
void topk_indices_into(std::span<const float> x, int k, std::vector<int>& out);

/// The single top-k kernel the other forms wrap: writes the top out.size()
/// indices of `x`, in topk_indices order, into `out` without allocating.
/// Instantiated for `int` and `std::uint8_t` (trace expert ids); every
/// index of `x` must fit in T.
template <typename T>
void topk_indices_into(std::span<const float> x, std::span<T> out);

int argmax(std::span<const float> x);

}  // namespace daop
