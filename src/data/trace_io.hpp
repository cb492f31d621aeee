// Routing-trace serialization.
//
// The performance plane consumes SequenceTrace objects; nothing requires
// them to be synthetic. This text format lets users dump per-token gate
// scores from a real model (e.g. a Transformers hook on Mixtral's router)
// and replay them through every engine in this repository.
//
// Format (line-oriented, '#' comments, whitespace-separated):
//   daop-trace v1
//   header <n_layers> <n_experts> <top_k> <prompt_len> <gen_len>
//   P <layer> <token> <score_0> ... <score_{E-1}>
//   D <layer> <token> <score_0> ... <score_{E-1}> [| <pred_0> ... <pred_{E-1}>]
// All (phase, layer, token) cells must be present exactly once, each record
// holding exactly its fields (trailing tokens are an error). The header
// is validated before anything is sized from it: n_experts must fit a
// stored expert id (<= kMaxTraceExperts) and n_layers x (prompt_len +
// 2 gen_len) x n_experts must not overflow or exceed kMaxTraceScoreValues.
#pragma once

#include <iosfwd>
#include <string>

#include "data/routing_trace.hpp"

namespace daop::data {

void save_trace(const SequenceTrace& trace, std::ostream& os);
/// Throws CheckError on malformed input (missing cells, bad counts, a
/// header over the caps above, ...).
SequenceTrace load_trace(std::istream& is);

/// File wrappers; throw CheckError on I/O failure.
void save_trace_file(const SequenceTrace& trace, const std::string& path);
SequenceTrace load_trace_file(const std::string& path);

}  // namespace daop::data
