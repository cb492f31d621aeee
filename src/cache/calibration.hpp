// Calibration of dominant experts from a calibration dataset (§IV-A).
//
// The paper decodes the ShareGPT calibration set and accumulates layer-wise
// expert activation counts to seed the initial GPU expert cache. This
// helper does the same over synthesized calibration traces.
#pragma once

#include <cstdint>
#include <vector>

#include "data/trace_generator.hpp"

namespace daop::cache {

/// Accumulates decode-phase activation counts of `n_sequences` calibration
/// sequences: result[layer][expert] = tokens routed there. Built on
/// ThreadPool::global(), bit-identical to a serial loop.
std::vector<std::vector<double>> calibrate_activation_counts(
    const data::TraceGenerator& gen, int n_sequences);

}  // namespace daop::cache
