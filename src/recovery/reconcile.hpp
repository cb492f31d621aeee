// Snapshot placements and their reconciliation for warm restart.
//
// A snapshot carries the placement the session was decoding against on the
// node that crashed (write_placement / read_placement encode it). Before
// the session resumes on a surviving node, that node's shared placement
// must converge to it: missing experts are migrated in (priced on the node
// timeline, gated by the arbiter's weight-ready publication), surplus
// unpinned experts are evicted, and experts pinned by concurrent sessions
// are left alone (the restored session then degrades exactly as it would
// for any refused migration).
#pragma once

#include <optional>

#include "cache/arbiter.hpp"
#include "recovery/snapshot.hpp"
#include "sim/timeline.hpp"

namespace daop::recovery {

struct ReconcileResult {
  long long migrated = 0;  // experts transferred to the GPU
  long long evicted = 0;   // surplus experts dropped to the CPU
  long long refused = 0;   // wanted experts blocked by other sessions' pins
  double ready = 0.0;      // when the last transfer lands (now if none)
};

/// Converges `arbiter`'s placement toward `want`, scheduling each H2D
/// transfer on `tl` at `migration_cost_s` and publishing weight arrival
/// through the arbiter. `session_id` identifies the restoring session for
/// pin arbitration. Deterministic: experts are visited in ascending order.
ReconcileResult reconcile_placement(const cache::Placement& want,
                                    cache::PlacementArbiter& arbiter,
                                    sim::Timeline& tl, double now,
                                    double migration_cost_s,
                                    long long session_id);

/// Writes `p` in the snapshot's placement encoding (read back by
/// read_placement): dimensions, per-layer capacities, then one residency
/// byte per (layer, expert), row-major.
void write_placement(ByteWriter& w, const cache::Placement& p);

/// Decodes a placement written by write_placement. nullopt on malformed
/// dimensions, a capacity outside [0, n_experts], or a layer with more
/// residents than its capacity.
std::optional<cache::Placement> read_placement(ByteReader& r);

}  // namespace daop::recovery
