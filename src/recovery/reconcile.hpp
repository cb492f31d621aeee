// Placement reconciliation for warm restart.
//
// A snapshot carries the expert-residency image the session was decoding
// against on the node that crashed. Before the session resumes on a
// surviving node, that node's shared placement must converge to the image:
// missing experts are migrated in (priced on the node timeline, gated by the
// arbiter's weight-ready publication), surplus unpinned experts are evicted,
// and experts pinned by concurrent sessions are left alone (the restored
// session then degrades exactly as it would for any refused migration).
#pragma once

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
ReconcileResult reconcile_placement(const PlacementImage& want,
                                    cache::PlacementArbiter& arbiter,
                                    sim::Timeline& tl, double now,
                                    double migration_cost_s,
                                    long long session_id);

/// Captures the arbiter's current placement as a snapshot image.
PlacementImage capture_placement(const cache::Placement& p);

/// Writes `p` in the snapshot's placement-image encoding (read back by
/// read_placement_image): dimensions, per-layer capacities, then one
/// residency byte per (layer, expert), row-major.
void write_placement(ByteWriter& w, const cache::Placement& p);

/// Overwrites `p` (a session-private placement) with the image: capacities,
/// then residency. Returns false on dimension mismatch, leaving `p`
/// untouched.
bool apply_placement_image(const PlacementImage& img, cache::Placement& p);

}  // namespace daop::recovery
