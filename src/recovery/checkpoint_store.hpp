// Per-node checkpoint store with simulated write cost and fault injection.
//
// Each cluster node owns one CheckpointStore. At a configurable cadence
// (every K decode steps and/or every T simulated seconds) the serving loop
// seals the session's snapshot and hands it to write(): the store schedules
// the durable-write cost on the node timeline (PCIe D2H — checkpointing
// overhead is visible to the cost model and perturbed by the same hazards as
// any other transfer) and records the blob with its durability horizon.
//
// Fault injection happens at WRITE time against the STORED bytes — a torn
// write truncates the blob, a corrupt write flips one byte — so restore-side
// validation is honest: latest_valid() trusts nothing but unseal(). A write
// still in flight when the node crashes is automatically ineligible
// (durable_at > crash time), which is exactly crash consistency.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "sim/fault_model.hpp"
#include "sim/timeline.hpp"

namespace daop::recovery {

/// Durable-write cost of one snapshot: a fixed latency plus streaming the
/// sealed bytes at this rate.
inline constexpr double kCheckpointWriteLatencyS = 200e-6;
inline constexpr double kCheckpointWriteGbps = 8.0;

struct CheckpointOptions {
  /// Checkpoint every K decode steps (0 disables the step trigger).
  int every_steps = 0;
  /// Checkpoint every T simulated seconds (0 disables the time trigger).
  double every_s = 0.0;
  /// Snapshot generations retained per request (older ones are dropped;
  /// restore falls back generation by generation when validation rejects).
  int keep_generations = 2;

  bool enabled() const { return every_steps > 0 || every_s > 0.0; }
  void validate() const;
};

struct CheckpointRecord {
  long long request_id = 0;
  long long step = 0;       // decode steps completed at snapshot time
  double snap_time = 0.0;   // simulated time the snapshot was taken
  double durable_at = 0.0;  // write completion; ineligible before this
  bool torn = false;        // fault bookkeeping (stats only — restore
  bool corrupted = false;   // validation never reads these flags)
  std::vector<std::uint8_t> bytes;
};

struct CheckpointStoreStats {
  long long writes = 0;
  long long bytes_written = 0;
  long long torn_writes = 0;
  long long corrupt_writes = 0;
  /// Sealed blobs that failed unseal() during latest_valid() scans.
  long long torn_rejected = 0;
};

class CheckpointStore {
 public:
  /// `tl` prices durable writes; `fault` (may be null) injects torn/corrupt
  /// checkpoint hazards. Neither is owned.
  CheckpointStore(const CheckpointOptions& opt, sim::Timeline* tl,
                  sim::FaultModel* fault);

  /// True when the cadence says `request_id` (having completed `step` decode
  /// steps, now at simulated time `now`) should checkpoint. The first call
  /// for a request anchors its time trigger at `now`.
  bool due(long long request_id, long long step, double now);

  /// Records a sealed snapshot, schedules its durable-write cost, applies
  /// write faults to the stored bytes, and trims old generations. Returns
  /// the durability time.
  double write(long long request_id, long long step, double now,
               std::vector<std::uint8_t> sealed);

  /// Newest record for `request_id` that is durable by `now` AND whose bytes
  /// unseal cleanly. Rejected generations are counted in stats().torn_rejected
  /// and skipped (fall back to the previous generation). Null when nothing
  /// valid exists. A non-null `payload` receives the returned record's
  /// unsealed payload, so a restorer need not unseal it again.
  const CheckpointRecord* latest_valid(
      long long request_id, double now,
      std::vector<std::uint8_t>* payload = nullptr);

  /// All retained generations for a request, oldest first (test accessor).
  const std::deque<CheckpointRecord>* generations(long long request_id) const;

  /// Drops every generation for a request (e.g. after it resolves).
  void drop(long long request_id);

  /// Drops every record whose durable write had not completed by `t`: the
  /// node crashed mid-write, so the blob never landed. Counted as torn
  /// writes. Completed generations survive (durable storage).
  void discard_in_flight(double t);

  const CheckpointStoreStats& stats() const { return stats_; }

 private:
  struct PerRequest {
    bool anchored = false;
    long long last_step = 0;
    double last_time = 0.0;
    std::deque<CheckpointRecord> gens;  // oldest first
  };

  CheckpointOptions opt_;
  sim::Timeline* tl_;
  sim::FaultModel* fault_;
  std::unordered_map<long long, PerRequest> req_;
  CheckpointStoreStats stats_;
};

}  // namespace daop::recovery
