// Dynamic sparsity-aware expert cache (ROADMAP item 2).
//
// DAOP freezes expert placement after prefill; MoE-Infinity-style systems
// instead keep re-scoring experts as routing drifts mid-sequence or as
// concurrent sessions contend for the same GPU slots. ExpertCache is the
// policy family behind `--cache-policy`: it observes every expert execution
// (GPU and CPU) across all live sessions, and at a fixed decode-token cadence
// proposes swaps that promote hot CPU-resident experts over cold GPU-resident
// victims. The cache only *plans*; SequenceSession::maybe_cache_realloc()
// executes each plan as an ordinary migration under the existing cost model,
// hazard plane, and retry discipline, then commits the swap through the
// PlacementArbiter so pinned working sets stay inviolable. Every committed
// eviction/fill lands exactly once in the ledger, which is what the
// invariant harness (tests/cache/expert_cache_invariants_test.cpp) and the
// `daop_cache_*` metric families audit.
//
// Policy `frozen` constructs no ExpertCache at all: every wiring site checks
// a nullptr, so frozen runs are byte-identical to the pre-cache goldens.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cache/placement.hpp"
#include "common/check.hpp"
#include "data/routing_trace.hpp"

namespace daop::cache {

class PlacementArbiter;

/// Eviction/promotion scoring family. kFrozen is the DAOP paper's behaviour
/// (placement fixed after prefill); the rest re-migrate during decode.
enum class CachePolicy {
  kFrozen,              ///< No dynamic cache; placement frozen at prefill.
  kLru,                 ///< Score = last execution time (recency).
  kLfu,                 ///< Score = cumulative execution count.
  kActivationWeighted,  ///< Score = EWMA of per-interval activation counts.
  kReusePredictor,      ///< MoE-Infinity style: aggregate sequence-level
                        ///< reuse signatures of all live sessions.
};

const char* cache_policy_name(CachePolicy policy);
/// Parses a policy name; CHECK-fails listing the valid names on a typo.
CachePolicy parse_cache_policy(const std::string& name);
/// All policies, frozen first (CLI/report ordering).
std::vector<CachePolicy> all_cache_policies();

/// EWMA decay for kActivationWeighted (score = decay*old + interval count).
inline constexpr double kActivationDecay = 0.5;
/// Retry/deadline discipline for cache migrations (same semantics as
/// DaopConfig: retries spent or deadline passed => abort, keep old expert).
inline constexpr int kMigrationRetries = 2;
inline constexpr double kMigrationDeadlineFactor = 4.0;

struct ExpertCacheOptions {
  CachePolicy policy = CachePolicy::kFrozen;
  /// Decode tokens between reallocation scans (per session).
  int realloc_interval = 4;
  /// Max swaps committed per scan (PCIe budget per decode step).
  int max_swaps_per_step = 2;
  /// A CPU expert must out-score the GPU victim by this fraction of the
  /// layer's score spread (max - min) before a swap is planned. Relative so
  /// one knob works across policies whose score units differ (timestamps
  /// for lru, counts for lfu); suppresses thrashing on near-tied scores.
  double hysteresis = 0.05;

  /// True when a dynamic policy is selected. Frozen == no cache object.
  bool enabled() const { return policy != CachePolicy::kFrozen; }
  void validate() const;
};

/// One committed placement change. A swap appends a kEvict for the demoted
/// expert then a kFill for the promoted one, so every byte moved appears
/// exactly once in the ledger.
struct CacheEvent {
  enum class Kind { kEvict, kFill };
  Kind kind = Kind::kFill;
  int layer = 0;
  int expert = 0;        ///< The expert this event moved.
  int peer = 0;          ///< The other half of the swap pair.
  long long session = 0; ///< Session whose scan committed the swap.
  double time = 0.0;     ///< Simulated commit time (migration done).
  /// Arbiter pins held by *other* sessions on the evicted expert at commit
  /// time. Invariant (a): always 0 — pinned working sets are inviolable.
  int victim_other_pins = 0;
  /// GPU-resident expert count of `layer` after the event, and the layer's
  /// slot capacity. Invariant (b): gpu_count_after <= capacity.
  int gpu_count_after = 0;
  int capacity = 0;
};

/// A swap the arbiter refused (the victim was pinned between plan and
/// commit). `holders` names the contending sessions so refusal diagnostics
/// can say *who* blocked the eviction, not just that it happened.
struct CacheRefusal {
  int layer = 0;
  int expert_in = 0;
  int expert_out = 0;
  long long session = 0;
  double time = 0.0;
  std::vector<long long> holders;  ///< Contending session ids, sorted.

  /// Human-readable diagnostic naming the contending sessions.
  std::string describe() const;
};

/// A swap proposed by plan(): promote `expert_in` (CPU) over `expert_out`
/// (GPU) in `layer`. Execution/commit is the session's job.
struct PlannedSwap {
  int layer = 0;
  int expert_in = 0;
  int expert_out = 0;
};

/// Cross-session demand tracker + swap planner. One instance is shared by
/// every live session of a scheduler (or per cluster node); all state
/// updates are deterministic and iteration-order-stable (flat vectors plus
/// an ordered map of session signatures — never an unordered container).
class ExpertCache {
 public:
  ExpertCache(const ExpertCacheOptions& options, int n_layers, int n_experts);

  const ExpertCacheOptions& options() const { return opt_; }
  int n_layers() const { return n_layers_; }
  int n_experts() const { return n_experts_; }

  /// Registers a session's prefill routing trace as its initial reuse
  /// signature (kReusePredictor aggregates these across live sessions).
  void note_session_open(long long session, const data::SequenceTrace& trace);
  /// Drops the session's signature. Idempotent — close()/abandon()/RAII
  /// destruction may each call it.
  void note_session_close(long long session);
  /// Observes one expert execution (GPU or CPU) at simulated time `t`.
  /// Inline: every expert execution of every cached session lands here.
  void note_use(int layer, int expert, long long session, double t) {
    const std::size_t i = idx(layer, expert);
    last_use_[i] = std::max(last_use_[i], t);
    freq_[i] += 1.0;
    // Only kReusePredictor ever reads the per-session signatures.
    if (opt_.policy == CachePolicy::kReusePredictor) {
      note_signature_use(i, session);
    }
  }

  /// Plans up to max_swaps_per_step promotions for `session` given the
  /// current shared placement. Victims pinned by *other* sessions are
  /// skipped (their demand is live by definition); remaining GPU slots are
  /// scored by aggregate demand. Pure planning — no placement mutation.
  /// The plan lives in cache scratch, valid until the next plan() call.
  std::span<const PlannedSwap> plan(const Placement& placement,
                                    const PlacementArbiter* arbiter,
                                    long long session);

  /// Records a committed swap. `victim_other_pins` is the arbiter's pin
  /// count for other sessions on expert_out at commit time (invariantly 0);
  /// `placement` is read *after* the swap for gpu_count/capacity capture.
  void commit(const PlannedSwap& swap, long long session, double time,
              int victim_other_pins, const Placement& placement);
  /// Records an arbiter refusal with the contending session ids.
  void record_refusal(const PlannedSwap& swap, long long session, double time,
                      std::vector<long long> holders);
  /// Records a migration abandoned by the retry/deadline discipline.
  void record_abort(const PlannedSwap&, long long /*session*/, double /*time*/) {
    ++aborts_;
  }

  const std::vector<CacheEvent>& ledger() const { return ledger_; }
  const std::vector<CacheRefusal>& refusals() const { return refusals_; }
  long long fills() const { return fills_; }
  long long evictions() const { return evictions_; }
  long long aborts() const { return aborts_; }
  long long plans() const { return plans_; }

  /// Current demand score of (layer, expert) under the active policy.
  double score(int layer, int expert) const;

  /// Fig8-style attribution report: policy, scan/commit totals, and the
  /// most-migrated experts (where the dynamic wins come from).
  std::string report() const;

 private:
  /// kReusePredictor's half of note_use, out of line: a map lookup.
  void note_signature_use(std::size_t i, long long session);
  std::size_t idx(int layer, int expert) const {
    DAOP_CHECK(layer >= 0 && layer < n_layers_);
    DAOP_CHECK(expert >= 0 && expert < n_experts_);
    return static_cast<std::size_t>(layer) *
               static_cast<std::size_t>(n_experts_) +
           static_cast<std::size_t>(expert);
  }
  /// The active policy's flat score array, or nullptr for kReusePredictor,
  /// whose score is summed over the live signatures on every read.
  const double* score_array() const;
  /// kReusePredictor's score of the flat cell index `i`: the live sessions'
  /// signatures summed in ascending session-id order (bit-stable).
  double reuse_score(std::size_t i) const;

  ExpertCacheOptions opt_;
  int n_layers_ = 0;
  int n_experts_ = 0;

  // Flat [layer * n_experts + expert] demand statistics.
  std::vector<double> last_use_;   // kLru: latest execution time.
  std::vector<double> freq_;       // kLfu: cumulative execution count.
  std::vector<double> ewma_;       // kActivationWeighted: decayed rate.
  std::vector<double> prev_freq_;  // freq_ snapshot at last EWMA update.

  // kReusePredictor: per-live-session activation signatures, seeded from
  // the prefill trace and updated by note_use. Ordered map so aggregate
  // scores sum in deterministic session order.
  std::map<long long, std::vector<double>> live_;

  // plan() scratch, reused across layers and scans so a scan allocates
  // nothing once warm: one layer's kReusePredictor scores, its (score,
  // expert) victims and candidates, and the plan itself.
  std::vector<double> layer_scores_;
  std::vector<std::pair<double, int>> victims_;
  std::vector<std::pair<double, int>> candidates_;
  std::vector<PlannedSwap> plan_;

  std::vector<CacheEvent> ledger_;
  std::vector<CacheRefusal> refusals_;
  long long fills_ = 0;
  long long evictions_ = 0;
  long long aborts_ = 0;
  long long plans_ = 0;
};

}  // namespace daop::cache
