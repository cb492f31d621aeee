// ClusterRouter: fault-tolerant dispatch across N replicated serving nodes.
//
// One node is the single-device serving plane PR 1-5 built: an engine, a
// sim::Timeline, a cache::PlacementArbiter-owned expert placement, a
// degradation controller, and a continuous-batching-style session loop
// (admit the queue head into a free slot, or advance the least-advanced
// in-flight session by one token — eval/continuous_batching.cpp's loop,
// replicated per node). The router composes N of them behind one dispatch
// point and adds the robustness plane the ROADMAP's "millions of users"
// target needs:
//
//  - DISPATCH POLICIES: round-robin (rotation over eligible nodes),
//    least-loaded (queue depth, then projected admission start), and
//    expert-affinity (MoE-Infinity-style: score each node by the fraction
//    of the sequence's prefill activation signature resident in the node's
//    GPU expert cache; sticky-routes similar sequences to warm replicas).
//  - NODE FAULTS: a node whose FaultModel draws a crash dies at a
//    deterministic per-seed simulated time; in-flight sessions are
//    destroyed WITHOUT close() (their arbiter pins are released by the
//    session's RAII pin guard), queued work is lost, and the node never
//    returns. Brownouts slow one node's GPU/PCIe ops; link degradation
//    inflates one node's dispatch latency.
//  - HEALTH-CHECKED ROUTING: a HealthChecker (cluster/health.hpp) probes on
//    a simulated cadence and ejects/re-admits nodes; ejected nodes drain
//    their in-flight work but receive no new dispatches. With health
//    checking off the router keeps dispatching to dead nodes — each such
//    dispatch is only discovered lost after a failover backoff.
//  - SESSION FAILOVER: a request whose every live copy is lost (node crash
//    or dead dispatch) is re-dispatched to another node under a bounded
//    per-request retry budget, re-running prefill from the recorded routing
//    trace; every token a dead predecessor generated is accounted as
//    replayed. Budget exhausted => shed with ShedReason::kNodeLost.
//  - HEDGED DISPATCH (optional): when the chosen node's projected TTFT
//    exceeds a threshold the request is duplicated to a second node; the
//    first completed copy wins, the loser is cancelled and its pins
//    released (SequenceSession::abandon).
//
// Deterministic: every decision is a pure function of (enqueue order,
// per-seed node fault draws), with fixed tie-breaks — event priority
// crash < probe < dispatch < node admit/step, then lowest node id.
// Conservation is DAOP_CHECKed: every request resolves exactly once
// (served or shed) no matter how many copies or failover attempts it
// consumed, and every node's arbiter ends with zero pins.
//
// PARALLEL NODE WINDOWS: run() steps the nodes concurrently between the
// router events that need every node in step (a crash, a launch, and a
// probe round when slow-probe detection reads node state). Each node runs
// its own admit/step/close events up to that horizon on
// ThreadPool::global(), journaling whatever they do to shared state (the
// request's resolution, recovery records, time-series writes, the gauges
// ts_tick samples). The caller then merges the journals in the order the
// one-event-at-a-time loop would have run those events, interleaving probe
// rounds, so every output is byte-identical at any thread count. A warm
// restore scans every node's checkpoint store, so a node's window stops
// before one and the caller runs it at its turn. Windows hold one event
// when shared writes happen inside node events: a tracer is attached
// (sessions write spans) or hedging is on (a completion cancels copies on
// other nodes).
#pragma once

#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cache/arbiter.hpp"
#include "cache/expert_cache.hpp"
#include "cache/placement.hpp"
#include "cluster/health.hpp"
#include "data/routing_trace.hpp"
#include "engines/engine.hpp"
#include "engines/session.hpp"
#include "eval/overload.hpp"
#include "obs/span_tracer.hpp"
#include "obs/timeseries.hpp"
#include "recovery/checkpoint_store.hpp"
#include "sim/fault_model.hpp"
#include "sim/timeline.hpp"

namespace daop::cluster {

enum class DispatchPolicy {
  kRoundRobin,
  kLeastLoaded,
  kExpertAffinity,
};

const char* dispatch_policy_name(DispatchPolicy policy);
/// Parses "round-robin" | "least-loaded" | "expert-affinity"; CHECK-fails
/// with a message listing the valid names otherwise.
DispatchPolicy parse_dispatch_policy(const std::string& name);

/// Router configuration. Defaults give a plain round-robin router with one
/// failover retry and no health checking, hedging, or deadlines.
struct ClusterOptions {
  /// In-flight session bound per node (same meaning as the single-node
  /// scheduler's max_concurrent).
  int max_concurrent_per_node = 4;
  DispatchPolicy dispatch = DispatchPolicy::kRoundRobin;
  HealthOptions health;
  /// Failover: how many times one request may be re-dispatched after its
  /// copies were lost (node crash or dispatch to a dead node) before it is
  /// shed with ShedReason::kNodeLost.
  int failover_budget = 1;
  /// Delay between losing a request and its failover re-dispatch; also the
  /// detection delay for a dispatch sent to a dead node. Must be > 0 so
  /// retry loops always advance simulated time.
  double failover_backoff_s = 0.01;
  /// Projected admission-to-first-token service time (operators calibrate
  /// it from a calm run, like OverloadOptions::service_estimate_s). Drives
  /// least-loaded scoring, slow-probe detection, deadline shedding and the
  /// hedging trigger.
  double service_estimate_s = 0.0;
  /// Per-request first-token budget measured from the ORIGINAL arrival
  /// (failovers never extend it). A copy whose projected first token lands
  /// past the deadline is dropped at admission; when that was the last live
  /// copy the request is shed (kDeadline). 0 = no deadline.
  double deadline_s = 0.0;
  /// Hedged dispatch: when > 0 and the chosen node's projected TTFT at
  /// dispatch exceeds this threshold, the request is duplicated to the
  /// least-loaded other eligible node. First completion wins; the losing
  /// copy is cancelled with its pins released. 0 disables hedging. Hedging
  /// makes run() step one node event at a time (a completion cancels its
  /// twin on another node).
  double hedge_ttft_threshold_s = 0.0;
  /// Per-node degradation ladder (eval/overload.hpp), observed at each
  /// node's admissions with that node's own fault-plane telemetry.
  eval::DegradationOptions degrade;
  /// Dynamic expert-cache policy (cache/expert_cache.hpp), instantiated
  /// PER NODE: each replica's cache scores demand across its own live
  /// sessions. Policy `frozen` (the default) constructs no caches and keeps
  /// every node on its prefill-frozen placement (bit-identical).
  cache::ExpertCacheOptions cache;
  /// Crash-consistent checkpointing (recovery/checkpoint_store.hpp),
  /// instantiated PER NODE when enabled: decoding sessions snapshot at the
  /// configured cadence (durable writes priced on the node timeline), and a
  /// failover re-dispatch warm-restarts from the newest valid snapshot
  /// found on ANY node's store instead of replaying prefill. Disabled (the
  /// default) performs zero checkpoint work and zero fault-stream draws —
  /// bit-identical to the pre-recovery router.
  recovery::CheckpointOptions checkpoint;
  /// Explicit chaos injection for acceptance tests: crash `crash_node` at
  /// exactly `crash_time_s` (overrides that node's fault-model crash draw).
  /// -1 = no override; otherwise a node id in 0..n_nodes-1 (checked by the
  /// router, which knows the node count).
  int crash_node = -1;
  double crash_time_s = 0.0;
  /// Receives router-level instants (crashes, ejections, failovers,
  /// hedges) and every node's session spans. nullptr disables. Attaching
  /// one makes run() step one node event at a time (sessions on different
  /// nodes would otherwise write spans concurrently).
  obs::SpanTracer* tracer = nullptr;
  /// Windowed time-series recorder (obs/timeseries.hpp). Channel
  /// convention: channels 0..n_nodes-1 carry per-node series (hazard
  /// stall, queue depth, active sessions, dispatches, checkpoint writes);
  /// channel n_nodes is the router-level "cluster" channel (client-observed
  /// outcome counters and latency histograms, crashes, health transitions,
  /// loss episodes). Strictly passive like the tracer: consulted only after
  /// each event is chosen, behind a null-pointer gate. nullptr disables.
  obs::TimeSeriesRecorder* tseries = nullptr;
  /// Turns on per-node Timeline interval recording so a profiler can
  /// attribute each node's whole window after the run. Recording is passive
  /// by Timeline contract — it never changes a scheduling decision.
  bool record_intervals = false;

  void validate() const;
};

/// Why a lost request copy triggered a failover re-dispatch.
enum class FailoverReason {
  kNodeCrash,     ///< the node died with the copy queued or in flight
  kDeadDispatch,  ///< the copy was dispatched to an already-dead node
                  ///< (health checking off, or the crash not yet detected)
};

/// Router-level telemetry for one completed run.
struct ClusterStats {
  long long dispatches = 0;  ///< request copies handed to a node
  long long failovers_node_crash = 0;
  long long failovers_dead_dispatch = 0;
  long long replayed_tokens = 0;  ///< tokens regenerated by failover re-runs
  long long hedges = 0;        ///< duplicated dispatches issued
  long long hedge_wins = 0;    ///< requests whose hedge copy finished first
  long long hedge_cancels = 0; ///< losing copies cancelled
  long long shed_node_lost = 0;
  long long shed_deadline = 0;
  long long shed_degraded = 0;
  long long crashes = 0;
  long long ejections = 0;
  long long readmissions = 0;
  std::vector<long long> node_dispatched;  ///< per node
  std::vector<long long> node_served;      ///< per node
  /// Per-node end state: 0 = crashed, 1 = alive but ejected, 2 = in
  /// service.
  std::vector<int> node_final_state;

  long long failovers_total() const {
    return failovers_node_crash + failovers_dead_dispatch;
  }
};

/// One loss episode's resolution (test/telemetry record). A loss episode
/// opens when a request's LAST live copy is lost and closes exactly once:
/// warm-restored from a checkpoint, replayed from prefill, or shed.
struct RestoreEvent {
  long long request_id = 0;
  int node = -1;          ///< node the recovered session was admitted on
  bool restored = false;  ///< warm restore (else prefill replay)
  long long step = 0;     ///< decode step resumed at (0 for replay)
  double loss_time = 0.0;   ///< when the last live copy was lost
  double admit_time = 0.0;  ///< when the recovered copy was admitted
  double latency_s = 0.0;   ///< recovery frontier - loss_time
};

/// Warm-restart recovery telemetry for one completed run. Conservation is
/// DAOP_CHECKed at the end of run():
///   lost_sessions == recovered_restored + recovered_replayed +
///                    recovered_shed.
struct RecoveryStats {
  // Checkpoint plane (aggregated over every node's store).
  long long checkpoints_written = 0;
  long long checkpoint_bytes = 0;
  long long torn_writes = 0;     ///< injected torn writes + died-with-node
  long long corrupt_writes = 0;  ///< injected single-byte corruptions
  long long torn_rejected = 0;   ///< snapshots rejected by unseal() at scan
  // Restore plane.
  long long restores = 0;         ///< successful SequenceSession::restore
  long long restored_tokens = 0;  ///< decode steps NOT regenerated
  long long fallbacks_no_checkpoint = 0;  ///< no valid snapshot anywhere
  long long fallbacks_invalid = 0;        ///< restore() rejected the blob
  long long reconcile_migrations = 0;
  long long reconcile_evictions = 0;
  long long reconcile_refusals = 0;
  // Loss-episode conservation.
  long long lost_sessions = 0;
  long long recovered_restored = 0;
  long long recovered_replayed = 0;
  long long recovered_shed = 0;
  /// Per-episode recovery latency (restored + replayed; sheds excluded).
  std::vector<double> recovery_latency_s;
  std::vector<RestoreEvent> events;
};

class ClusterRouter {
 public:
  /// Everything one replica brings to the cluster. The router owns the
  /// engine (sessions capture the engine's fault model at open, so each
  /// node needs its own instance) and the optional per-node fault model;
  /// `initial` seeds the node's arbitrated expert placement. The engine's
  /// span sink is replaced by ClusterOptions::tracer.
  struct NodeSeat {
    std::unique_ptr<engines::Engine> engine;
    std::unique_ptr<sim::FaultModel> fault;  ///< nullptr = calm node
    cache::Placement initial{1, 1};
  };

  struct Request {
    long long id = 0;
    double arrival = 0.0;  ///< client arrival at the router
    /// Per-request deadline budget override; 0 uses ClusterOptions::
    /// deadline_s.
    double deadline_s = 0.0;
    data::SequenceTrace trace;
  };

  /// One request's client-observed outcome. Exactly one of served/shed
  /// holds for every enqueued request regardless of how many copies or
  /// failover attempts it consumed (conservation is DAOP_CHECKed).
  struct Outcome {
    long long id = 0;
    double arrival = 0.0;
    bool served = false;
    bool shed = false;
    eval::ShedReason shed_reason = eval::ShedReason::kNodeLost;
    int node = -1;       ///< serving node (served only)
    double start = 0.0;  ///< admission time on the serving node
    double end = 0.0;    ///< completion time (served only)
    int failovers = 0;   ///< re-dispatches this request consumed
    long long replayed_tokens = 0;  ///< tokens dead predecessors generated
    bool hedged = false;
    bool hedge_won = false;  ///< served by the hedge copy, not the primary
    /// Loss episodes this request recovered via warm restore.
    int restores = 0;
    /// How the LAST loss episode resolved: "restored" | "replayed" |
    /// "shed"; empty when the request never lost all its copies.
    std::string recovery;
    engines::RunResult result;  ///< served only; times relative to `start`
  };

  ClusterRouter(std::vector<NodeSeat> seats, const ClusterOptions& options);

  /// Enqueues one request. Requests must arrive in nondecreasing order, and
  /// all of them before run(): every session the router opens borrows its
  /// request's trace from the request table, which must not reallocate.
  void enqueue(Request request);

  /// Drives every enqueued request to served or shed and returns the
  /// outcomes sorted by request id. Call at most once. Steps the nodes in
  /// parallel windows on ThreadPool::global() (see the file comment); the
  /// outputs do not depend on the thread count.
  std::vector<Outcome> run();

  const ClusterStats& stats() const { return stats_; }
  const std::vector<HealthEvent>& health_events() const {
    return health_.events();
  }
  int n_nodes() const { return static_cast<int>(nodes_.size()); }
  const sim::Timeline& node_timeline(int node) const {
    return nodes_[static_cast<std::size_t>(node)].timeline;
  }
  /// Leaked-pin audit across every node's arbiter (0 after a clean run;
  /// also DAOP_CHECKed internally at the end of run()).
  int total_leaked_pins() const;
  /// Node `node`'s dynamic cache, or nullptr under policy `frozen`.
  const cache::ExpertCache* node_cache(int node) const {
    return nodes_[static_cast<std::size_t>(node)].cache.get();
  }
  /// Warm-restart recovery telemetry (fully populated after run()).
  const RecoveryStats& recovery() const { return recovery_; }

 private:
  /// One request copy waiting in a node's admission queue.
  struct QueuedCopy {
    std::size_t track = 0;
    double ready = 0.0;  ///< dispatch time + node link latency
    bool hedge = false;
  };
  /// One request copy in flight on a node.
  struct ActiveCopy {
    std::size_t track = 0;
    double start = 0.0;
    bool hedge = false;
    std::unique_ptr<engines::SequenceSession> session;
  };
  /// What ts_tick samples of one node.
  struct NodeGauge {
    double stall = 0.0;       ///< timeline hazard-stall total
    std::size_t queue = 0;    ///< copies waiting for admission
    std::size_t active = 0;   ///< sessions in flight
  };
  /// One node event's writes to state the node does not own, left for the
  /// caller to apply in merge order (see run()).
  struct NodeEntry {
    enum class Kind : std::uint8_t {
      kLocal,       ///< nothing shared beyond the gauges
      kHeld,        ///< not run: an admission the caller must run (restore)
      kCheckpoint,  ///< wrote a checkpoint
      kRecovered,   ///< resolved a loss episode at admission (`recovery`)
      kShed,        ///< shed the request at admission (`shed_reason`)
      kServed,      ///< completed the request (its Outcome holds the rest)
    };
    double t = 0.0;
    Kind kind = Kind::kLocal;
    std::size_t track = 0;
    eval::ShedReason shed_reason = eval::ShedReason::kDeadline;
    NodeGauge after;  ///< the node's gauges once the event ran
    RestoreEvent recovery;
  };
  /// A node's next admit/step/close event (t = +inf: none). Admission wins
  /// a tie against stepping, as in the single-node scheduler loops.
  struct NodeEvent {
    double t = std::numeric_limits<double>::infinity();
    bool admit = false;
    std::size_t step = 0;  ///< index into `active` (stepping)
    std::size_t slot = 0;  ///< index into `free_slots` (admitting)
  };
  struct Node {
    int id = -1;
    std::unique_ptr<engines::Engine> engine;
    std::unique_ptr<sim::FaultModel> fault;
    sim::Timeline timeline;
    std::unique_ptr<cache::PlacementArbiter> arbiter;
    std::unique_ptr<cache::ExpertCache> cache;  ///< null: policy frozen
    std::unique_ptr<recovery::CheckpointStore> ckpt;  ///< null: disabled
    std::unique_ptr<eval::DegradationController> degrade;
    bool alive = true;
    double crash_time = std::numeric_limits<double>::infinity();
    double link_latency = 0.0;
    std::deque<QueuedCopy> pending;
    std::vector<ActiveCopy> active;
    std::vector<double> free_slots;
    /// Migration totals of the node's closed sessions.
    eval::DegradationController::Signals closed;
    /// This window's events, in the node's own order (storage reused).
    std::vector<NodeEntry> journal;
  };
  /// Per-request routing state: how many live copies exist and what the
  /// failover path has consumed so far.
  struct Track {
    Request request;
    int failovers = 0;
    long long replayed_tokens = 0;
    int live_copies = 0;
    bool hedged = false;
    bool resolved = false;
    /// Loss-episode state: `loss_open` holds from the instant the last live
    /// copy is lost until the episode resolves (restored / replayed at the
    /// next admission, or shed). Chained losses before re-admission — e.g.
    /// a failover dispatched into a still-undetected dead node — extend the
    /// SAME episode, keeping the FIRST loss time for latency accounting.
    bool loss_open = false;
    double loss_time = 0.0;
    int restores = 0;
    const char* last_recovery = "";
  };
  /// An undispatched (or re-dispatched) request copy at the router.
  struct Launch {
    double time = 0.0;
    std::size_t track = 0;
  };

  double projected_start(const Node& n, double t) const;
  double projected_ttft(const Node& n, double t, double arrival) const;
  double affinity(const Node& n, const data::SequenceTrace& trace) const;
  int pick_node(const std::vector<int>& eligible,
                const data::SequenceTrace& trace, double t);
  int least_loaded_of(const std::vector<int>& eligible, double t,
                      int exclude) const;
  eval::DegradationController::Signals node_signals(const Node& n) const;
  void dispatch_copy(std::size_t track, int node_id, double t, bool hedge);
  void lost_copy(std::size_t track, int tokens_done, double t,
                 FailoverReason reason);
  /// Attempts a warm restart for a loss-open track being admitted on `n` at
  /// `t_admit`: scans every node's store for the newest valid snapshot,
  /// reconciles `n`'s placement toward the snapshot image, and restores
  /// `session`. On failure (no snapshot / rejected blob) counts the
  /// fallback and leaves the session fresh for prefill replay.
  /// `recovery_ready` receives the reconcile migration frontier.
  bool try_warm_restore(Node& n, Track& tr,
                        engines::SequenceSession& session, double t_admit,
                        double& recovery_ready);
  /// Drops a resolved request's snapshots from every node's store.
  void drop_checkpoints(long long request_id);
  void cancel_copies(std::size_t track, double now);
  void crash_node(Node& n, double t);
  void probe_round(double t);

  // ---- Node stepping: each touches only the node, the requests it hosts
  // and its journal, so nodes step concurrently between router events. ----
  /// The node's next event; next_event(n).t is its next event time.
  NodeEvent next_event(const Node& n) const;
  /// Runs event `e` (which must be next_event(n)) and fills `out`.
  /// `alone`: no other node steps concurrently, so a warm restore may scan
  /// every node's checkpoint store.
  void step(Node& n, const NodeEvent& e, bool alone, NodeEntry& out);
  void admit(Node& n, const NodeEvent& e, bool alone, NodeEntry& out);
  void advance(Node& n, const NodeEvent& e, NodeEntry& out);
  /// Steps `n` through up to `max_events` of its events with t < horizon,
  /// appending them to its journal. Not `alone`, it stops before an
  /// admission that needs a warm restore, journaling it as held.
  void run_node(Node& n, double horizon, bool alone, std::size_t max_events);
  /// One window, opened by node `first`'s event (the earliest, and before
  /// every router event): steps the nodes up to the next router event that
  /// needs them in step, then merges their journals.
  void run_window(int first);
  /// Applies one journal entry at its merge turn.
  void apply(Node& n, const NodeEntry& e);
  static NodeGauge gauge(const Node& n) {
    return {n.timeline.hazard_stall_s(), n.pending.size(), n.active.size()};
  }

  void resolve_served(std::size_t track);
  void resolve_shed(std::size_t track, eval::ShedReason reason, double t);
  void tinstant(long long request_id, const std::string& name, double t);

  // ---- Time-series hooks (all no-ops when options_.tseries is null or
  // disabled; see ClusterOptions::tseries for the channel convention). ----
  bool ts_on() const {
    return options_.tseries != nullptr && options_.tseries->enabled();
  }
  int ts_cluster_channel() const { return n_nodes(); }
  /// Advances every channel to the chosen event time and samples per-node
  /// hazard-stall totals and queue/occupancy gauges from `gauges_`.
  void ts_tick(double t);
  void ts_served(const Track& tr, const Outcome& o);
  void ts_shed(const Track& tr, eval::ShedReason reason, double t);

  /// The node-channel series sampled per router event, declared once.
  struct NodeSeries {
    obs::SeriesHandle stall;
    obs::SeriesHandle queue_depth;
    obs::SeriesHandle active;
    obs::SeriesHandle in_service;
    obs::SeriesHandle checkpoints;
  };

  std::vector<Node> nodes_;
  ClusterOptions options_;
  HealthChecker health_;
  std::vector<Track> tracks_;
  std::vector<Launch> launches_;
  std::vector<Outcome> outcomes_;  ///< indexed by track
  std::size_t unresolved_ = 0;
  int rr_cursor_ = 0;
  bool ran_ = false;
  ClusterStats stats_;
  RecoveryStats recovery_;
  std::vector<NodeSeries> ts_nodes_;  ///< indexed by node id; empty: off
  /// Each node's gauges at the merge cursor (ts_tick's sample).
  std::vector<NodeGauge> gauges_;
  /// Windows hold one event: a tracer or hedging writes shared state from
  /// inside node events.
  bool one_event_windows_ = false;
  std::vector<int> window_nodes_;  ///< nodes stepping in this window
  std::vector<std::size_t> cursors_;  ///< per node: next journal entry
  std::uint32_t tracer_track_ = 0;
};

}  // namespace daop::cluster
