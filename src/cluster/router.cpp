#include "cluster/router.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>

#include "common/check.hpp"
#include "recovery/reconcile.hpp"

namespace daop::cluster {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = static_cast<std::size_t>(-1);
}  // namespace

const char* dispatch_policy_name(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kRoundRobin:
      return "round-robin";
    case DispatchPolicy::kLeastLoaded:
      return "least-loaded";
    case DispatchPolicy::kExpertAffinity:
      return "expert-affinity";
  }
  DAOP_CHECK_MSG(false, "unreachable dispatch policy");
  return "";
}

DispatchPolicy parse_dispatch_policy(const std::string& name) {
  if (name == "round-robin") return DispatchPolicy::kRoundRobin;
  if (name == "least-loaded") return DispatchPolicy::kLeastLoaded;
  if (name == "expert-affinity") return DispatchPolicy::kExpertAffinity;
  DAOP_CHECK_MSG(
      false, "unknown dispatch policy '"
                 << name
                 << "' (valid: round-robin, least-loaded, expert-affinity)");
  return DispatchPolicy::kRoundRobin;
}

void ClusterOptions::validate() const {
  DAOP_CHECK_GE(max_concurrent_per_node, 1);
  health.validate();
  DAOP_CHECK_GE(failover_budget, 0);
  DAOP_CHECK_MSG(failover_backoff_s > 0.0,
                 "failover_backoff_s must be > 0 so dead-dispatch retry "
                 "loops always advance simulated time");
  DAOP_CHECK_GE(service_estimate_s, 0.0);
  DAOP_CHECK_GE(deadline_s, 0.0);
  DAOP_CHECK_GE(hedge_ttft_threshold_s, 0.0);
  DAOP_CHECK_MSG(hedge_ttft_threshold_s == 0.0 || service_estimate_s > 0.0,
                 "hedged dispatch needs service_estimate_s to project TTFT");
  degrade.validate();
  cache.validate();
  checkpoint.validate();
  DAOP_CHECK_GE(crash_time_s, 0.0);
}

ClusterRouter::ClusterRouter(std::vector<NodeSeat> seats,
                             const ClusterOptions& options)
    : options_(options),
      health_(options.health, static_cast<int>(seats.size())) {
  options_.validate();
  DAOP_CHECK_GE(seats.size(), std::size_t{1});
  nodes_.reserve(seats.size());
  for (std::size_t i = 0; i < seats.size(); ++i) {
    NodeSeat& seat = seats[i];
    DAOP_CHECK_MSG(seat.engine != nullptr, "node seat needs an engine");
    Node n;
    n.id = static_cast<int>(i);
    n.engine = std::move(seat.engine);
    n.fault = std::move(seat.fault);
    n.arbiter =
        std::make_unique<cache::PlacementArbiter>(std::move(seat.initial));
    if (options_.cache.enabled()) {
      // Per-node cache: each replica scores demand across its own sessions.
      n.cache = std::make_unique<cache::ExpertCache>(
          options_.cache, n.arbiter->placement().n_layers(),
          n.arbiter->placement().n_experts());
    }
    if (options_.degrade.enabled) {
      n.degrade =
          std::make_unique<eval::DegradationController>(options_.degrade);
    }
    n.free_slots.assign(
        static_cast<std::size_t>(options_.max_concurrent_per_node), 0.0);
    if (n.fault != nullptr) {
      n.engine->set_fault_model(n.fault.get());
      const sim::FaultModel::NodeFaults& nf = n.fault->node_faults();
      if (nf.crash) n.crash_time = nf.crash_time_s;
      if (nf.link_degraded) n.link_latency = nf.link_latency_s;
    }
    if (options_.tracer != nullptr) n.engine->set_tracer(options_.tracer);
    nodes_.push_back(std::move(n));
  }
  if (options_.crash_node >= 0) {
    DAOP_CHECK_LT(options_.crash_node, n_nodes());
    nodes_[static_cast<std::size_t>(options_.crash_node)].crash_time =
        options_.crash_time_s;
  }
  if (options_.checkpoint.enabled()) {
    // Constructed only after nodes_ stops moving: each store captures its
    // node timeline's address. Durable writes are priced on the node's own
    // timeline and torn/corrupted by the node's own fault streams.
    for (Node& n : nodes_) {
      n.ckpt = std::make_unique<recovery::CheckpointStore>(
          options_.checkpoint, &n.timeline, n.fault.get());
    }
  }
  if (options_.record_intervals) {
    for (Node& n : nodes_) n.timeline.set_record_intervals(true);
  }
  if (ts_on()) {
    // Channel convention: one channel per node plus the trailing router
    // "cluster" channel (see ClusterOptions::tseries).
    DAOP_CHECK_GE(options_.tseries->n_channels(), n_nodes() + 1);
  }
  if (options_.tracer != nullptr) {
    tracer_track_ = options_.tracer->track("Cluster");
  }
}

void ClusterRouter::enqueue(Request request) {
  // Sessions borrow their request's trace from tracks_, so tracks_ must not
  // grow (and reallocate) once run() has started opening them.
  DAOP_CHECK_MSG(!ran_, "enqueue() after run() started: sessions borrow "
                        "traces from the request table");
  DAOP_CHECK_GE(request.arrival, 0.0);
  DAOP_CHECK_GE(request.deadline_s, 0.0);
  if (!tracks_.empty()) {
    DAOP_CHECK_GE(request.arrival, tracks_.back().request.arrival);
  }
  Outcome o;
  o.id = request.id;
  o.arrival = request.arrival;
  outcomes_.push_back(std::move(o));
  launches_.push_back({request.arrival, tracks_.size()});
  Track tr;
  tr.request = std::move(request);
  tracks_.push_back(std::move(tr));
  ++unresolved_;
}

double ClusterRouter::projected_start(const Node& n, double t) const {
  if (!n.free_slots.empty()) {
    return std::max(t, *std::min_element(n.free_slots.begin(),
                                         n.free_slots.end()));
  }
  // Every slot is busy: approximate the next slot release as the earliest
  // in-flight frontier plus one service estimate. A node with neither slots
  // nor sessions (a crashed one) looks idle — the router has no oracle.
  double frontier = kInf;
  for (const ActiveCopy& a : n.active) {
    frontier = std::min(frontier, a.session->ready_time());
  }
  if (frontier == kInf) return t;
  return std::max(t, frontier) + options_.service_estimate_s;
}

double ClusterRouter::projected_ttft(const Node& n, double t,
                                     double arrival) const {
  return projected_start(n, t) +
         (static_cast<double>(n.pending.size()) + 1.0) *
             options_.service_estimate_s -
         arrival;
}

double ClusterRouter::affinity(const Node& n,
                               const data::SequenceTrace& trace) const {
  const cache::Placement& p = n.arbiter->placement();
  double hit = 0.0;
  double total = 0.0;
  for (int l = 0; l < trace.n_layers(); ++l) {
    const std::span<const double> layer =
        trace.counts(data::Phase::Prefill, l);
    for (int e = 0; e < static_cast<int>(layer.size()); ++e) {
      const double c = layer[static_cast<std::size_t>(e)];
      if (c <= 0.0) continue;
      total += c;
      if (p.on_gpu(l, e)) hit += c;
    }
  }
  return total > 0.0 ? hit / total : 0.0;
}

int ClusterRouter::least_loaded_of(const std::vector<int>& eligible, double t,
                                   int exclude) const {
  int best = -1;
  std::size_t best_depth = 0;
  double best_start = 0.0;
  for (const int id : eligible) {
    if (id == exclude) continue;
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    const std::size_t depth = n.pending.size() + n.active.size();
    const double start = projected_start(n, t);
    if (best < 0 || depth < best_depth ||
        (depth == best_depth && start < best_start)) {
      best = id;
      best_depth = depth;
      best_start = start;
    }
  }
  return best;
}

int ClusterRouter::pick_node(const std::vector<int>& eligible,
                             const data::SequenceTrace& trace, double t) {
  DAOP_CHECK_MSG(!eligible.empty(), "pick_node with no eligible node");
  if (options_.dispatch == DispatchPolicy::kRoundRobin) {
    const int n = n_nodes();
    for (int k = 0; k < n; ++k) {
      const int id = (rr_cursor_ + k) % n;
      if (std::find(eligible.begin(), eligible.end(), id) != eligible.end()) {
        rr_cursor_ = id + 1;
        return id;
      }
    }
    return eligible.front();  // unreachable: eligible is non-empty
  }
  if (options_.dispatch == DispatchPolicy::kLeastLoaded) {
    return least_loaded_of(eligible, t, /*exclude=*/-1);
  }
  // Expert-affinity: route to the node whose GPU-resident expert set best
  // covers the sequence's prefill activation signature (MoE-Infinity-style
  // sticky routing). Ties fall back to least-loaded.
  double best = -1.0;
  std::vector<int> tied;
  for (const int id : eligible) {
    const double a = affinity(nodes_[static_cast<std::size_t>(id)], trace);
    if (a > best + 1e-12) {
      best = a;
      tied.assign(1, id);
    } else if (a >= best - 1e-12) {
      tied.push_back(id);
    }
  }
  if (tied.size() == 1) return tied.front();
  return least_loaded_of(tied, t, /*exclude=*/-1);
}

eval::DegradationController::Signals ClusterRouter::node_signals(
    const Node& n) const {
  eval::DegradationController::Signals s;
  s.hazard_stall_s = n.timeline.hazard_stall_s();
  s.migration_aborts = n.closed_aborts;
  s.migration_retries = n.closed_retries;
  for (const ActiveCopy& a : n.active) {
    s.migration_aborts += a.session->counters().migration_aborts;
    s.migration_retries += a.session->counters().migration_retries;
  }
  return s;
}

void ClusterRouter::tinstant(long long request_id, const std::string& name,
                             double t) {
  if (options_.tracer == nullptr) return;
  if (request_id >= 0) {
    const obs::RequestScope scope(options_.tracer, request_id);
    options_.tracer->instant(tracer_track_, name, t);
    return;
  }
  options_.tracer->instant(tracer_track_, name, t);
}

void ClusterRouter::ts_tick(double t) {
  obs::TimeSeriesRecorder& r = *options_.tseries;
  for (const Node& n : nodes_) {
    r.advance(n.id, t);
    r.count_total(n.id, "daop_hazard_stall_seconds_total",
                  "Simulated seconds lost to injected hazards.",
                  n.timeline.hazard_stall_s());
    r.gauge_set(n.id, "daop_queue_depth",
                "Request copies waiting in the node's admission queue.",
                static_cast<double>(n.pending.size()));
    r.gauge_set(n.id, "daop_active_sessions",
                "Sessions in flight on the node.",
                static_cast<double>(n.active.size()));
    r.gauge_set(n.id, "daop_node_in_service",
                "1 while the health checker routes to the node, else 0.",
                health_.in_service(n.id) ? 1.0 : 0.0);
  }
  r.advance(ts_cluster_channel(), t);
}

void ClusterRouter::ts_served(const Track& tr, double start, double end,
                              const engines::RunResult& result) {
  obs::TimeSeriesRecorder& r = *options_.tseries;
  const int ch = ts_cluster_channel();
  const double arrival = tr.request.arrival;
  r.advance(ch, end);
  r.count(ch, "daop_serving_requests_total", "Request resolutions.", 1.0,
          {{"outcome", "served"}});
  r.count(ch, "daop_serving_generated_tokens_total",
          "Tokens generated across served requests.",
          static_cast<double>(result.generated_tokens));
  // Same client-observed formulas as cluster/serving.cpp: everything counts
  // from the ORIGINAL arrival so failover backoffs show in the windows.
  r.observe(ch, "daop_serving_queue_wait_seconds",
            "Arrival to admission on the serving node.", start - arrival);
  r.observe(ch, "daop_serving_ttft_seconds",
            "Arrival to first output token.",
            (start - arrival) + result.prefill_s);
  r.observe(ch, "daop_serving_latency_seconds",
            "Arrival to request completion.", end - arrival);
  if (result.generated_tokens > 0) {
    r.observe(ch, "daop_serving_tpot_seconds",
              "Mean time per output token per request.",
              result.decode_s / result.generated_tokens);
  }
}

void ClusterRouter::ts_shed(const Track& tr, eval::ShedReason reason,
                            double t) {
  obs::TimeSeriesRecorder& r = *options_.tseries;
  const int ch = ts_cluster_channel();
  const char* why = eval::shed_reason_name(reason);
  r.advance(ch, t);
  r.count(ch, "daop_serving_requests_total", "Request resolutions.", 1.0,
          {{"outcome", "shed"}});
  r.count(ch, "daop_requests_shed_total",
          "Requests rejected or lost, by reason.", 1.0, {{"reason", why}});
  r.record_event(t, ch, "shed",
                 "req " + std::to_string(tr.request.id) + " (" + why + ")");
}

void ClusterRouter::dispatch_copy(std::size_t track, int node_id, double t,
                                  bool hedge) {
  Node& n = nodes_[static_cast<std::size_t>(node_id)];
  Track& tr = tracks_[track];
  ++stats_.dispatches;
  ++stats_.node_dispatched[static_cast<std::size_t>(node_id)];
  ++tr.live_copies;
  if (ts_on()) {
    options_.tseries->count(node_id, "daop_cluster_dispatches_total",
                            "Request copies handed to the node.", 1.0);
  }
  if (!n.alive) {
    // Dispatched into the void: the router only discovers the loss after
    // the failover backoff (its detection delay), then retries or sheds.
    lost_copy(track, 0, t, FailoverReason::kDeadDispatch);
    return;
  }
  n.pending.push_back({track, t + n.link_latency, hedge});
}

void ClusterRouter::lost_copy(std::size_t track, int tokens_done, double t,
                              FailoverReason reason) {
  Track& tr = tracks_[track];
  --tr.live_copies;
  DAOP_CHECK_GE(tr.live_copies, 0);
  if (tr.resolved) return;
  // A lost hedge copy whose twin is still live costs nothing extra: the
  // surviving copy carries the request.
  if (tr.live_copies > 0) return;
  if (!tr.loss_open) {
    // Every live copy is gone: open a loss episode. It resolves exactly
    // once — warm-restored or replayed at the next admission, or shed —
    // and chained losses before then extend it without reopening.
    tr.loss_open = true;
    tr.loss_time = t;
    ++recovery_.lost_sessions;
    if (ts_on()) {
      options_.tseries->count(ts_cluster_channel(),
                              "daop_cluster_loss_episodes_total",
                              "Loss episodes opened (every live request "
                              "copy lost).",
                              1.0);
      options_.tseries->record_event(
          t, ts_cluster_channel(), "loss",
          "req " + std::to_string(tr.request.id) + " lost every copy");
    }
  }
  if (tr.failovers < options_.failover_budget) {
    ++tr.failovers;
    // Every token a dead predecessor generated will be regenerated by the
    // re-dispatched session (prefill re-runs from the recorded trace).
    tr.replayed_tokens += tokens_done;
    stats_.replayed_tokens += tokens_done;
    if (reason == FailoverReason::kNodeCrash) {
      ++stats_.failovers_node_crash;
    } else {
      ++stats_.failovers_dead_dispatch;
    }
    if (ts_on()) {
      options_.tseries->count(
          ts_cluster_channel(), "daop_cluster_failovers_total",
          "Failover re-dispatches after losing every live request copy.",
          1.0,
          {{"reason", reason == FailoverReason::kNodeCrash
                          ? "node-crash"
                          : "dead-dispatch"}});
    }
    launches_.push_back({t + options_.failover_backoff_s, track});
    tinstant(tr.request.id,
             "failover req " + std::to_string(tr.request.id) + " (attempt " +
                 std::to_string(tr.failovers) + ")",
             t);
    return;
  }
  resolve_shed(track, eval::ShedReason::kNodeLost, t);
}

void ClusterRouter::cancel_copies(std::size_t track, double now) {
  Track& tr = tracks_[track];
  for (Node& n : nodes_) {
    for (auto it = n.pending.begin(); it != n.pending.end();) {
      if (it->track == track) {
        --tr.live_copies;
        ++stats_.hedge_cancels;
        it = n.pending.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = n.active.begin(); it != n.active.end();) {
      if (it->track != track) {
        ++it;
        continue;
      }
      // The losing copy's already-scheduled work holds its slot until the
      // session frontier passes; abandon() releases its arbiter pins.
      const double slot_free = std::max(now, it->session->ready_time());
      it->session->abandon(now);
      n.free_slots.push_back(slot_free);
      --tr.live_copies;
      ++stats_.hedge_cancels;
      it = n.active.erase(it);
    }
  }
  DAOP_CHECK_EQ(tr.live_copies, 0);
}

void ClusterRouter::crash_node(Node& n, double t) {
  n.alive = false;
  n.crash_time = kInf;
  ++stats_.crashes;
  if (ts_on()) {
    options_.tseries->count(ts_cluster_channel(),
                            "daop_cluster_crashes_total", "Node crashes.",
                            1.0);
    options_.tseries->record_event(t, n.id, "crash",
                                   "node " + std::to_string(n.id) +
                                       " crashed");
  }
  if (n.ckpt != nullptr) {
    // Crash consistency: a durable write still in PCIe flight dies with
    // the node (counted as torn). Completed generations survive — the
    // store models durable storage a surviving peer can read from.
    n.ckpt->discard_in_flight(t);
  }
  tinstant(-1, "node " + std::to_string(n.id) + " crashed", t);
  std::vector<ActiveCopy> lost_active;
  lost_active.swap(n.active);
  std::deque<QueuedCopy> lost_queued;
  lost_queued.swap(n.pending);
  n.free_slots.clear();
  for (ActiveCopy& a : lost_active) {
    const int tokens = a.session->tokens_generated();
    // Teardown WITHOUT close(): the session's RAII pin guard releases its
    // arbiter pins (satellite fix; asserted right below).
    a.session.reset();
    lost_copy(a.track, tokens, t, FailoverReason::kNodeCrash);
  }
  DAOP_CHECK_EQ(n.arbiter->total_pin_count(), 0);
  for (const QueuedCopy& q : lost_queued) {
    lost_copy(q.track, 0, t, FailoverReason::kNodeCrash);
  }
}

void ClusterRouter::probe_round(double t) {
  std::vector<HealthChecker::Probe> probes(nodes_.size());
  for (const Node& n : nodes_) {
    HealthChecker::Probe& p = probes[static_cast<std::size_t>(n.id)];
    p.responsive = n.alive;
    if (!n.alive) continue;
    bool slow = n.fault != nullptr && n.fault->in_brownout(t);
    if (options_.health.slow_probe_s > 0.0) {
      const double wait =
          projected_start(n, t) +
          static_cast<double>(n.pending.size()) * options_.service_estimate_s -
          t;
      if (wait > options_.health.slow_probe_s) slow = true;
    }
    p.slow = slow;
  }
  const std::size_t before = health_.events().size();
  health_.observe(t, probes);
  for (std::size_t i = before; i < health_.events().size(); ++i) {
    const HealthEvent& e = health_.events()[i];
    tinstant(-1,
             std::string(e.ejected ? "eject node " : "readmit node ") +
                 std::to_string(e.node) + " (" + e.reason + ")",
             e.time);
    if (ts_on()) {
      const char* dir = e.ejected ? "eject" : "readmit";
      options_.tseries->count(ts_cluster_channel(),
                              "daop_cluster_health_transitions_total",
                              "Health-checker ejections and re-admissions.",
                              1.0, {{"direction", dir}});
      options_.tseries->record_event(
          e.time, e.node, dir,
          "node " + std::to_string(e.node) + " (" + e.reason + ")");
    }
  }
}

void ClusterRouter::resolve_served(std::size_t track, int node_id,
                                   double start, double end, bool hedge,
                                   engines::RunResult result) {
  Track& tr = tracks_[track];
  DAOP_CHECK_MSG(!tr.resolved, "request resolved twice");
  tr.resolved = true;
  --unresolved_;
  if (ts_on()) ts_served(tr, start, end, result);
  Outcome& o = outcomes_[track];
  o.served = true;
  o.node = node_id;
  o.start = start;
  o.end = end;
  o.failovers = tr.failovers;
  o.replayed_tokens = tr.replayed_tokens;
  o.hedged = tr.hedged;
  o.hedge_won = hedge;
  o.restores = tr.restores;
  o.recovery = tr.last_recovery;
  o.result = std::move(result);
  ++stats_.node_served[static_cast<std::size_t>(node_id)];
  if (hedge) ++stats_.hedge_wins;
  DAOP_CHECK_MSG(!tr.loss_open,
                 "a served request cannot have an unresolved loss episode");
  drop_checkpoints(tr.request.id);
}

void ClusterRouter::resolve_shed(std::size_t track, eval::ShedReason reason,
                                 double t) {
  Track& tr = tracks_[track];
  DAOP_CHECK_MSG(!tr.resolved, "request resolved twice");
  DAOP_CHECK_EQ(tr.live_copies, 0);
  tr.resolved = true;
  --unresolved_;
  if (ts_on()) ts_shed(tr, reason, t);
  if (tr.loss_open) {
    // The loss episode ends here: no copy will ever be re-admitted.
    tr.loss_open = false;
    tr.last_recovery = "shed";
    ++recovery_.recovered_shed;
  }
  Outcome& o = outcomes_[track];
  o.shed = true;
  o.shed_reason = reason;
  o.failovers = tr.failovers;
  o.replayed_tokens = tr.replayed_tokens;
  o.hedged = tr.hedged;
  o.restores = tr.restores;
  o.recovery = tr.last_recovery;
  drop_checkpoints(tr.request.id);
  switch (reason) {
    case eval::ShedReason::kNodeLost:
      ++stats_.shed_node_lost;
      break;
    case eval::ShedReason::kDeadline:
      ++stats_.shed_deadline;
      break;
    case eval::ShedReason::kDegraded:
      ++stats_.shed_degraded;
      break;
    case eval::ShedReason::kQueueFull:
      DAOP_CHECK_MSG(false, "cluster router never sheds for queue overflow");
      break;
  }
  tinstant(tr.request.id,
           std::string("shed (") + eval::shed_reason_name(reason) + ")", t);
}

void ClusterRouter::drop_checkpoints(long long request_id) {
  if (!options_.checkpoint.enabled()) return;
  for (Node& m : nodes_) m.ckpt->drop(request_id);
}

bool ClusterRouter::try_warm_restore(Node& n, Track& tr,
                                     engines::SequenceSession& session,
                                     double t_admit, double& recovery_ready) {
  // Checkpoints model durable storage: every node's store is scanned,
  // including the crashed node's (its completed generations survived; its
  // in-flight writes died with it). Newest step wins; the scan order makes
  // ties deterministic (lowest node id).
  const recovery::CheckpointRecord* best = nullptr;
  for (Node& m : nodes_) {
    const recovery::CheckpointRecord* rec =
        m.ckpt->latest_valid(tr.request.id, t_admit);
    if (rec != nullptr && (best == nullptr || rec->step > best->step)) {
      best = rec;
    }
  }
  if (best == nullptr) {
    ++recovery_.fallbacks_no_checkpoint;
    return false;
  }
  // Rebuild the snapshot's expert residency on the surviving node BEFORE
  // the session re-pins its working set. Experts pinned by concurrent
  // sessions stay put (refusals); the restored session then degrades to
  // CPU execution for them exactly as for any refused migration.
  const std::optional<engines::SessionSnapshotInfo> info =
      engines::SequenceSession::peek(best->bytes);
  if (info.has_value() && info->has_placement) {
    const recovery::ReconcileResult rr = recovery::reconcile_placement(
        info->placement, *n.arbiter, n.timeline, t_admit,
        n.engine->costs().expert_migration(), tr.request.id);
    recovery_ready = std::max(recovery_ready, rr.ready);
    recovery_.reconcile_migrations += rr.migrated;
    recovery_.reconcile_evictions += rr.evicted;
    recovery_.reconcile_refusals += rr.refused;
  }
  engines::RestoreOptions ropts;
  ropts.resume_floor = t_admit;
  if (!session.restore(best->bytes, ropts)) {
    ++recovery_.fallbacks_invalid;
    return false;
  }
  ++recovery_.restores;
  recovery_.restored_tokens += best->step;
  // Tokens up to the snapshot step are NOT regenerated: credit them back
  // against the replay accounting the losses already charged.
  const long long credit = std::min(best->step, tr.replayed_tokens);
  tr.replayed_tokens -= credit;
  stats_.replayed_tokens -= credit;
  return true;
}

int ClusterRouter::total_leaked_pins() const {
  int pins = 0;
  for (const Node& n : nodes_) pins += n.arbiter->total_pin_count();
  return pins;
}

std::vector<ClusterRouter::Outcome> ClusterRouter::run() {
  DAOP_CHECK_MSG(!ran_, "run() may be called at most once");
  ran_ = true;
  stats_.node_dispatched.assign(nodes_.size(), 0);
  stats_.node_served.assign(nodes_.size(), 0);
  const std::size_t total = tracks_.size();

  enum class Ev { kNone, kCrash, kProbe, kLaunch, kNode };
  long long iters = 0;
  const long long max_iters =
      1'000'000 + 10'000 * static_cast<long long>(total);

  while (unresolved_ > 0) {
    DAOP_CHECK_MSG(++iters <= max_iters,
                   "cluster router failed to make progress");
    // ---- Candidate events. Fixed priority on time ties (strict < below):
    // crash < probe < launch < node admit/step, then lowest node id. ----
    double best_t = kInf;
    Ev ev = Ev::kNone;

    int crash_id = -1;
    for (const Node& n : nodes_) {
      if (n.alive && n.crash_time < best_t) {
        best_t = n.crash_time;
        ev = Ev::kCrash;
        crash_id = n.id;
      }
    }

    const double t_probe = health_.next_probe_time();
    if (t_probe < best_t) {
      best_t = t_probe;
      ev = Ev::kProbe;
    }

    std::size_t launch_i = kNone;
    for (std::size_t i = 0; i < launches_.size(); ++i) {
      if (launches_[i].time < best_t ||
          (ev == Ev::kLaunch && launches_[i].time == best_t &&
           launches_[i].track < launches_[launch_i].track)) {
        best_t = launches_[i].time;
        ev = Ev::kLaunch;
        launch_i = i;
      }
    }

    int node_id = -1;
    bool node_admit = false;
    std::size_t step_i = kNone;
    std::size_t slot_i = kNone;
    for (const Node& n : nodes_) {
      if (!n.alive) continue;
      int mc_eff = options_.max_concurrent_per_node;
      if (n.degrade != nullptr && n.degrade->cap_concurrency()) {
        mc_eff = std::max(1, mc_eff / 2);
      }
      double t_admit = kInf;
      std::size_t slot = kNone;
      if (!n.pending.empty() && !n.free_slots.empty() &&
          static_cast<int>(n.active.size()) < mc_eff) {
        slot = static_cast<std::size_t>(
            std::min_element(n.free_slots.begin(), n.free_slots.end()) -
            n.free_slots.begin());
        t_admit = std::max(n.pending.front().ready, n.free_slots[slot]);
      }
      double t_step = kInf;
      std::size_t si = kNone;
      for (std::size_t i = 0; i < n.active.size(); ++i) {
        const double r = n.active[i].session->ready_time();
        if (r < t_step) {
          t_step = r;
          si = i;
        }
      }
      // Within a node, admission wins ties against stepping — the same
      // preference as the single-node scheduler loops.
      const bool admit = t_admit <= t_step;
      const double t_node = admit ? t_admit : t_step;
      if (t_node < best_t) {
        best_t = t_node;
        ev = Ev::kNode;
        node_id = n.id;
        node_admit = admit;
        step_i = si;
        slot_i = slot;
      }
    }

    DAOP_CHECK_MSG(ev != Ev::kNone,
                   "unresolved requests but no schedulable event");

    // Passive telemetry sampling at the chosen event time, BEFORE the event
    // executes (events recorded while handling it land in the window
    // containing best_t).
    if (ts_on()) ts_tick(best_t);

    if (ev == Ev::kCrash) {
      crash_node(nodes_[static_cast<std::size_t>(crash_id)], best_t);
      continue;
    }

    if (ev == Ev::kProbe) {
      probe_round(best_t);
      continue;
    }

    if (ev == Ev::kLaunch) {
      const Launch l = launches_[launch_i];
      launches_.erase(launches_.begin() +
                      static_cast<std::ptrdiff_t>(launch_i));
      Track& tr = tracks_[l.track];
      if (tr.resolved) continue;
      // Dispatch eligibility is the health checker's verdict, never the
      // router peeking at `alive`: without health checking every node —
      // including a dead one — stays a target.
      std::vector<int> eligible;
      bool any_alive = false;
      for (const Node& n : nodes_) {
        if (n.alive) any_alive = true;
        if (health_.in_service(n.id)) eligible.push_back(n.id);
      }
      if (eligible.empty()) {
        if (!any_alive) {
          // No replica left to fail over to.
          resolve_shed(l.track, eval::ShedReason::kNodeLost, l.time);
          continue;
        }
        // Every node is ejected: hold the dispatch until the next probe
        // round can re-admit one.
        launches_.push_back({health_.next_probe_time(), l.track});
        continue;
      }
      const int primary = pick_node(eligible, tr.request.trace, l.time);
      // Hedging decision against the pre-dispatch queue state; one hedge
      // per request, never for failover re-dispatches of a hedged request.
      int mate = -1;
      if (options_.hedge_ttft_threshold_s > 0.0 && !tr.hedged &&
          eligible.size() > 1) {
        const Node& p = nodes_[static_cast<std::size_t>(primary)];
        const double proj =
            projected_ttft(p, l.time + p.link_latency, tr.request.arrival);
        if (proj > options_.hedge_ttft_threshold_s) {
          mate = least_loaded_of(eligible, l.time, primary);
        }
      }
      dispatch_copy(l.track, primary, l.time, /*hedge=*/false);
      if (mate >= 0 && !tr.resolved && tr.live_copies > 0) {
        tr.hedged = true;
        ++stats_.hedges;
        tinstant(tr.request.id,
                 "hedge req " + std::to_string(tr.request.id) + " -> node " +
                     std::to_string(mate),
                 l.time);
        dispatch_copy(l.track, mate, l.time, /*hedge=*/true);
      }
      continue;
    }

    // ---- Node event ----
    Node& n = nodes_[static_cast<std::size_t>(node_id)];
    if (node_admit) {
      const double t_admit = best_t;
      const QueuedCopy q = n.pending.front();
      Track& tr = tracks_[q.track];
      if (tr.resolved) {  // orphaned copy (defensive; twins cancel eagerly)
        n.pending.pop_front();
        continue;
      }
      if (n.degrade != nullptr) n.degrade->observe(t_admit, node_signals(n));
      // Deadline shedding against the ORIGINAL arrival: a copy that cannot
      // make its first token in time frees the slot for one that can.
      const double budget = tr.request.deadline_s > 0.0
                                ? tr.request.deadline_s
                                : options_.deadline_s;
      if (budget > 0.0) {
        const double dl_full = tr.request.arrival + budget;
        const double dl_eff =
            (n.degrade != nullptr && n.degrade->shed_aggressively())
                ? tr.request.arrival + 0.5 * budget
                : dl_full;
        const double projected = t_admit + options_.service_estimate_s;
        if (projected > dl_eff) {
          n.pending.pop_front();
          --tr.live_copies;
          if (tr.live_copies == 0) {
            resolve_shed(q.track,
                         projected > dl_full ? eval::ShedReason::kDeadline
                                             : eval::ShedReason::kDegraded,
                         t_admit);
          }
          continue;
        }
      }
      engines::SessionEnv env;
      env.timeline = &n.timeline;
      env.start_time = t_admit;
      env.request_id = tr.request.id;
      env.arbiter = n.arbiter.get();
      env.cache = n.cache.get();
      env.shared = true;
      if (n.degrade != nullptr) {
        env.degrade_no_speculation = n.degrade->no_speculation();
        env.degrade_no_migrations = n.degrade->no_migrations();
      }
      env.failover_replay_tokens = static_cast<int>(tr.replayed_tokens);
      ActiveCopy a;
      a.track = q.track;
      a.start = t_admit;
      a.hedge = q.hedge;
      a.session = n.engine->open_session(tr.request.trace,
                                         n.arbiter->placement(), env);
      bool restored = false;
      double recovery_ready = t_admit;
      if (tr.loss_open && options_.checkpoint.enabled()) {
        restored = try_warm_restore(n, tr, *a.session, t_admit,
                                    recovery_ready);
      }
      if (!restored) a.session->prefill();
      if (tr.loss_open) {
        // The loss episode resolves at this re-admission: warm-restored
        // from the snapshot, or replayed from the recorded trace.
        tr.loss_open = false;
        tr.last_recovery = restored ? "restored" : "replayed";
        if (restored) {
          ++tr.restores;
          ++recovery_.recovered_restored;
        } else {
          ++recovery_.recovered_replayed;
        }
        RestoreEvent ev;
        ev.request_id = tr.request.id;
        ev.node = n.id;
        ev.restored = restored;
        ev.step = restored ? a.session->tokens_generated() : 0;
        ev.loss_time = tr.loss_time;
        ev.admit_time = t_admit;
        ev.latency_s = std::max(a.session->ready_time(), recovery_ready) -
                       tr.loss_time;
        recovery_.recovery_latency_s.push_back(ev.latency_s);
        recovery_.events.push_back(ev);
        if (ts_on()) {
          const char* path = restored ? "restored" : "replayed";
          options_.tseries->count(
              ts_cluster_channel(), "daop_cluster_recoveries_total",
              "Loss episodes resolved at re-admission, by recovery path.",
              1.0, {{"path", path}});
          options_.tseries->observe(ts_cluster_channel(),
                                    "daop_recovery_latency_seconds",
                                    "Last-copy loss to recovered-session "
                                    "readiness.",
                                    ev.latency_s);
          options_.tseries->record_event(
              t_admit, n.id, restored ? "restore" : "replay",
              "req " + std::to_string(tr.request.id) + " on node " +
                  std::to_string(n.id));
        }
        tinstant(tr.request.id,
                 std::string(restored ? "warm restore req " : "replay req ") +
                     std::to_string(tr.request.id) + " on node " +
                     std::to_string(n.id) +
                     (restored ? " (token " +
                                     std::to_string(
                                         a.session->tokens_generated()) +
                                     ")"
                               : ""),
                 t_admit);
      }
      n.free_slots.erase(n.free_slots.begin() +
                         static_cast<std::ptrdiff_t>(slot_i));
      n.active.push_back(std::move(a));
      n.pending.pop_front();
      continue;
    }

    ActiveCopy& a = n.active[step_i];
    if (a.session->decode_step()) {
      if (n.ckpt != nullptr) {
        const long long rid = tracks_[a.track].request.id;
        const long long step = a.session->tokens_generated();
        const double now = a.session->ready_time();
        if (n.ckpt->due(rid, step, now)) {
          std::vector<std::uint8_t> snap = a.session->checkpoint();
          if (!snap.empty()) {
            n.ckpt->write(rid, step, now, std::move(snap));
            if (ts_on()) {
              options_.tseries->count(
                  n.id, "daop_recovery_checkpoints_total",
                  "Session snapshots durably written on the node.", 1.0);
            }
          }
        }
      }
      continue;
    }
    // For warm-restored sessions the session clock starts at the ORIGINAL
    // admission (shifted), not this copy's re-admission, so completion time
    // must come from the session's own start. For normal sessions
    // start_time() == a.start exactly (bit-identical to the historical
    // `a.start + r.total_s`).
    const double session_start = a.session->start_time();
    engines::RunResult r = a.session->close();
    n.closed_aborts += r.counters.migration_aborts;
    n.closed_retries += r.counters.migration_retries;
    const double end = session_start + r.total_s;
    const double start = a.start;
    const bool hedge = a.hedge;
    const std::size_t track = a.track;
    n.free_slots.push_back(end);
    n.active.erase(n.active.begin() + static_cast<std::ptrdiff_t>(step_i));
    if (n.degrade != nullptr) n.degrade->observe(end, node_signals(n));
    Track& tr = tracks_[track];
    --tr.live_copies;
    resolve_served(track, n.id, start, end, hedge, std::move(r));
    // First completion wins: cancel the losing twin everywhere else.
    if (tr.live_copies > 0) cancel_copies(track, end);
  }

  // ---- Final telemetry + conservation (cluster-aware: one outcome per
  // request no matter how many copies or failover attempts it consumed). ----
  if (options_.checkpoint.enabled()) {
    for (const Node& n : nodes_) {
      const recovery::CheckpointStoreStats& cs = n.ckpt->stats();
      recovery_.checkpoints_written += cs.writes;
      recovery_.checkpoint_bytes += cs.bytes_written;
      recovery_.torn_writes += cs.torn_writes;
      recovery_.corrupt_writes += cs.corrupt_writes;
      recovery_.torn_rejected += cs.torn_rejected;
    }
  }
  // Recovery conservation: every loss episode resolved exactly one way.
  DAOP_CHECK_EQ(recovery_.lost_sessions,
                recovery_.recovered_restored + recovery_.recovered_replayed +
                    recovery_.recovered_shed);
  DAOP_CHECK_EQ(recovery_.restores, recovery_.recovered_restored);
  for (const Track& tr : tracks_) {
    DAOP_CHECK_MSG(!tr.loss_open, "run ended with an open loss episode");
  }
  stats_.ejections = health_.ejections();
  stats_.readmissions = health_.readmissions();
  stats_.node_final_state.assign(nodes_.size(), 2);
  for (const Node& n : nodes_) {
    const std::size_t i = static_cast<std::size_t>(n.id);
    if (!n.alive) {
      stats_.node_final_state[i] = 0;
    } else if (!health_.in_service(n.id)) {
      stats_.node_final_state[i] = 1;
    }
  }

  DAOP_CHECK_EQ(unresolved_, std::size_t{0});
  DAOP_CHECK_EQ(outcomes_.size(), total);
  std::size_t served = 0;
  std::size_t shed = 0;
  for (const Outcome& o : outcomes_) {
    DAOP_CHECK_MSG(o.served != o.shed,
                   "request must resolve as exactly one of served/shed");
    if (o.served) {
      ++served;
    } else {
      ++shed;
    }
  }
  DAOP_CHECK_EQ(served + shed, total);
  DAOP_CHECK_EQ(std::accumulate(stats_.node_served.begin(),
                                stats_.node_served.end(), 0LL),
                static_cast<long long>(served));
  DAOP_CHECK_EQ(
      stats_.shed_node_lost + stats_.shed_deadline + stats_.shed_degraded,
      static_cast<long long>(shed));
  for (const Node& n : nodes_) {
    DAOP_CHECK_MSG(n.pending.empty() && n.active.empty(),
                   "node " << n.id << " finished with undrained work");
    // Satellite invariant: no session may leak pins — not through crash
    // teardown, hedging cancellation, or normal close.
    DAOP_CHECK_EQ(n.arbiter->total_pin_count(), 0);
  }

  std::sort(outcomes_.begin(), outcomes_.end(),
            [](const Outcome& x, const Outcome& y) { return x.id < y.id; });
  return std::move(outcomes_);
}

}  // namespace daop::cluster
