#include "eval/continuous_batching.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "eval/serving_record.hpp"

namespace daop::eval {
ContinuousBatchingScheduler::ContinuousBatchingScheduler(
    engines::Engine& engine, sim::Timeline& timeline,
    const cache::Placement& initial, const Options& options)
    : engine_(engine),
      tl_(timeline),
      arbiter_(initial),
      options_(options),
      free_slots_(static_cast<std::size_t>(options.max_concurrent), 0.0) {
  DAOP_CHECK_GE(options_.max_concurrent, 1);
  DAOP_CHECK_GE(options_.request_timeout_s, 0.0);
  DAOP_CHECK_GE(options_.max_request_retries, 0);
  DAOP_CHECK_GE(options_.retry_backoff_s, 0.0);
  options_.cache.validate();
  if (options_.cache.enabled()) {
    cache_ = std::make_unique<cache::ExpertCache>(
        options_.cache, initial.n_layers(), initial.n_experts());
  }
}

void ContinuousBatchingScheduler::enqueue(Request request) {
  DAOP_CHECK_GE(request.arrival, 0.0);
  if (!pending_.empty()) {
    DAOP_CHECK_GE(request.arrival, pending_.back().request.arrival);
  }
  Pending p;
  p.eff_arrival = request.arrival;
  p.request = std::move(request);
  pending_.push_back(std::move(p));
}

// The event loop: each iteration performs the earliest of {resume, admit,
// step} — admission wins ties against stepping, stepping takes the
// least-advanced session — with the overload plane's decisions layered on
// top:
//  - the admission candidate is chosen by the configured policy (the FIFO
//    head by default);
//  - a bounded queue sheds overflow, and a deadline budget sheds requests
//    whose projected first token would land past their deadline;
//  - under deadline-edf with preemption, a deadline-critical arrival may
//    park the latest-deadline in-flight session (at most once per session)
//    and take its slot; parked sessions resume, in park order, as slots
//    free;
//  - a DegradationController observes fault-plane telemetry at every
//    decision time; its directives apply from the next decision on.
// With the plane disabled none of these fire and the loop is plain FIFO
// continuous batching.
// Determinism: every choice is a pure function of (enqueue order, per-seed
// engine behaviour).
std::vector<ContinuousBatchingScheduler::Outcome>
ContinuousBatchingScheduler::run() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const OverloadOptions& ov = options_.overload;
  ov.validate();
  const bool overload_on = ov.enabled();
  const std::size_t total = pending_.size() + outcomes_.size();
  DegradationController degrade(ov.degrade);
  obs::SpanTracer* const tracer = options_.tracer;
  // The "Overload" track is registered up front when the plane is on, and
  // otherwise only if something is ever emitted on it, so a default-option
  // trace carries no empty track.
  std::optional<std::uint32_t> ov_track_id;
  const auto ov_track = [&] {
    if (!ov_track_id) ov_track_id = tracer->track("Overload");
    return *ov_track_id;
  };
  if (tracer != nullptr && overload_on) ov_track();
  TsHook ts(options_.tseries);
  std::size_t degrade_events_seen = 0;

  // Counter totals of already-closed sessions, so the controller's signals
  // stay cumulative across session lifetimes.
  DegradationController::Signals closed;
  const auto live_signals = [&] {
    DegradationController::Signals s = closed;
    s.hazard_stall_s = tl_.hazard_stall_s();
    for (const Active& a : active_) s.add(a.session->counters());
    for (const Active& a : parked_) s.add(a.session->counters());
    return s;
  };

  // Per-request budgets belong to the overload plane: with it disabled no
  // deadline is ever enforced.
  const auto budget_of = [&](const Pending& p) {
    return overload_on ? deadline_budget(p.request.deadline_s, ov.deadline_s)
                       : 0.0;
  };
  // Absolute first-token deadline, anchored on the ORIGINAL arrival so
  // retries never extend a client's budget. kInf = no deadline.
  const auto deadline_of = [&](const Pending& p) {
    const double b = budget_of(p);
    return b > 0.0 ? p.request.arrival + b : kInf;
  };

  // Outcome of a request resolved without ever being admitted.
  const auto unadmitted = [](const Pending& p) {
    Outcome o;
    o.id = p.request.id;
    o.arrival = p.request.arrival;
    o.retries = p.attempts;
    return o;
  };
  const auto shed = [&](std::size_t idx, ShedReason reason, double t) {
    Outcome o = unadmitted(pending_[idx]);
    o.shed = true;
    o.shed_reason = reason;
    ++overload_stats_.shed_by_reason[static_cast<int>(reason)];
    ++overload_stats_.shed_total;
    ts.shed(reason);
    if (tracer != nullptr) {
      const obs::RequestScope scope(tracer, o.id);
      tracer->instant(ov_track(),
                      std::string("shed (") + shed_reason_name(reason) + ")",
                      t);
    }
    outcomes_.push_back(std::move(o));
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(idx));
  };

  // Policy choice among the waiting queue: which pending request the next
  // free slot (available at `t_free`) should go to. "Arrived" means
  // eff_arrival <= t_free; when nothing has arrived yet every policy waits
  // for the earliest next arrival.
  const auto pick_candidate = [&](double t_free) {
    if (ov.admission == AdmissionPolicy::kFifo) return std::size_t{0};
    std::size_t best = kNone;
    if (ov.admission == AdmissionPolicy::kLifoShed) {
      // Newest arrived first (ties -> highest index: latest enqueued).
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].eff_arrival > t_free) continue;
        if (best == kNone ||
            pending_[i].eff_arrival >= pending_[best].eff_arrival) {
          best = i;
        }
      }
    } else {  // deadline-edf: earliest deadline among arrived.
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].eff_arrival > t_free) continue;
        if (best == kNone ||
            deadline_of(pending_[i]) < deadline_of(pending_[best])) {
          best = i;
        }
      }
    }
    if (best != kNone) return best;
    // Nothing has arrived by t_free: take the next to arrive.
    best = 0;
    for (std::size_t i = 1; i < pending_.size(); ++i) {
      if (pending_[i].eff_arrival < pending_[best].eff_arrival) best = i;
    }
    return best;
  };

  // Latest-deadline in-flight session with a deadline strictly after the
  // candidate's, never preempted before (once per session, so preemption
  // cannot livelock). Ties -> latest admitted.
  const auto pick_victim = [&](double cand_deadline) {
    std::size_t best = kNone;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const Active& a = active_[i];
      if (a.preemptions > 0 || a.session->decode_done()) continue;
      if (a.deadline <= cand_deadline) continue;
      if (best == kNone || a.deadline >= active_[best].deadline) best = i;
    }
    return best;
  };

  while (!pending_.empty() || !active_.empty() || !parked_.empty()) {
    const int mc_eff = effective_concurrency(options_.max_concurrent,
                                             degrade.cap_concurrency());
    const bool slot_ok =
        !free_slots_.empty() && static_cast<int>(active_.size()) < mc_eff;

    // Candidate resume: the longest-parked session, once a slot frees.
    double t_resume = kInf;
    std::size_t slot_r = 0;
    if (!parked_.empty() && slot_ok) {
      slot_r = earliest_slot(free_slots_);
      t_resume = std::max(free_slots_[slot_r],
                          parked_.front().session->ready_time());
    }

    // Candidate admission: policy-chosen request into the earliest free
    // slot — or, when every slot is busy, a preemptive admission for a
    // deadline-critical request.
    double t_admit = kInf;
    std::size_t slot_a = 0;
    std::size_t cand = kNone;
    std::size_t victim = kNone;
    if (!pending_.empty()) {
      if (slot_ok) {
        slot_a = earliest_slot(free_slots_);
        cand = pick_candidate(free_slots_[slot_a]);
        t_admit = std::max(pending_[cand].eff_arrival, free_slots_[slot_a]);
      } else if (ov.preempt &&
                 ov.admission == AdmissionPolicy::kDeadlineEdf) {
        const std::size_t c = pick_candidate(kInf);
        const std::size_t v = pick_victim(deadline_of(pending_[c]));
        if (v != kNone) {
          cand = c;
          victim = v;
          t_admit =
              std::max(pending_[cand].eff_arrival, active_[victim].start);
        }
      }
    }

    // Candidate decode step (parked sessions do not step).
    const auto [si, t_step] = least_advanced(active_);

    const double t_dec = std::min({t_resume, t_admit, t_step});
    DAOP_CHECK_LT(t_dec, kInf);
    if (ts.on()) {
      long long waiting = 0;
      for (const Pending& p : pending_) {
        if (p.eff_arrival <= t_dec) ++waiting;
      }
      ts.decision(t_dec, tl_.hazard_stall_s(), waiting, active_.size(),
                  parked_.size());
    }
    degrade.observe(t_dec, live_signals());
    if (ts.on()) {
      for (; degrade_events_seen < degrade.events().size();
           ++degrade_events_seen) {
        ts.degrade_event(degrade.events()[degrade_events_seen]);
      }
    }

    // Bounded queue: shed overflow among the requests waiting at this
    // decision time. fifo/deadline-edf shed the newest arrivals (their
    // clients waited least); lifo-shed sheds the stalest (its whole point
    // is serving the freshest). At the top of the degradation ladder the
    // cap tightens to 2x the effective slots.
    long long cap = ov.queue_capacity;
    if (degrade.shed_aggressively()) {
      const long long tight = 2LL * mc_eff;
      cap = cap > 0 ? std::min(cap, tight) : tight;
    }
    if (cap > 0) {
      bool shed_any = false;
      for (;;) {
        std::size_t oldest = kNone;
        std::size_t newest = kNone;
        long long waiting = 0;
        for (std::size_t i = 0; i < pending_.size(); ++i) {
          if (pending_[i].eff_arrival > t_dec) continue;
          ++waiting;
          if (oldest == kNone) oldest = i;
          newest = i;
        }
        if (waiting <= cap) break;
        const ShedReason reason =
            (ov.queue_capacity > 0 && waiting > ov.queue_capacity)
                ? ShedReason::kQueueFull
                : ShedReason::kDegraded;
        shed(ov.admission == AdmissionPolicy::kLifoShed ? oldest : newest,
             reason, t_dec);
        shed_any = true;
      }
      // Shedding may have removed the admission candidate; recompute.
      if (shed_any) continue;
    }

    if (t_resume <= t_admit && t_resume <= t_step) {
      Active a = std::move(parked_.front());
      parked_.pop_front();
      a.session->resume(t_resume);
      ++overload_stats_.preempt_resumes;
      ts.resumed();
      if (tracer != nullptr) {
        const obs::RequestScope scope(tracer, a.id);
        tracer->instant(ov_track(), "resume req " + std::to_string(a.id),
                        t_resume);
      }
      free_slots_.erase(free_slots_.begin() +
                        static_cast<std::ptrdiff_t>(slot_r));
      active_.push_back(std::move(a));
      continue;
    }

    if (t_admit <= t_step && cand != kNone) {
      Pending& head = pending_[cand];
      // Client-side timeout: a request whose admission would start more
      // than request_timeout_s after its (re-)arrival is abandoned and
      // retries after a backoff, then is dropped without occupying a slot.
      if (options_.request_timeout_s > 0.0 &&
          t_admit - head.eff_arrival > options_.request_timeout_s) {
        if (head.attempts < options_.max_request_retries) {
          ++head.attempts;
          head.eff_arrival +=
              options_.request_timeout_s + options_.retry_backoff_s;
          continue;
        }
        outcomes_.push_back(unadmitted(head));
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(cand));
        ts.dropped();
        continue;
      }
      // Deadline shedding: a request whose projected first token would land
      // past its deadline is shed instead of admitted — the slot goes to a
      // request that can still be served in time.
      if (const auto why = deadline_shed(
              head.request.arrival, budget_of(head),
              t_admit + ov.service_estimate_s, degrade.shed_aggressively())) {
        shed(cand, *why, t_admit);
        continue;
      }
      if (victim != kNone) {
        // Preemptive admission: park the latest-deadline session, release
        // its pins (park() does), and hand its slot to the candidate.
        Active v = std::move(active_[victim]);
        active_.erase(active_.begin() +
                      static_cast<std::ptrdiff_t>(victim));
        v.session->park(t_admit);
        ++v.preemptions;
        ++overload_stats_.preemptions;
        ts.preempted();
        if (tracer != nullptr) {
          const obs::RequestScope scope(tracer, v.id);
          tracer->instant(ov_track(),
                          "preempt req " + std::to_string(v.id) + " for req " +
                              std::to_string(head.request.id),
                          t_admit);
        }
        free_slots_.push_back(t_admit);
        parked_.push_back(std::move(v));
        slot_a = earliest_slot(free_slots_);
      }
      engines::SessionEnv env;
      env.timeline = &tl_;
      env.start_time = t_admit;
      env.request_id = head.request.id;
      env.arbiter = &arbiter_;
      env.cache = cache_.get();
      env.shared = true;
      env.degrade_no_speculation = degrade.no_speculation();
      env.degrade_no_migrations = degrade.no_migrations();
      Active a;
      a.id = head.request.id;
      a.arrival = head.request.arrival;
      a.start = t_admit;
      a.deadline = deadline_of(head);
      a.retries = head.attempts;
      a.trace = std::make_unique<data::SequenceTrace>(
          std::move(head.request.trace));
      a.session = engine_.open_session(*a.trace, arbiter_.placement(), env);
      a.session->prefill();
      ts.admitted(a.start - a.arrival, a.session->ready_time() - a.arrival);
      free_slots_.erase(free_slots_.begin() +
                        static_cast<std::ptrdiff_t>(slot_a));
      active_.push_back(std::move(a));
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(cand));
      continue;
    }

    Active& a = active_[si];
    if (a.session->decode_step()) continue;
    engines::RunResult r = a.session->close();
    closed.add(r.counters);
    Outcome o;
    o.id = a.id;
    o.arrival = a.arrival;
    o.served = true;
    o.start = a.start;
    o.end = a.start + r.total_s;
    o.retries = a.retries;
    o.preemptions = a.preemptions;
    ts.served(served_times(o.arrival, o.start, o.end, r), r.generated_tokens);
    o.result = std::move(r);
    free_slots_.push_back(o.end);
    outcomes_.push_back(std::move(o));
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(si));
  }

  // Degradation telemetry + ladder-step instants (emitted once, after the
  // run, from the controller's deterministic event log).
  overload_stats_.degrade_steps_down = degrade.steps_down();
  overload_stats_.degrade_steps_up = degrade.steps_up();
  overload_stats_.degrade_final_level = degrade.level();
  overload_stats_.degrade_peak_level = degrade.peak_level();
  overload_stats_.degrade_events = degrade.events();
  if (tracer != nullptr) {
    for (const DegradationEvent& e : degrade.events()) {
      tracer->instant(ov_track(),
                      std::string(e.down ? "degrade -> " : "recover -> ") +
                          degrade_level_name(
                              static_cast<DegradeLevel>(e.level)),
                      e.time);
    }
  }

  // Conservation: every enqueued request ends as exactly one of
  // served/shed/dropped, every preempted session resumed and completed, and
  // no session leaked arbiter pins.
  DAOP_CHECK_MSG(parked_.empty(), "parked sessions leaked without resume");
  DAOP_CHECK_EQ(outcomes_.size(), total);
  std::size_t served = 0;
  std::size_t shed_n = 0;
  std::size_t dropped = 0;
  for (const Outcome& o : outcomes_) {
    DAOP_CHECK_MSG(!(o.served && o.shed), "outcome both served and shed");
    if (o.served) {
      ++served;
    } else if (o.shed) {
      ++shed_n;
    } else {
      ++dropped;
    }
  }
  DAOP_CHECK_EQ(served + shed_n + dropped, total);
  DAOP_CHECK_EQ(shed_n, static_cast<std::size_t>(overload_stats_.shed_total));
  DAOP_CHECK_EQ(overload_stats_.preemptions, overload_stats_.preempt_resumes);
  DAOP_CHECK_EQ(arbiter_.total_pin_count(), 0);
  std::sort(outcomes_.begin(), outcomes_.end(),
            [](const Outcome& x, const Outcome& y) { return x.id < y.id; });
  return std::move(outcomes_);
}

}  // namespace daop::eval
