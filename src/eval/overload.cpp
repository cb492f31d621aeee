#include "eval/overload.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace daop::eval {

const char* admission_policy_name(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kFifo:
      return "fifo";
    case AdmissionPolicy::kLifoShed:
      return "lifo-shed";
    case AdmissionPolicy::kDeadlineEdf:
      return "deadline-edf";
  }
  DAOP_CHECK_MSG(false, "unreachable admission policy");
  return "";
}

AdmissionPolicy parse_admission_policy(const std::string& name) {
  if (name == "fifo") return AdmissionPolicy::kFifo;
  if (name == "lifo-shed") return AdmissionPolicy::kLifoShed;
  if (name == "deadline-edf") return AdmissionPolicy::kDeadlineEdf;
  DAOP_CHECK_MSG(false, "unknown admission policy '"
                            << name
                            << "' (valid: fifo, lifo-shed, deadline-edf)");
  return AdmissionPolicy::kFifo;
}

const char* shed_reason_name(ShedReason reason) {
  switch (reason) {
    case ShedReason::kQueueFull:
      return "queue_full";
    case ShedReason::kDeadline:
      return "deadline";
    case ShedReason::kDegraded:
      return "degraded";
    case ShedReason::kNodeLost:
      return "node_lost";
  }
  DAOP_CHECK_MSG(false, "unreachable shed reason");
  return "";
}

const char* degrade_level_name(DegradeLevel level) {
  switch (level) {
    case DegradeLevel::kNormal:
      return "normal";
    case DegradeLevel::kNoSpeculation:
      return "no-speculation";
    case DegradeLevel::kNoMigrations:
      return "no-migrations";
    case DegradeLevel::kCapConcurrency:
      return "cap-concurrency";
    case DegradeLevel::kShedAggressively:
      return "shed-aggressively";
  }
  DAOP_CHECK_MSG(false, "unreachable degrade level");
  return "";
}

void DegradationOptions::validate() const {
  DAOP_CHECK_GT(window_s, 0.0);
  DAOP_CHECK_GT(stall_trip_fraction, 0.0);
  DAOP_CHECK_GE(abort_trip, 1);
  DAOP_CHECK_GE(min_dwell_s, 0.0);
  DAOP_CHECK_GT(calm_window_s, 0.0);
  DAOP_CHECK_GE(max_level, 1);
  DAOP_CHECK_LE(max_level, static_cast<int>(DegradeLevel::kShedAggressively));
}

std::optional<ShedReason> deadline_shed(double arrival, double budget_s,
                                        double projected,
                                        bool shed_aggressively) {
  if (budget_s <= 0.0) return std::nullopt;
  const double dl_full = arrival + budget_s;
  const double dl_eff =
      shed_aggressively ? arrival + 0.5 * budget_s : dl_full;
  if (projected <= dl_eff) return std::nullopt;
  return projected > dl_full ? ShedReason::kDeadline : ShedReason::kDegraded;
}

bool OverloadOptions::enabled() const {
  return admission != AdmissionPolicy::kFifo || queue_capacity > 0 ||
         deadline_s > 0.0 || preempt || degrade.enabled;
}

void OverloadOptions::validate() const {
  DAOP_CHECK_GE(queue_capacity, 0);
  DAOP_CHECK_GE(deadline_s, 0.0);
  DAOP_CHECK_GE(service_estimate_s, 0.0);
  if (service_estimate_s > 0.0) {
    DAOP_CHECK_MSG(deadline_s > 0.0,
                   "service_estimate_s needs a deadline budget to act on");
  }
  if (preempt) {
    DAOP_CHECK_MSG(admission == AdmissionPolicy::kDeadlineEdf,
                   "preemption requires the deadline-edf admission policy");
    DAOP_CHECK_MSG(deadline_s > 0.0, "preemption requires a deadline budget");
  }
  if (degrade.enabled) degrade.validate();
}

DegradationController::DegradationController(const DegradationOptions& options)
    : options_(options) {
  if (options_.enabled) options_.validate();
}

void DegradationController::observe(double now, const Signals& totals) {
  if (!options_.enabled) return;
  // The scheduler's decision times are nondecreasing, but preemption can
  // re-evaluate at an already-seen time; clamp so window pruning is stable.
  now = std::max(now, last_now_);
  last_now_ = now;
  window_.push_back(Sample{now, totals});
  const double horizon = now - options_.window_s;
  while (window_.size() > 1 && window_.front().time < horizon) {
    window_.erase(window_.begin());
  }

  // Windowed deltas between the oldest retained sample and the newest.
  const Signals& oldest = window_.front().totals;
  const double stall_delta = totals.hazard_stall_s - oldest.hazard_stall_s;
  const long long abort_delta =
      totals.migration_aborts - oldest.migration_aborts;
  const bool hot = stall_delta >
                       options_.stall_trip_fraction * options_.window_s ||
                   abort_delta >= options_.abort_trip;
  if (hot) last_hot_ = now;

  if (hot && level_ < options_.max_level &&
      now - last_change_ >= options_.min_dwell_s) {
    ++level_;
    peak_level_ = std::max(peak_level_, level_);
    last_change_ = now;
    ++steps_down_;
    events_.push_back(DegradationEvent{now, level_, true});
    // A fresh window after stepping: the telemetry that tripped this level
    // must not immediately trip the next one.
    window_.erase(window_.begin(), window_.end() - 1);
    return;
  }
  if (!hot && level_ > 0 && now - last_hot_ >= options_.calm_window_s &&
      now - last_change_ >= options_.min_dwell_s) {
    --level_;
    last_change_ = now;
    ++steps_up_;
    events_.push_back(DegradationEvent{now, level_, false});
  }
}

}  // namespace daop::eval
