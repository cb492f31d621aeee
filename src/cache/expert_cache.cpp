#include "cache/expert_cache.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <utility>

#include "cache/arbiter.hpp"
#include "common/check.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace daop::cache {

const char* cache_policy_name(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kFrozen:
      return "frozen";
    case CachePolicy::kLru:
      return "lru";
    case CachePolicy::kLfu:
      return "lfu";
    case CachePolicy::kActivationWeighted:
      return "activation-weighted";
    case CachePolicy::kReusePredictor:
      return "reuse-predictor";
  }
  DAOP_CHECK_MSG(false, "unreachable cache policy");
  return "";
}

CachePolicy parse_cache_policy(const std::string& name) {
  if (name == "frozen") return CachePolicy::kFrozen;
  if (name == "lru") return CachePolicy::kLru;
  if (name == "lfu") return CachePolicy::kLfu;
  if (name == "activation-weighted") return CachePolicy::kActivationWeighted;
  if (name == "reuse-predictor") return CachePolicy::kReusePredictor;
  DAOP_CHECK_MSG(false,
                 "unknown cache policy '"
                     << name
                     << "' (valid: frozen, lru, lfu, activation-weighted, "
                        "reuse-predictor)");
  return CachePolicy::kFrozen;
}

std::vector<CachePolicy> all_cache_policies() {
  return {CachePolicy::kFrozen, CachePolicy::kLru, CachePolicy::kLfu,
          CachePolicy::kActivationWeighted, CachePolicy::kReusePredictor};
}

std::vector<CachePolicy> dynamic_cache_policies() {
  return {CachePolicy::kLru, CachePolicy::kLfu,
          CachePolicy::kActivationWeighted, CachePolicy::kReusePredictor};
}

void ExpertCacheOptions::validate() const {
  DAOP_CHECK_GE(realloc_interval, 1);
  DAOP_CHECK_GE(max_swaps_per_step, 1);
  DAOP_CHECK_MSG(decay > 0.0 && decay <= 1.0,
                 "cache EWMA decay must be in (0, 1], got " << decay);
  DAOP_CHECK_GE(hysteresis, 0.0);
  DAOP_CHECK_GE(max_migration_retries, 0);
  DAOP_CHECK_GE(migration_deadline_factor, 0.0);
}

std::string CacheRefusal::describe() const {
  std::ostringstream os;
  os << "cache swap refused at t=" << time << "s: layer " << layer
     << " expert " << expert_in << " -> " << expert_out
     << " (victim pinned by session";
  if (holders.size() != 1) os << "s";
  for (std::size_t i = 0; i < holders.size(); ++i) {
    os << (i == 0 ? " " : ", ") << holders[i];
  }
  os << "; requested by session " << session << ")";
  return os.str();
}

ExpertCache::ExpertCache(const ExpertCacheOptions& options, int n_layers,
                         int n_experts)
    : opt_(options), n_layers_(n_layers), n_experts_(n_experts) {
  opt_.validate();
  DAOP_CHECK_MSG(opt_.enabled(),
                 "policy 'frozen' means no ExpertCache: construct none so "
                 "frozen runs stay byte-identical to the goldens");
  DAOP_CHECK_GE(n_layers, 1);
  DAOP_CHECK_GE(n_experts, 1);
  const std::size_t n =
      static_cast<std::size_t>(n_layers) * static_cast<std::size_t>(n_experts);
  last_use_.assign(n, 0.0);
  freq_.assign(n, 0.0);
  ewma_.assign(n, 0.0);
  prev_freq_.assign(n, 0.0);
}

std::size_t ExpertCache::idx(int layer, int expert) const {
  DAOP_CHECK_GE(layer, 0);
  DAOP_CHECK_LT(layer, n_layers_);
  DAOP_CHECK_GE(expert, 0);
  DAOP_CHECK_LT(expert, n_experts_);
  return static_cast<std::size_t>(layer) * static_cast<std::size_t>(n_experts_) +
         static_cast<std::size_t>(expert);
}

void ExpertCache::note_session_open(long long session,
                                    const data::SequenceTrace& trace) {
  DAOP_CHECK_EQ(trace.n_layers(), n_layers_);
  DAOP_CHECK_EQ(trace.n_experts, n_experts_);
  std::vector<double> sig(last_use_.size(), 0.0);
  // Seed the reuse signature with the prefill activation pattern: DAOP's own
  // observation (Table 2) is that prefill routing predicts decode routing
  // for the same sequence, which is exactly MoE-Infinity's sequence-level
  // reuse prior.
  for (int l = 0; l < n_layers_; ++l) {
    const std::span<const double> counts =
        trace.counts(data::Phase::Prefill, l);
    std::copy(counts.begin(), counts.end(), sig.begin() + idx(l, 0));
  }
  live_[session] = std::move(sig);
}

void ExpertCache::note_session_close(long long session) {
  live_.erase(session);
}

void ExpertCache::note_use(int layer, int expert, long long session,
                           double t) {
  const std::size_t i = idx(layer, expert);
  last_use_[i] = std::max(last_use_[i], t);
  freq_[i] += 1.0;
  auto it = live_.find(session);
  if (it != live_.end()) it->second[i] += 1.0;
}

double ExpertCache::score(int layer, int expert) const {
  const std::size_t i = idx(layer, expert);
  switch (opt_.policy) {
    case CachePolicy::kFrozen:
      return 0.0;
    case CachePolicy::kLru:
      return last_use_[i];
    case CachePolicy::kLfu:
      return freq_[i];
    case CachePolicy::kActivationWeighted:
      return ewma_[i];
    case CachePolicy::kReusePredictor: {
      // Aggregate demand across all live sessions, summed in ascending
      // session-id order (ordered map) for bit-stable float accumulation.
      double s = 0.0;
      for (const auto& [id, sig] : live_) s += sig[i];
      return s;
    }
  }
  DAOP_CHECK_MSG(false, "unreachable cache policy");
  return 0.0;
}

std::vector<PlannedSwap> ExpertCache::plan(const Placement& placement,
                                           const PlacementArbiter* arbiter,
                                           long long session) {
  DAOP_CHECK_EQ(placement.n_layers(), n_layers_);
  DAOP_CHECK_EQ(placement.n_experts(), n_experts_);
  ++plans_;
  if (opt_.policy == CachePolicy::kActivationWeighted) {
    // Fold the activations since the previous scan into the EWMA.
    for (std::size_t i = 0; i < ewma_.size(); ++i) {
      ewma_[i] = ewma_[i] * opt_.decay + (freq_[i] - prev_freq_[i]);
      prev_freq_[i] = freq_[i];
    }
  }
  std::vector<PlannedSwap> out;
  int budget = opt_.max_swaps_per_step;
  for (int l = 0; l < n_layers_ && budget > 0; ++l) {
    // Potential victims: GPU residents not pinned by another session
    // (pinned working sets are inviolable — their demand is live by
    // definition). Candidates: every CPU resident.
    std::vector<std::pair<double, int>> victims;
    std::vector<std::pair<double, int>> candidates;
    double lo = 0.0, hi = 0.0;
    for (int e = 0; e < n_experts_; ++e) {
      const double s = score(l, e);
      if (e == 0) lo = hi = s;
      lo = std::min(lo, s);
      hi = std::max(hi, s);
      if (placement.on_gpu(l, e)) {
        if (arbiter != nullptr && arbiter->pinned_by_other(l, e, session)) {
          continue;
        }
        victims.emplace_back(s, e);
      } else {
        candidates.emplace_back(s, e);
      }
    }
    // Hysteresis is a fraction of this layer's score spread, so the margin
    // is meaningful whether scores are timestamps (lru) or counts (lfu).
    const double margin = opt_.hysteresis * (hi - lo);
    // Weakest victims first, strongest candidates first; ties break on
    // lower expert id so plans are deterministic.
    std::sort(victims.begin(), victims.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first < b.first
                                          : a.second < b.second;
              });
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first > b.first
                                          : a.second < b.second;
              });
    const std::size_t pairs = std::min(victims.size(), candidates.size());
    for (std::size_t k = 0; k < pairs && budget > 0; ++k) {
      // Pairs are matched best-candidate-to-weakest-victim, so the first
      // failing pair ends the layer.
      if (candidates[k].first <= victims[k].first + margin) break;
      out.push_back({l, candidates[k].second, victims[k].second});
      --budget;
    }
  }
  return out;
}

void ExpertCache::commit(const PlannedSwap& swap, long long session,
                         double time, int victim_other_pins,
                         const Placement& placement) {
  const int gpu_after = placement.gpu_count(swap.layer);
  const int cap = placement.capacity(swap.layer);
  CacheEvent evict;
  evict.kind = CacheEvent::Kind::kEvict;
  evict.layer = swap.layer;
  evict.expert = swap.expert_out;
  evict.peer = swap.expert_in;
  evict.session = session;
  evict.time = time;
  evict.victim_other_pins = victim_other_pins;
  evict.gpu_count_after = gpu_after;
  evict.capacity = cap;
  ledger_.push_back(evict);
  ++evictions_;

  CacheEvent fill = evict;
  fill.kind = CacheEvent::Kind::kFill;
  fill.expert = swap.expert_in;
  fill.peer = swap.expert_out;
  ledger_.push_back(fill);
  ++fills_;
}

void ExpertCache::record_refusal(const PlannedSwap& swap, long long session,
                                 double time,
                                 std::vector<long long> holders) {
  CacheRefusal r;
  r.layer = swap.layer;
  r.expert_in = swap.expert_in;
  r.expert_out = swap.expert_out;
  r.session = session;
  r.time = time;
  r.holders = std::move(holders);
  std::sort(r.holders.begin(), r.holders.end());
  refusals_.push_back(std::move(r));
}

void ExpertCache::record_abort(const PlannedSwap& swap, long long session,
                               double time) {
  (void)swap;
  (void)session;
  (void)time;
  ++aborts_;
}

std::string ExpertCache::report() const {
  std::ostringstream os;
  os << "Dynamic expert cache report — policy "
     << cache_policy_name(opt_.policy) << "\n\n";
  TextTable totals({"plans", "fills", "evictions", "refusals", "aborts",
                    "live sessions"});
  totals.add_row({std::to_string(plans_), std::to_string(fills_),
                  std::to_string(evictions_),
                  std::to_string(refusals_.size()), std::to_string(aborts_),
                  std::to_string(live_.size())});
  os << totals.render();

  // Attribution: where did the migrated bytes go? Count fills per
  // (layer, expert) and show the hottest targets with their current score.
  std::map<std::pair<int, int>, long long> fill_counts;
  for (const CacheEvent& ev : ledger_) {
    if (ev.kind == CacheEvent::Kind::kFill) {
      ++fill_counts[{ev.layer, ev.expert}];
    }
  }
  if (!fill_counts.empty()) {
    std::vector<std::pair<std::pair<int, int>, long long>> top(
        fill_counts.begin(), fill_counts.end());
    std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    if (top.size() > 8) top.resize(8);
    TextTable t({"layer", "expert", "fills", "demand score"});
    for (const auto& [key, n] : top) {
      t.add_row({std::to_string(key.first), std::to_string(key.second),
                 std::to_string(n), fmt_f(score(key.first, key.second), 3)});
    }
    os << "\nmost-promoted experts:\n" << t.render();
  }
  if (!refusals_.empty()) {
    os << "\nrefusals (pinned working sets stayed inviolable):\n";
    const std::size_t n = std::min<std::size_t>(refusals_.size(), 8);
    for (std::size_t i = 0; i < n; ++i) {
      os << "  " << refusals_[i].describe() << "\n";
    }
    if (refusals_.size() > n) {
      os << "  ... and " << refusals_.size() - n << " more\n";
    }
  }
  return os.str();
}

}  // namespace daop::cache
