#include "cache/expert_cache.hpp"

#include <algorithm>
#include <limits>
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

void ExpertCacheOptions::validate() const {
  DAOP_CHECK_GE(realloc_interval, 1);
  DAOP_CHECK_GE(max_swaps_per_step, 1);
  DAOP_CHECK_GE(hysteresis, 0.0);
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
  if (opt_.policy == CachePolicy::kReusePredictor) {
    layer_scores_.resize(static_cast<std::size_t>(n_experts));
  }
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

void ExpertCache::note_signature_use(std::size_t i, long long session) {
  const auto it = live_.find(session);
  if (it != live_.end()) it->second[i] += 1.0;
}

double ExpertCache::score(int layer, int expert) const {
  const std::size_t i = idx(layer, expert);
  const double* scores = score_array();
  return scores != nullptr ? scores[i] : reuse_score(i);
}

const double* ExpertCache::score_array() const {
  // kFrozen never constructs a cache (see the constructor).
  return opt_.policy == CachePolicy::kLru   ? last_use_.data()
         : opt_.policy == CachePolicy::kLfu ? freq_.data()
         : opt_.policy == CachePolicy::kActivationWeighted ? ewma_.data()
                                                           : nullptr;
}

double ExpertCache::reuse_score(std::size_t i) const {
  // Aggregate demand across all live sessions, summed in ascending
  // session-id order (ordered map) for bit-stable float accumulation.
  double s = 0.0;
  for (const auto& [id, sig] : live_) s += sig[i];
  return s;
}

std::span<const PlannedSwap> ExpertCache::plan(const Placement& placement,
                                               const PlacementArbiter* arbiter,
                                               long long session) {
  DAOP_CHECK_EQ(placement.n_layers(), n_layers_);
  DAOP_CHECK_EQ(placement.n_experts(), n_experts_);
  ++plans_;
  if (opt_.policy == CachePolicy::kActivationWeighted) {
    // Fold the activations since the previous scan into the EWMA.
    for (std::size_t i = 0; i < ewma_.size(); ++i) {
      ewma_[i] = ewma_[i] * kActivationDecay + (freq_[i] - prev_freq_[i]);
      prev_freq_[i] = freq_[i];
    }
  }
  plan_.clear();
  const double* const scores = score_array();
  // Potential victims: GPU residents not pinned by another session (pinned
  // working sets are inviolable — their demand is live by definition).
  // Candidates: every CPU resident.
  const auto is_victim = [&](int l, int e) {
    return arbiter == nullptr || !arbiter->pinned_by_other(l, e, session);
  };
  int budget = opt_.max_swaps_per_step;
  for (int l = 0; l < n_layers_ && budget > 0; ++l) {
    const std::size_t base = idx(l, 0);
    const double* row = scores + base;
    if (scores == nullptr) {
      for (std::size_t e = 0; e < layer_scores_.size(); ++e) {
        layer_scores_[e] = reuse_score(base + e);
      }
      row = layer_scores_.data();
    }
    const std::span<const Device> residency = placement.layer(l);
    // First pass: the layer's score spread, its strongest candidate and its
    // weakest victim.
    double lo = row[0];
    double hi = row[0];
    double strongest = -std::numeric_limits<double>::infinity();
    double weakest = std::numeric_limits<double>::infinity();
    for (int e = 0; e < n_experts_; ++e) {
      const double s = row[e];
      lo = std::min(lo, s);
      hi = std::max(hi, s);
      if (residency[static_cast<std::size_t>(e)] == Device::Cpu) {
        strongest = std::max(strongest, s);
      } else if (is_victim(l, e)) {
        weakest = std::min(weakest, s);
      }
    }
    // Hysteresis is a fraction of this layer's score spread, so the margin
    // is meaningful whether scores are timestamps (lru) or counts (lfu).
    const double margin = opt_.hysteresis * (hi - lo);
    // Pairs are matched best-candidate-to-weakest-victim and the first
    // failing pair ends the layer, so a layer whose strongest candidate
    // does not beat its weakest victim (or that lacks either) plans
    // nothing, and most scans stop here.
    if (!(strongest > weakest + margin)) continue;
    victims_.clear();
    candidates_.clear();
    for (int e = 0; e < n_experts_; ++e) {
      if (residency[static_cast<std::size_t>(e)] == Device::Cpu) {
        candidates_.emplace_back(row[e], e);
      } else if (is_victim(l, e)) {
        victims_.emplace_back(row[e], e);
      }
    }
    // Weakest victims first, strongest candidates first; ties break on
    // lower expert id so plans are deterministic. Only the first `pairs`
    // of each order can be matched under the remaining budget, and the
    // order is total, so a partial sort yields the same pairs.
    const std::size_t pairs =
        std::min({victims_.size(), candidates_.size(),
                  static_cast<std::size_t>(budget)});
    std::partial_sort(victims_.begin(),
                      victims_.begin() + static_cast<std::ptrdiff_t>(pairs),
                      victims_.end(), [](const auto& a, const auto& b) {
                        return a.first != b.first ? a.first < b.first
                                                  : a.second < b.second;
                      });
    std::partial_sort(candidates_.begin(),
                      candidates_.begin() + static_cast<std::ptrdiff_t>(pairs),
                      candidates_.end(), [](const auto& a, const auto& b) {
                        return a.first != b.first ? a.first > b.first
                                                  : a.second < b.second;
                      });
    for (std::size_t k = 0; k < pairs && budget > 0; ++k) {
      if (candidates_[k].first <= victims_[k].first + margin) break;
      plan_.push_back({l, candidates_[k].second, victims_[k].second});
      --budget;
    }
  }
  return plan_;
}

void ExpertCache::commit(const PlannedSwap& swap, long long session,
                         double time, int victim_other_pins,
                         const Placement& placement) {
  const CacheEvent evict{CacheEvent::Kind::kEvict, swap.layer, swap.expert_out,
                         swap.expert_in, session, time, victim_other_pins,
                         placement.gpu_count(swap.layer),
                         placement.capacity(swap.layer)};
  CacheEvent fill = evict;
  fill.kind = CacheEvent::Kind::kFill;
  fill.expert = swap.expert_in;
  fill.peer = swap.expert_out;
  ledger_.push_back(evict);
  ledger_.push_back(fill);
  ++evictions_;
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
