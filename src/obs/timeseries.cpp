#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace daop::obs {

void TimeSeriesOptions::validate() const {
  if (window_s != 0.0) {
    DAOP_CHECK_MSG(window_s > 0.0 && std::isfinite(window_s),
                   "tseries window must be positive and finite");
  }
}

TimeSeriesRecorder::TimeSeriesRecorder(const TimeSeriesOptions& options,
                                       std::vector<std::string> channels)
    : options_(options) {
  options_.validate();
  if (!options_.enabled()) return;  // disabled: allocate nothing
  DAOP_CHECK_MSG(!channels.empty(), "recorder needs at least one channel");
  channels_ = std::move(channels);
  state_.resize(channels_.size());
}

const std::string& TimeSeriesRecorder::channel_name(int ch) const {
  DAOP_CHECK(ch >= 0 && ch < n_channels());
  return channels_[static_cast<std::size_t>(ch)];
}

// ---------------------------------------------------------------------------
// Slot table

SeriesHandle TimeSeriesRecorder::declare(int ch, std::string_view name,
                                         std::string_view help, Kind kind,
                                         const std::vector<double>* bounds,
                                         const Labels& labels) {
  if (!enabled()) return {};
  Channel& c = chan(ch);
  std::string& key = c.key_scratch;
  key.assign(name);
  append_label_set(key, labels);
  if (const auto it = c.series.find(key); it != c.series.end()) {
    const Slot& s = c.slots[static_cast<std::size_t>(it->second)];
    DAOP_CHECK_MSG(s.kind == kind, "metric '"
                                       << name
                                       << "' re-registered with a different "
                                          "type");
    if (kind == Kind::kHistogram) {
      DAOP_CHECK_MSG(
          c.hists[static_cast<std::size_t>(s.hist)].upper_bounds == *bounds,
          "histogram '" << name << "' re-registered with different buckets");
    }
    return SeriesHandle{ch, it->second};
  }
  const int idx = static_cast<int>(c.slots.size());
  const auto fit = c.families.find(name);
  Slot s;
  if (fit == c.families.end()) {
    DAOP_CHECK_MSG(valid_metric_name(name),
                   "invalid metric name '" << name << "'");
    s.family_slot = idx;
    s.help = help;
  } else {
    const Slot& f = c.slots[static_cast<std::size_t>(fit->second)];
    DAOP_CHECK_MSG(f.kind == kind, "metric '"
                                       << name
                                       << "' re-registered with a different "
                                          "type");
    if (kind == Kind::kHistogram) {
      DAOP_CHECK_MSG(
          c.hists[static_cast<std::size_t>(f.hist)].upper_bounds == *bounds,
          "histogram '" << name << "' re-registered with different buckets");
    }
    s.family_slot = fit->second;
  }
  s.family = name;
  s.kind = kind;
  s.key = key.substr(name.size());
  s.labels = labels;
  if (kind == Kind::kHistogram) {
    s.hist = static_cast<int>(c.hists.size());
    c.hists.emplace_back(*bounds);
    c.count_off.push_back(c.row_counts);
    c.row_counts += c.hists.back().counts.size();
  }
  c.slots.push_back(std::move(s));
  c.values.push_back(0.0);
  c.series.emplace(key, idx);
  if (fit == c.families.end()) c.families.emplace(std::string(name), idx);
  return SeriesHandle{ch, idx};
}

SeriesHandle TimeSeriesRecorder::counter(int ch, std::string_view name,
                                         std::string_view help,
                                         const Labels& labels) {
  return declare(ch, name, help, Kind::kCounter, nullptr, labels);
}

SeriesHandle TimeSeriesRecorder::gauge(int ch, std::string_view name,
                                       std::string_view help,
                                       const Labels& labels) {
  return declare(ch, name, help, Kind::kGauge, nullptr, labels);
}

SeriesHandle TimeSeriesRecorder::histogram(int ch, std::string_view name,
                                           std::string_view help,
                                           const Labels& labels) {
  static const std::vector<double> kBuckets = default_latency_buckets();
  return declare(ch, name, help, Kind::kHistogram, &kBuckets, labels);
}

// ---------------------------------------------------------------------------
// String-keyed recording

void TimeSeriesRecorder::count(int ch, std::string_view name,
                               std::string_view help, double d,
                               const Labels& labels) {
  if (!enabled()) return;
  add(counter(ch, name, help, labels), d);
}

void TimeSeriesRecorder::gauge_set(int ch, std::string_view name,
                                   std::string_view help, double v,
                                   const Labels& labels) {
  if (!enabled()) return;
  set(gauge(ch, name, help, labels), v);
}

void TimeSeriesRecorder::observe(int ch, std::string_view name,
                                 std::string_view help, double v,
                                 const Labels& labels) {
  if (!enabled()) return;
  observe(histogram(ch, name, help, labels), v);
}

void TimeSeriesRecorder::merge_hist(int ch, std::string_view name,
                                    std::string_view help,
                                    const HistogramData& data,
                                    const Labels& labels) {
  if (!enabled()) return;
  DAOP_CHECK_MSG(!finalized_, "recording into a finalized recorder");
  if (data.empty()) return;
  const SeriesHandle h = declare(ch, name, help, Kind::kHistogram,
                                 &data.upper_bounds, labels);
  Channel& c = chan(ch);
  const Slot& s = write(c, h.slot, Kind::kHistogram);
  c.hists[static_cast<std::size_t>(s.hist)].merge(data);
}

void TimeSeriesRecorder::record_registry_totals(int ch,
                                                const MetricsRegistry& reg,
                                                double t) {
  if (!enabled()) return;
  advance(ch, t);
  const MetricsSnapshot snap = reg.snapshot();
  for (const auto& [name, f] : snap.families) {
    for (const auto& [key, v] : f.values) {
      const Labels& labels = f.label_sets.at(key);
      if (f.kind == MetricsSnapshot::Kind::kGauge) {
        gauge_set(ch, name, f.help, v, labels);
      } else {
        count(ch, name, f.help, v, labels);
      }
    }
    for (const auto& [key, h] : f.histograms) {
      merge_hist(ch, name, f.help, h, f.label_sets.at(key));
    }
  }
}

// ---------------------------------------------------------------------------
// Sealing

void TimeSeriesRecorder::seal(Channel& c, double end) {
  c.seals.push_back(Seal{end, c.values.size(), c.sealed_values.size(),
                         c.sealed_counts.size(), c.sealed_totals.size()});
  c.sealed_values.insert(c.sealed_values.end(), c.values.begin(),
                         c.values.end());
  for (const HistogramData& h : c.hists) {
    c.sealed_counts.insert(c.sealed_counts.end(), h.counts.begin(),
                           h.counts.end());
    c.sealed_totals.push_back(h.total);
    c.sealed_sums.push_back(h.sum);
  }
  ++c.next_index;
}

void TimeSeriesRecorder::seal_through_clock(Channel& c) {
  const double w = options_.window_s;
  while (static_cast<double>(c.next_index + 1) * w <= c.clock) {
    seal(c, static_cast<double>(c.next_index + 1) * w);
  }
}

bool TimeSeriesRecorder::open_window_empty(const Channel& c) const {
  // The open window's delta against the last sealed row is empty when no
  // counter moved, every gauge reads 0 and no histogram gained
  // observations. A series born before the open window is in that row.
  const std::size_t v0 = c.seals.empty() ? 0 : c.seals.back().values_at;
  const std::size_t t0 = c.seals.empty() ? 0 : c.seals.back().hists_at;
  for (std::size_t i = 0; i < c.slots.size(); ++i) {
    const Slot& s = c.slots[i];
    if (s.born < 0) continue;
    const bool carried = s.born < c.next_index;
    switch (s.kind) {
      case Kind::kCounter: {
        const double base = carried ? c.sealed_values[v0 + i] : 0.0;
        if (c.values[i] - base != 0.0) return false;
        break;
      }
      case Kind::kGauge:
        if (c.values[i] != 0.0) return false;
        break;
      case Kind::kHistogram: {
        const auto h = static_cast<std::size_t>(s.hist);
        const long long base = carried ? c.sealed_totals[t0 + h] : 0;
        if (c.hists[h].total - base != 0) return false;
        break;
      }
    }
  }
  return true;
}

void TimeSeriesRecorder::finalize(double end) {
  if (!enabled() || finalized_) return;
  const double w = options_.window_s;
  for (Channel& c : state_) {
    c.clock = std::max(c.clock, end);
    seal_through_clock(c);
    const double open_start = static_cast<double>(c.next_index) * w;
    // A final partial window; or, for content recorded exactly at the
    // final grid boundary, a zero-width one when it is non-empty.
    if (c.clock > open_start || !open_window_empty(c)) seal(c, c.clock);
  }
  finalized_ = true;
  aggregate_ = build_aggregate();
}

void TimeSeriesRecorder::record_event(double time, int ch, std::string kind,
                                      std::string detail) {
  if (!enabled() || finalized_) return;
  DAOP_CHECK(ch >= 0 && ch < n_channels());
  events_.push_back(
      TimeSeriesEvent{time, ch, std::move(kind), std::move(detail)});
}

// ---------------------------------------------------------------------------
// Read side

void TimeSeriesRecorder::add_delta(const Channel& c, std::size_t k,
                                   bool merge, MetricsSnapshot& into) const {
  const Seal& row = c.seals[k];
  const Seal* prev = k > 0 ? &c.seals[k - 1] : nullptr;
  const auto index = static_cast<long long>(k);
  for (std::size_t i = 0; i < row.n_values; ++i) {
    const Slot& s = c.slots[i];
    if (s.born < 0 || s.born > index) continue;
    // Born in an earlier window: subtract the previous row. Born in this
    // one: subtract nothing (the series was absent before).
    const bool carried = s.born < index;
    MetricsSnapshot::Family& f = into.families[s.family];
    f.kind = s.kind;
    f.help = c.slots[static_cast<std::size_t>(s.family_slot)].help;
    f.label_sets[s.key] = s.labels;
    if (s.kind != Kind::kHistogram) {
      double d = c.sealed_values[row.values_at + i];
      if (s.kind == Kind::kCounter) {
        const double base =
            carried ? c.sealed_values[prev->values_at + i] : 0.0;
        DAOP_CHECK_MSG(d >= base, "counter '" << s.family << s.key
                                              << "' moved backwards");
        d -= base;
      }
      if (merge) {
        f.values[s.key] += d;
      } else {
        f.values[s.key] = d;
      }
      continue;
    }
    const auto h = static_cast<std::size_t>(s.hist);
    HistogramData d(c.hists[h].upper_bounds);
    const long long* cur = &c.sealed_counts[row.counts_at + c.count_off[h]];
    d.total = c.sealed_totals[row.hists_at + h];
    d.sum = c.sealed_sums[row.hists_at + h];
    std::copy(cur, cur + d.counts.size(), d.counts.begin());
    if (carried) {
      const long long* before =
          &c.sealed_counts[prev->counts_at + c.count_off[h]];
      for (std::size_t b = 0; b < d.counts.size(); ++b) {
        DAOP_CHECK_MSG(d.counts[b] >= before[b], "histogram '"
                                                     << s.family << s.key
                                                     << "' moved backwards");
        d.counts[b] -= before[b];
      }
      d.total -= c.sealed_totals[prev->hists_at + h];
      d.sum -= c.sealed_sums[prev->hists_at + h];
    }
    if (merge) {
      f.histograms[s.key].merge(d);
    } else {
      f.histograms[s.key] = std::move(d);
    }
  }
}

std::vector<SeriesWindow> TimeSeriesRecorder::build_aggregate() const {
  std::vector<SeriesWindow> out;
  const long long n = n_windows();
  out.reserve(static_cast<std::size_t>(n));
  for (long long idx = 0; idx < n; ++idx) {
    SeriesWindow w;
    w.index = idx;
    w.start = static_cast<double>(idx) * options_.window_s;
    w.end = w.start;
    // Counters and gauges both sum across channels (in channel order):
    // summed depth / occupancy / level gauges are the fleet-level reading.
    for (const Channel& c : state_) {
      const auto k = static_cast<std::size_t>(idx);
      if (k >= c.seals.size()) continue;
      w.end = std::max(w.end, c.seals[k].end);
      add_delta(c, k, /*merge=*/true, w.delta);
    }
    out.push_back(std::move(w));
  }
  return out;
}

const std::vector<SeriesWindow>& TimeSeriesRecorder::windows(int ch) const {
  DAOP_CHECK(ch >= 0 && ch < n_channels());
  DAOP_CHECK_MSG(finalized_, "tseries windows are read after finalize()");
  const Channel& c = state_[static_cast<std::size_t>(ch)];
  if (!c.windows_built) {
    c.windows.reserve(c.seals.size());
    for (std::size_t k = 0; k < c.seals.size(); ++k) {
      SeriesWindow w;
      w.index = static_cast<long long>(k);
      w.start = static_cast<double>(k) * options_.window_s;
      w.end = c.seals[k].end;
      add_delta(c, k, /*merge=*/false, w.delta);
      c.windows.push_back(std::move(w));
    }
    c.windows_built = true;
  }
  return c.windows;
}

const std::vector<SeriesWindow>& TimeSeriesRecorder::aggregate() const {
  DAOP_CHECK_MSG(finalized_ || !enabled(),
                 "tseries aggregate is read after finalize()");
  return aggregate_;
}

long long TimeSeriesRecorder::n_windows() const {
  long long n = 0;
  for (const Channel& c : state_) {
    n = std::max(n, static_cast<long long>(c.seals.size()));
  }
  return n;
}

std::vector<TimeSeriesRecorder::SeriesIndex> TimeSeriesRecorder::series_index(
    const std::vector<SeriesWindow>& windows) {
  std::map<std::string, SeriesIndex> by_family;
  std::map<std::string, std::set<std::string>> keys;
  for (const SeriesWindow& w : windows) {
    for (const auto& [name, f] : w.delta.families) {
      auto& e = by_family[name];
      e.family = name;
      e.kind = f.kind;
      for (const auto& [key, v] : f.values) keys[name].insert(key);
      for (const auto& [key, h] : f.histograms) keys[name].insert(key);
    }
  }
  std::vector<SeriesIndex> out;
  out.reserve(by_family.size());
  for (auto& [name, e] : by_family) {
    e.keys.assign(keys[name].begin(), keys[name].end());
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace daop::obs
