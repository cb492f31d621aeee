#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/check.hpp"

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
  for (const std::string& name : channels_) {
    state_.push_back(std::make_unique<Channel>());
    state_.back()->name = name;
  }
}

const std::string& TimeSeriesRecorder::channel_name(int ch) const {
  DAOP_CHECK(ch >= 0 && ch < n_channels());
  return channels_[static_cast<std::size_t>(ch)];
}

TimeSeriesRecorder::Channel& TimeSeriesRecorder::chan(int ch) {
  DAOP_CHECK_MSG(ch >= 0 && ch < n_channels(),
                 "tseries channel " << ch << " out of range");
  return *state_[static_cast<std::size_t>(ch)];
}

void TimeSeriesRecorder::count(int ch, std::string_view name,
                               std::string_view help, double d,
                               const Labels& labels) {
  if (!enabled()) return;
  DAOP_CHECK_MSG(!finalized_, "recording into a finalized recorder");
  chan(ch).live.counter(name, help, labels).inc(d);
}

void TimeSeriesRecorder::count_total(int ch, std::string_view name,
                                     std::string_view help, double total,
                                     const Labels& labels) {
  if (!enabled()) return;
  DAOP_CHECK_MSG(!finalized_, "recording into a finalized recorder");
  Channel& c = chan(ch);
  std::string& key = c.key_scratch;
  key.assign(name);
  append_label_set(key, labels);
  auto it = c.last_totals.find(key);
  if (it == c.last_totals.end()) it = c.last_totals.emplace(key, 0.0).first;
  double& last = it->second;
  DAOP_CHECK_MSG(total >= last - 1e-12,
                 "cumulative total '" << key << "' moved backwards");
  if (total > last) {
    c.live.counter(name, help, labels).inc(total - last);
    last = total;
  }
}

void TimeSeriesRecorder::gauge_set(int ch, std::string_view name,
                                   std::string_view help, double v,
                                   const Labels& labels) {
  if (!enabled()) return;
  DAOP_CHECK_MSG(!finalized_, "recording into a finalized recorder");
  chan(ch).live.gauge(name, help, labels).set(v);
}

void TimeSeriesRecorder::observe(int ch, std::string_view name,
                                 std::string_view help, double v,
                                 const Labels& labels) {
  if (!enabled()) return;
  DAOP_CHECK_MSG(!finalized_, "recording into a finalized recorder");
  static const std::vector<double> kBuckets = default_latency_buckets();
  chan(ch).live.histogram(name, help, kBuckets, labels).observe(v);
}

void TimeSeriesRecorder::merge_hist(int ch, std::string_view name,
                                    std::string_view help,
                                    const HistogramData& data,
                                    const Labels& labels) {
  if (!enabled()) return;
  DAOP_CHECK_MSG(!finalized_, "recording into a finalized recorder");
  if (data.empty()) return;
  chan(ch).live.histogram(name, help, data.upper_bounds, labels).merge(data);
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

void TimeSeriesRecorder::seal(Channel& c, double end) {
  MetricsSnapshot snap = c.live.snapshot();
  SeriesWindow w;
  w.index = c.next_index;
  w.start = static_cast<double>(c.next_index) * options_.window_s;
  w.end = end;
  w.delta = snap.delta(c.prev);
  c.windows.push_back(std::move(w));
  c.prev = std::move(snap);
  ++c.next_index;
}

void TimeSeriesRecorder::advance(int ch, double now) {
  if (!enabled() || finalized_) return;
  Channel& c = chan(ch);
  c.clock = std::max(c.clock, now);
  const double w = options_.window_s;
  while (static_cast<double>(c.next_index + 1) * w <= c.clock) {
    seal(c, static_cast<double>(c.next_index + 1) * w);
  }
}

void TimeSeriesRecorder::record_event(double time, int ch, std::string kind,
                                      std::string detail) {
  if (!enabled() || finalized_) return;
  DAOP_CHECK(ch >= 0 && ch < n_channels());
  events_.push_back(
      TimeSeriesEvent{time, ch, std::move(kind), std::move(detail)});
}

void TimeSeriesRecorder::finalize(double end) {
  if (!enabled() || finalized_) return;
  const double w = options_.window_s;
  for (auto& cp : state_) {
    Channel& c = *cp;
    c.clock = std::max(c.clock, end);
    while (static_cast<double>(c.next_index + 1) * w <= c.clock) {
      seal(c, static_cast<double>(c.next_index + 1) * w);
    }
    const double open_start = static_cast<double>(c.next_index) * w;
    if (c.clock > open_start) {
      seal(c, c.clock);  // final partial window
    } else {
      // Content recorded exactly at the final grid boundary still needs a
      // home: seal a zero-width window only when it is non-empty.
      MetricsSnapshot snap = c.live.snapshot();
      if (!snap.delta(c.prev).zero()) seal(c, c.clock);
    }
  }
  finalized_ = true;
}

const std::vector<SeriesWindow>& TimeSeriesRecorder::windows(int ch) const {
  DAOP_CHECK(ch >= 0 && ch < n_channels());
  return state_[static_cast<std::size_t>(ch)]->windows;
}

long long TimeSeriesRecorder::n_windows() const {
  long long n = 0;
  for (const auto& c : state_) {
    n = std::max(n, static_cast<long long>(c->windows.size()));
  }
  return n;
}

std::vector<SeriesWindow> TimeSeriesRecorder::aggregate() const {
  std::vector<SeriesWindow> out;
  const long long n = n_windows();
  out.reserve(static_cast<std::size_t>(n));
  for (long long idx = 0; idx < n; ++idx) {
    SeriesWindow w;
    w.index = idx;
    w.start = static_cast<double>(idx) * options_.window_s;
    w.end = w.start;
    for (const auto& c : state_) {
      if (idx >= static_cast<long long>(c->windows.size())) continue;
      const SeriesWindow& cw = c->windows[static_cast<std::size_t>(idx)];
      w.end = std::max(w.end, cw.end);
      for (const auto& [name, f] : cw.delta.families) {
        auto& mf = w.delta.families[name];
        mf.kind = f.kind;
        mf.help = f.help;
        for (const auto& [key, labels] : f.label_sets) {
          mf.label_sets[key] = labels;
        }
        // Counters and gauges both sum across channels: summed depth /
        // occupancy / level gauges are the fleet-level reading.
        for (const auto& [key, v] : f.values) mf.values[key] += v;
        for (const auto& [key, h] : f.histograms) {
          mf.histograms[key].merge(h);
        }
      }
    }
    out.push_back(std::move(w));
  }
  return out;
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
