#include "obs/alerting.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "common/check.hpp"
#include "common/cli.hpp"

namespace daop::obs {
namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\n' ||
                   s[b] == '\r')) {
    ++b;
  }
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\n' ||
                   s[e - 1] == '\r')) {
    --e;
  }
  return s.substr(b, e - b);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

double parse_num(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  DAOP_CHECK_MSG(end != nullptr && *end == '\0' && !v.empty(),
                 "slo rule field '" << key << "': bad number '" << v << "'");
  return x;
}

/// A window count: an integer under FlagParser::get_int's rule (whole,
/// base 10, in int range). `rule` names the rule in the diagnostic.
int parse_window_count(const std::string& rule, const std::string& key,
                       const std::string& v) {
  const std::optional<int> n = parse_int(v);
  DAOP_CHECK_MSG(n.has_value(),
                 "slo rule '" << rule << "' field '" << key
                              << "' expects a whole number in int range, got '"
                              << v << "'");
  return *n;
}

/// Per-window bad/total pair for one rule.
struct WindowSignal {
  double bad = 0.0;
  double total = 0.0;
};

WindowSignal rule_signal(const SloRule& rule, const SeriesWindow& w) {
  WindowSignal s;
  const auto it = w.delta.families.find(rule.signal);
  if (rule.kind == SloRule::Kind::kLatency) {
    if (it == w.delta.families.end()) return s;
    for (const auto& [key, h] : it->second.histograms) {
      s.total += static_cast<double>(h.total);
      // "Good" = observations in buckets whose upper bound fits the target;
      // the target is effectively snapped down to a bucket bound.
      long long good = 0;
      for (std::size_t i = 0; i < h.upper_bounds.size(); ++i) {
        if (h.upper_bounds[i] <= rule.target_s + 1e-12) {
          good += h.counts[i];
        } else {
          break;
        }
      }
      s.bad += static_cast<double>(h.total - good);
    }
    return s;
  }
  if (it != w.delta.families.end()) {
    for (const auto& [key, v] : it->second.values) s.bad += v;
  }
  const auto tit = w.delta.families.find(rule.total);
  if (tit != w.delta.families.end()) {
    for (const auto& [key, v] : tit->second.values) s.total += v;
  }
  return s;
}

/// Burn rate over signals[i-k+1 .. i] (clipped at 0): bad-fraction divided
/// by the error budget. Zero traffic burns nothing.
double burn_over(const std::vector<WindowSignal>& sig, std::size_t i,
                 int k, double objective) {
  double bad = 0.0, total = 0.0;
  const std::size_t lo = i + 1 >= static_cast<std::size_t>(k)
                             ? i + 1 - static_cast<std::size_t>(k)
                             : 0;
  for (std::size_t j = lo; j <= i; ++j) {
    bad += sig[j].bad;
    total += sig[j].total;
  }
  if (total <= 0.0) return 0.0;
  const double budget = 1.0 - objective;
  return (bad / total) / budget;
}

std::string jstr(const std::string& s) {
  return "\"" + json_escape_string(s) + "\"";
}

std::string num(double v) {
  if (std::isnan(v)) return "null";
  return format_metric_value(v);
}

std::string fmt2(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

void append_rule_json(std::string& out, const SloRule& r) {
  out += "{\"name\":" + jstr(r.name) + ",\"kind\":" +
         jstr(r.kind == SloRule::Kind::kLatency ? "latency" : "ratio") +
         ",\"signal\":" + jstr(r.signal);
  if (r.kind == SloRule::Kind::kRatio) out += ",\"total\":" + jstr(r.total);
  if (r.kind == SloRule::Kind::kLatency) {
    out += ",\"target_s\":" + num(r.target_s);
  }
  out += ",\"objective\":" + num(r.objective) +
         ",\"fast_windows\":" + num(r.fast_windows) +
         ",\"slow_windows\":" + num(r.slow_windows) +
         ",\"fast_burn\":" + num(r.fast_burn) +
         ",\"slow_burn\":" + num(r.slow_burn) + "}";
}

void append_channel_json(std::string& out, const std::string& name,
                         const std::vector<SeriesWindow>& windows) {
  out += "{\"name\":" + jstr(name) + ",\"windows\":[";
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (i != 0) out += ",";
    out += "{\"index\":" + num(static_cast<double>(windows[i].index)) +
           ",\"start\":" + num(windows[i].start) +
           ",\"end\":" + num(windows[i].end) + "}";
  }
  out += "],";
  const auto index = TimeSeriesRecorder::series_index(windows);
  auto value_at = [&](const SeriesWindow& w, const std::string& family,
                      const std::string& key) {
    const auto it = w.delta.families.find(family);
    if (it == w.delta.families.end()) return 0.0;
    const auto vit = it->second.values.find(key);
    return vit == it->second.values.end() ? 0.0 : vit->second;
  };
  auto hist_at = [&](const SeriesWindow& w, const std::string& family,
                     const std::string& key) -> const HistogramData* {
    const auto it = w.delta.families.find(family);
    if (it == w.delta.families.end()) return nullptr;
    const auto hit = it->second.histograms.find(key);
    return hit == it->second.histograms.end() ? nullptr : &hit->second;
  };
  auto emit_scalar = [&](MetricsSnapshot::Kind kind, const char* section) {
    out += std::string("\"") + section + "\":[";
    bool first = true;
    for (const auto& s : index) {
      if (s.kind != kind) continue;
      for (const std::string& key : s.keys) {
        if (!first) out += ",";
        first = false;
        out += "{\"name\":" + jstr(s.family) + ",\"labels\":" + jstr(key) +
               ",\"values\":[";
        for (std::size_t i = 0; i < windows.size(); ++i) {
          if (i != 0) out += ",";
          out += num(value_at(windows[i], s.family, key));
        }
        out += "]}";
      }
    }
    out += "]";
  };
  emit_scalar(MetricsSnapshot::Kind::kCounter, "counters");
  out += ",";
  emit_scalar(MetricsSnapshot::Kind::kGauge, "gauges");
  out += ",\"histograms\":[";
  bool first = true;
  for (const auto& s : index) {
    if (s.kind != MetricsSnapshot::Kind::kHistogram) continue;
    for (const std::string& key : s.keys) {
      if (!first) out += ",";
      first = false;
      out += "{\"name\":" + jstr(s.family) + ",\"labels\":" + jstr(key);
      auto emit_stat = [&](const char* stat, auto fn) {
        out += std::string(",\"") + stat + "\":[";
        for (std::size_t i = 0; i < windows.size(); ++i) {
          if (i != 0) out += ",";
          const HistogramData* h = hist_at(windows[i], s.family, key);
          out += fn(h);
        }
        out += "]";
      };
      emit_stat("count", [&](const HistogramData* h) {
        return num(h == nullptr ? 0.0 : static_cast<double>(h->total));
      });
      emit_stat("sum", [&](const HistogramData* h) {
        return num(h == nullptr ? 0.0 : h->sum);
      });
      for (double q : {0.5, 0.9, 0.99}) {
        char stat[16];
        std::snprintf(stat, sizeof(stat), "p%g", q * 100.0);
        emit_stat(stat, [&](const HistogramData* h) {
          return num(h == nullptr
                         ? std::numeric_limits<double>::quiet_NaN()
                         : histogram_quantile(*h, q));
        });
      }
      out += "}";
    }
  }
  out += "]}";
}

/// Sparkline over values normalized to their max; NaN renders as a space.
std::string sparkline(const std::vector<double>& values) {
  static const char* kGlyphs[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  double mx = 0.0;
  for (double v : values) {
    if (std::isfinite(v)) mx = std::max(mx, v);
  }
  std::string out;
  for (double v : values) {
    if (!std::isfinite(v)) {
      out += " ";
      continue;
    }
    int level = 0;
    if (mx > 0.0) {
      level = static_cast<int>(v / mx * 7.0 + 0.5);
      level = std::max(0, std::min(7, level));
    }
    out += kGlyphs[level];
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Rules

void SloRule::validate() const {
  DAOP_CHECK_MSG(!name.empty(), "slo rule needs a name");
  DAOP_CHECK_MSG(!signal.empty(),
                 "slo rule '" << name << "' needs a signal family");
  if (kind == Kind::kRatio) {
    DAOP_CHECK_MSG(!total.empty(),
                   "ratio rule '" << name << "' needs a total family");
  } else {
    DAOP_CHECK_MSG(target_s > 0.0 && std::isfinite(target_s),
                   "latency rule '" << name << "' needs a finite target > 0");
  }
  DAOP_CHECK_MSG(objective > 0.0 && objective < 1.0,
                 "slo rule '" << name << "': objective must be in (0,1)");
  DAOP_CHECK_MSG(fast_windows >= 1 && slow_windows >= fast_windows,
                 "slo rule '" << name << "': need slow >= fast >= 1 windows");
  DAOP_CHECK_MSG(fast_burn > 0.0 && slow_burn > 0.0 &&
                     std::isfinite(fast_burn) && std::isfinite(slow_burn),
                 "slo rule '" << name
                              << "': burn thresholds must be finite and > 0");
}

std::vector<SloRule> parse_slo_rules(const std::string& spec) {
  std::vector<SloRule> rules;
  for (const std::string& raw : split(spec, ';')) {
    const std::string rule_s = trim(raw);
    if (rule_s.empty()) continue;
    SloRule r;
    // Diagnostics name the rule by its name once set, else by position.
    const auto rule_id = [&r, &rules] {
      return r.name.empty() ? "#" + std::to_string(rules.size() + 1) : r.name;
    };
    for (const std::string& raw_field : split(rule_s, ',')) {
      const std::string field = trim(raw_field);
      if (field.empty()) continue;
      const std::size_t eq = field.find('=');
      DAOP_CHECK_MSG(eq != std::string::npos,
                     "slo rule field '" << field << "' is not key=value");
      const std::string key = trim(field.substr(0, eq));
      const std::string value = trim(field.substr(eq + 1));
      if (key == "name") {
        r.name = value;
      } else if (key == "kind") {
        if (value == "latency") {
          r.kind = SloRule::Kind::kLatency;
        } else if (value == "ratio") {
          r.kind = SloRule::Kind::kRatio;
        } else {
          DAOP_CHECK_MSG(false, "slo rule kind '" << value
                                                  << "' (latency|ratio)");
        }
      } else if (key == "signal") {
        r.signal = value;
      } else if (key == "total") {
        r.total = value;
      } else if (key == "target") {
        r.target_s = parse_num(key, value);
      } else if (key == "objective") {
        r.objective = parse_num(key, value);
      } else if (key == "fast") {
        r.fast_windows = parse_window_count(rule_id(), key, value);
      } else if (key == "slow") {
        r.slow_windows = parse_window_count(rule_id(), key, value);
      } else if (key == "fast-burn") {
        r.fast_burn = parse_num(key, value);
      } else if (key == "slow-burn") {
        r.slow_burn = parse_num(key, value);
      } else {
        DAOP_CHECK_MSG(false, "unknown slo rule key '" << key << "'");
      }
    }
    r.validate();
    rules.push_back(std::move(r));
  }
  return rules;
}

std::vector<SloRule> default_slo_rules() {
  std::vector<SloRule> rules;
  {
    // 90% of first tokens within 10 s. The target leaves headroom over the
    // intrinsic short-prompt prefill time (~2.5 s simulated for 64 tokens)
    // so an in-budget run never pages on service time alone; queueing
    // delay, crash failover and degraded replicas are what breach it. Fast
    // window pages when >= 40% of recent traffic breaches, gated by a
    // sustained slow window. Operators with longer prompts calibrate their
    // own target via --slo-rules.
    SloRule r;
    r.name = "ttft-burn";
    r.kind = SloRule::Kind::kLatency;
    r.signal = "daop_serving_ttft_seconds";
    r.target_s = 10.0;
    r.objective = 0.9;
    r.fast_windows = 2;
    r.slow_windows = 6;
    r.fast_burn = 4.0;
    r.slow_burn = 2.0;
    rules.push_back(std::move(r));
  }
  {
    // 99% of requests not shed. A >= 10% shed fraction in the fast window
    // (10x budget) with sustained slow-window burn pages.
    SloRule r;
    r.name = "shed-burn";
    r.kind = SloRule::Kind::kRatio;
    r.signal = "daop_requests_shed_total";
    r.total = "daop_serving_requests_total";
    r.objective = 0.99;
    r.fast_windows = 1;
    r.slow_windows = 4;
    r.fast_burn = 10.0;
    r.slow_burn = 5.0;
    rules.push_back(std::move(r));
  }
  for (const SloRule& r : rules) r.validate();
  return rules;
}

// ---------------------------------------------------------------------------
// Evaluation

AlertReport evaluate_slo_rules(const std::vector<SloRule>& rules,
                               const TimeSeriesRecorder& rec) {
  AlertReport report;
  report.rules = rules;
  if (!rec.enabled()) return report;
  DAOP_CHECK_MSG(rec.finalized(),
                 "evaluate_slo_rules needs a finalized recorder");
  const std::vector<SeriesWindow>& agg = rec.aggregate();
  if (agg.empty()) return report;
  for (const SloRule& rule : rules) {
    rule.validate();
    std::vector<WindowSignal> sig(agg.size());
    for (std::size_t i = 0; i < agg.size(); ++i) {
      sig[i] = rule_signal(rule, agg[i]);
    }
    bool open = false;
    AlertEpisode episode;
    for (std::size_t i = 0; i < agg.size(); ++i) {
      const double fast = burn_over(sig, i, rule.fast_windows,
                                    rule.objective);
      const double slow = burn_over(sig, i, rule.slow_windows,
                                    rule.objective);
      const double t = agg[i].end;
      if (!open && fast >= rule.fast_burn && slow >= rule.slow_burn) {
        open = true;
        episode = AlertEpisode{};
        episode.rule = rule.name;
        episode.open_time = t;
        episode.peak_fast_burn = fast;
        // Detection latency: from the start of the consecutive run of
        // budget-burning windows (single-window burn >= 1) ending here.
        std::size_t first_bad = i;
        while (first_bad > 0 &&
               burn_over(sig, first_bad - 1, 1, rule.objective) >= 1.0) {
          --first_bad;
        }
        if (burn_over(sig, first_bad, 1, rule.objective) < 1.0 &&
            first_bad < i) {
          ++first_bad;
        }
        episode.detection_latency_s = t - agg[first_bad].start;
        report.events.push_back(
            AlertEvent{rule.name, t, true, fast, slow});
      } else if (open) {
        episode.peak_fast_burn = std::max(episode.peak_fast_burn, fast);
        if (fast < rule.fast_burn) {
          open = false;
          episode.close_time = t;
          episode.closed = true;
          report.events.push_back(
              AlertEvent{rule.name, t, false, fast, slow});
          report.episodes.push_back(episode);
        }
      }
    }
    if (open) {
      episode.close_time = agg.back().end;
      episode.closed = false;
      report.episodes.push_back(episode);
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Incident correlation

std::vector<Incident> correlate_incidents(const AlertReport& report,
                                          const TimeSeriesRecorder& rec,
                                          double lookback_s) {
  std::vector<Incident> incidents;
  if (!rec.enabled()) return incidents;
  struct Cause {
    double time;
    std::string kind;
    std::string text;
  };
  // Per-window signal spikes become synthetic causes alongside the causal
  // event log entries.
  std::vector<Cause> spikes;
  for (const SeriesWindow& w : rec.aggregate()) {
    const auto hz = w.delta.families.find("daop_hazard_stall_seconds_total");
    if (hz != w.delta.families.end()) {
      double stall = 0.0;
      for (const auto& [key, v] : hz->second.values) stall += v;
      if (stall > 0.05 * rec.window_s()) {
        spikes.push_back(Cause{w.start, "hazard burst",
                               "hazard burst (stall " + fmt2(stall) +
                                   "s in window " +
                                   std::to_string(w.index) + ")"});
      }
    }
    const auto sh = w.delta.families.find("daop_requests_shed_total");
    if (sh != w.delta.families.end()) {
      double shed = 0.0;
      for (const auto& [key, v] : sh->second.values) shed += v;
      if (shed > 0.0) {
        spikes.push_back(Cause{w.start, "shed spike",
                               "shed spike (" + format_metric_value(shed) +
                                   " in window " + std::to_string(w.index) +
                                   ")"});
      }
    }
  }
  for (const AlertEpisode& ep : report.episodes) {
    Incident inc;
    inc.rule = ep.rule;
    inc.open_time = ep.open_time;
    inc.close_time = ep.close_time;
    inc.closed = ep.closed;
    inc.detection_latency_s = ep.detection_latency_s;
    const double lo = ep.open_time - lookback_s;
    const double hi = ep.close_time;
    std::vector<Cause> causes;
    for (const TimeSeriesEvent& ev : rec.events()) {
      if (ev.time < lo || ev.time > hi) continue;
      causes.push_back(Cause{ev.time, ev.kind,
                             rec.channel_name(ev.channel) + " " + ev.kind +
                                 " " + ev.detail});
    }
    for (const Cause& s : spikes) {
      if (s.time < lo || s.time > hi) continue;
      causes.push_back(s);
    }
    std::stable_sort(causes.begin(), causes.end(),
                     [](const Cause& a, const Cause& b) {
                       return a.time < b.time;
                     });
    std::vector<std::string> chain;
    for (const Cause& c : causes) {
      inc.causes.push_back("t=" + fmt2(c.time) + " " + c.text);
      if (std::find(chain.begin(), chain.end(), c.kind) == chain.end()) {
        chain.push_back(c.kind);
      }
    }
    if (ep.closed) chain.push_back("recovered");
    std::string joined;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      if (i != 0) joined += " -> ";
      joined += chain[i];
    }
    inc.chain = joined;
    incidents.push_back(std::move(inc));
  }
  return incidents;
}

// ---------------------------------------------------------------------------
// Renderers

std::string to_tseries_json(const TimeSeriesRecorder& rec,
                            const AlertReport& report,
                            const std::vector<Incident>& incidents) {
  std::string out = "{\"schema\":\"daop-tseries/1\"";
  out += ",\"window_s\":" + num(rec.window_s());
  out += ",\"n_windows\":" + num(static_cast<double>(rec.n_windows()));
  out += ",\"channels\":[";
  if (rec.enabled()) {
    for (int ch = 0; ch < rec.n_channels(); ++ch) {
      if (ch != 0) out += ",";
      append_channel_json(out, rec.channel_name(ch), rec.windows(ch));
    }
    out += ",";
    append_channel_json(out, "aggregate", rec.aggregate());
  }
  out += "],\"events\":[";
  for (std::size_t i = 0; i < rec.events().size(); ++i) {
    const TimeSeriesEvent& ev = rec.events()[i];
    if (i != 0) out += ",";
    out += "{\"t\":" + num(ev.time) +
           ",\"channel\":" + jstr(rec.channel_name(ev.channel)) +
           ",\"kind\":" + jstr(ev.kind) + ",\"detail\":" + jstr(ev.detail) +
           "}";
  }
  out += "],\"alerts\":{\"rules\":[";
  for (std::size_t i = 0; i < report.rules.size(); ++i) {
    if (i != 0) out += ",";
    append_rule_json(out, report.rules[i]);
  }
  out += "],\"events\":[";
  for (std::size_t i = 0; i < report.events.size(); ++i) {
    const AlertEvent& ev = report.events[i];
    if (i != 0) out += ",";
    out += "{\"rule\":" + jstr(ev.rule) + ",\"t\":" + num(ev.time) +
           ",\"type\":" + jstr(ev.open ? "open" : "close") +
           ",\"fast_burn\":" + num(ev.fast_burn) +
           ",\"slow_burn\":" + num(ev.slow_burn) + "}";
  }
  out += "],\"episodes\":[";
  for (std::size_t i = 0; i < report.episodes.size(); ++i) {
    const AlertEpisode& ep = report.episodes[i];
    if (i != 0) out += ",";
    out += "{\"rule\":" + jstr(ep.rule) + ",\"open\":" + num(ep.open_time) +
           ",\"close\":" + num(ep.close_time) +
           ",\"closed\":" + (ep.closed ? "true" : "false") +
           ",\"detection_latency_s\":" + num(ep.detection_latency_s) +
           ",\"peak_fast_burn\":" + num(ep.peak_fast_burn) + "}";
  }
  out += "]},\"episode_count\":" +
         num(static_cast<double>(report.episodes.size()));
  out += ",\"incidents\":[";
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    const Incident& inc = incidents[i];
    if (i != 0) out += ",";
    out += "{\"rule\":" + jstr(inc.rule) + ",\"open\":" +
           num(inc.open_time) + ",\"close\":" + num(inc.close_time) +
           ",\"closed\":" + (inc.closed ? "true" : "false") +
           ",\"detection_latency_s\":" + num(inc.detection_latency_s) +
           ",\"chain\":" + jstr(inc.chain) + ",\"causes\":[";
    for (std::size_t j = 0; j < inc.causes.size(); ++j) {
      if (j != 0) out += ",";
      out += jstr(inc.causes[j]);
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

std::string to_tseries_text(const TimeSeriesRecorder& rec,
                            const AlertReport& report,
                            const std::vector<Incident>& incidents) {
  std::string out;
  out += "daop time series (window " + num(rec.window_s()) + "s, " +
         num(static_cast<double>(rec.n_windows())) + " windows, " +
         num(static_cast<double>(rec.n_channels())) + " channels)\n";
  auto render_channel = [&](const std::string& name,
                            const std::vector<SeriesWindow>& windows) {
    out += "\nchannel " + name + "\n";
    const auto index = TimeSeriesRecorder::series_index(windows);
    for (const auto& s : index) {
      for (const std::string& key : s.keys) {
        std::vector<double> values;
        values.reserve(windows.size());
        double total = 0.0, mx = 0.0;
        bool any = false;
        for (const SeriesWindow& w : windows) {
          const auto it = w.delta.families.find(s.family);
          if (s.kind == MetricsSnapshot::Kind::kHistogram) {
            double p90 = std::numeric_limits<double>::quiet_NaN();
            if (it != w.delta.families.end()) {
              const auto hit = it->second.histograms.find(key);
              if (hit != it->second.histograms.end()) {
                p90 = histogram_quantile(hit->second, 0.9);
              }
            }
            values.push_back(p90);
            if (std::isfinite(p90)) {
              mx = std::max(mx, p90);
              any = true;
            }
            continue;
          }
          double v = 0.0;
          if (it != w.delta.families.end()) {
            const auto vit = it->second.values.find(key);
            if (vit != it->second.values.end()) v = vit->second;
          }
          values.push_back(v);
          total += v;
          mx = std::max(mx, v);
          any = any || v != 0.0;
        }
        if (!any) continue;  // keep the report focused on live series
        std::string label = "  " + s.family + key;
        if (s.kind == MetricsSnapshot::Kind::kHistogram) label += " p90";
        char buf[160];
        if (s.kind == MetricsSnapshot::Kind::kCounter) {
          std::snprintf(buf, sizeof(buf), "%-58s %s total %s\n",
                        label.c_str(), sparkline(values).c_str(),
                        format_metric_value(total).c_str());
        } else {
          std::snprintf(buf, sizeof(buf), "%-58s %s max %s\n", label.c_str(),
                        sparkline(values).c_str(),
                        format_metric_value(mx).c_str());
        }
        out += buf;
      }
    }
  };
  if (rec.enabled()) {
    render_channel("aggregate", rec.aggregate());
    for (int ch = 0; ch < rec.n_channels(); ++ch) {
      render_channel(rec.channel_name(ch), rec.windows(ch));
    }
  }
  out += "\nalerts (" + num(static_cast<double>(report.episodes.size())) +
         " episodes)\n";
  if (!report.episodes.empty()) {
    out += "  rule                 open      close     detect_s  peak_burn\n";
    for (const AlertEpisode& ep : report.episodes) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "  %-20s %-9s %-9s %-9s %s\n",
                    ep.rule.c_str(), fmt2(ep.open_time).c_str(),
                    (ep.closed ? fmt2(ep.close_time) : "open").c_str(),
                    fmt2(ep.detection_latency_s).c_str(),
                    fmt2(ep.peak_fast_burn).c_str());
      out += buf;
    }
  }
  out += "\nincidents (" + num(static_cast<double>(incidents.size())) +
         ")\n";
  for (const Incident& inc : incidents) {
    out += "  [" + inc.rule + "] open " + fmt2(inc.open_time) + " .. " +
           (inc.closed ? fmt2(inc.close_time) : "open") +
           "  chain: " + inc.chain + "\n";
    for (const std::string& c : inc.causes) {
      out += "    " + c + "\n";
    }
  }
  return out;
}

}  // namespace daop::obs
