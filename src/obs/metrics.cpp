#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/check.hpp"

namespace daop::obs {
namespace {

std::string fmt_value(double v) { return format_metric_value(v); }

std::string label_key(const Labels& labels) {
  return serialize_label_set(labels);
}

/// Like label_key but with an extra label appended (histogram "le" series).
std::string label_key_with(const Labels& labels, const std::string& extra_k,
                           const std::string& extra_v) {
  Labels l = labels;
  l.emplace_back(extra_k, extra_v);
  return label_key(l);
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared formatting helpers

std::string format_metric_value(double v) {
  // Exact integers print without a fractional part so counter exports are
  // stable and human-friendly; everything else uses %.10g.
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_escape_string(const std::string& s) {
  // Any UTF-8 byte >= 0x20 passes through untouched (JSON strings are
  // UTF-8), but all control characters are escaped so the export is always
  // parseable no matter what a caller puts in a label value.
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string serialize_label_set(const Labels& labels) {
  std::string out;
  append_label_set(out, labels);
  return out;
}

void append_label_set(std::string& out, const Labels& labels) {
  if (labels.empty()) return;
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    for (const char c : labels[i].second) {
      switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += c;
      }
    }
    out += '"';
  }
  out += '}';
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) return false;
  }
  return !(name[0] >= '0' && name[0] <= '9');
}

// ---------------------------------------------------------------------------
// HistogramData

HistogramData::HistogramData(std::vector<double> bounds)
    : upper_bounds(std::move(bounds)),
      counts(upper_bounds.size() + 1, 0) {
  DAOP_CHECK_MSG(std::is_sorted(upper_bounds.begin(), upper_bounds.end()),
                 "histogram bucket bounds must be ascending");
  for (double b : upper_bounds) {
    DAOP_CHECK_MSG(std::isfinite(b), "histogram bucket bounds must be finite");
  }
}

void HistogramData::observe(double v) {
  DAOP_CHECK_MSG(!counts.empty(), "observe() on an unconfigured histogram");
  const auto it =
      std::lower_bound(upper_bounds.begin(), upper_bounds.end(), v);
  ++counts[static_cast<std::size_t>(it - upper_bounds.begin())];
  ++total;
  sum += v;
}

void HistogramData::merge(const HistogramData& other) {
  if (other.counts.empty()) return;
  if (counts.empty()) {
    *this = other;
    return;
  }
  DAOP_CHECK_MSG(upper_bounds == other.upper_bounds,
                 "cannot merge histograms with different buckets");
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  total += other.total;
  sum += other.sum;
}

double histogram_quantile(const HistogramData& h, double q) {
  DAOP_CHECK(q >= 0.0 && q <= 1.0);
  // An empty (or unconfigured) histogram has no order statistics: any
  // number would be garbage, so the answer is NaN — same convention as
  // PromQL's histogram_quantile over an empty range vector.
  if (h.counts.empty() || h.total <= 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double rank = q * static_cast<double>(h.total);
  long long cum = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    cum += h.counts[i];
    if (static_cast<double>(cum) >= rank && h.counts[i] > 0) {
      if (i >= h.upper_bounds.size()) {
        // +Inf bucket: clamp to the largest finite bound.
        return h.upper_bounds.empty() ? 0.0 : h.upper_bounds.back();
      }
      const double lo = i == 0 ? 0.0 : h.upper_bounds[i - 1];
      const double hi = h.upper_bounds[i];
      const double in_bucket =
          rank - static_cast<double>(cum - h.counts[i]);
      return lo + (hi - lo) * in_bucket / static_cast<double>(h.counts[i]);
    }
  }
  return h.upper_bounds.empty() ? 0.0 : h.upper_bounds.back();
}

std::vector<double> default_latency_buckets() {
  std::vector<double> b;
  for (double decade : {0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0}) {
    b.push_back(decade);
    b.push_back(decade * 2.5);
    b.push_back(decade * 5.0);
  }
  return b;  // 0.001 .. 5000 s
}

// ---------------------------------------------------------------------------
// Instruments

void Counter::inc(double d) {
  DAOP_CHECK_MSG(d >= 0.0, "counters only move forward");
  std::lock_guard<std::mutex> lock(mu_);
  v_ += d;
}

double Counter::value() const {
  std::lock_guard<std::mutex> lock(mu_);
  return v_;
}

void Gauge::set(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  v_ = v;
}

double Gauge::value() const {
  std::lock_guard<std::mutex> lock(mu_);
  return v_;
}

void Histogram::observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  data_.observe(v);
}

void Histogram::merge(const HistogramData& other) {
  std::lock_guard<std::mutex> lock(mu_);
  data_.merge(other);
}

HistogramData Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return data_;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry::Family& MetricsRegistry::family(std::string_view name,
                                                 std::string_view help,
                                                 Type type) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    DAOP_CHECK_MSG(valid_metric_name(name),
                   "invalid metric name '" << name << "'");
    it = families_.try_emplace(std::string(name)).first;
    it->second.type = type;
    it->second.help = help;
  } else {
    DAOP_CHECK_MSG(it->second.type == type,
                   "metric '" << name
                              << "' re-registered with a different type");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& f = family(name, help, Type::Counter);
  const std::string key = label_key(labels);
  auto [it, inserted] = f.counters.try_emplace(key);
  if (inserted) {
    it->second = std::make_unique<Counter>();
    f.label_sets[key] = labels;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& f = family(name, help, Type::Gauge);
  const std::string key = label_key(labels);
  auto [it, inserted] = f.gauges.try_emplace(key);
  if (inserted) {
    it->second = std::make_unique<Gauge>();
    f.label_sets[key] = labels;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help,
                                      const std::vector<double>& bounds,
                                      const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& f = family(name, help, Type::Histogram);
  if (f.histograms.empty()) {
    f.bounds = bounds;
  } else {
    DAOP_CHECK_MSG(f.bounds == bounds,
                   "histogram '" << name
                                 << "' re-registered with different buckets");
  }
  const std::string key = label_key(labels);
  auto [it, inserted] = f.histograms.try_emplace(key);
  if (inserted) {
    it->second = std::make_unique<Histogram>(bounds);
    f.label_sets[key] = labels;
  }
  return *it->second;
}

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, f] : families_) {
    out += "# HELP " + name + " " + f.help + "\n";
    out += "# TYPE " + name + " ";
    switch (f.type) {
      case Type::Counter: out += "counter\n"; break;
      case Type::Gauge: out += "gauge\n"; break;
      case Type::Histogram: out += "histogram\n"; break;
    }
    for (const auto& [key, c] : f.counters) {
      out += name + key + " " + fmt_value(c->value()) + "\n";
    }
    for (const auto& [key, g] : f.gauges) {
      out += name + key + " " + fmt_value(g->value()) + "\n";
    }
    for (const auto& [key, h] : f.histograms) {
      const HistogramData d = h->snapshot();
      const Labels& base = f.label_sets.at(key);
      long long cum = 0;
      for (std::size_t i = 0; i < d.counts.size(); ++i) {
        cum += d.counts[i];
        const std::string le = i < d.upper_bounds.size()
                                   ? fmt_value(d.upper_bounds[i])
                                   : "+Inf";
        out += name + "_bucket" + label_key_with(base, "le", le) + " " +
               fmt_value(static_cast<double>(cum)) + "\n";
      }
      out += name + "_sum" + key + " " + fmt_value(d.sum) + "\n";
      out += name + "_count" + key + " " +
             fmt_value(static_cast<double>(d.total)) + "\n";
    }
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"families\":[";
  bool first_family = true;
  for (const auto& [name, f] : families_) {
    if (!first_family) out += ",";
    first_family = false;
    out += "{\"name\":\"" + json_escape_string(name) + "\",\"type\":\"";
    switch (f.type) {
      case Type::Counter: out += "counter"; break;
      case Type::Gauge: out += "gauge"; break;
      case Type::Histogram: out += "histogram"; break;
    }
    out += "\",\"help\":\"" + json_escape_string(f.help) + "\",\"series\":[";
    bool first_series = true;
    auto emit_labels = [&](const std::string& key) {
      out += "\"labels\":{";
      const Labels& labels = f.label_sets.at(key);
      for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i != 0) out += ",";
        out += "\"" + json_escape_string(labels[i].first) + "\":\"" +
               json_escape_string(labels[i].second) + "\"";
      }
      out += "}";
    };
    for (const auto& [key, c] : f.counters) {
      if (!first_series) out += ",";
      first_series = false;
      out += "{";
      emit_labels(key);
      out += ",\"value\":" + fmt_value(c->value()) + "}";
    }
    for (const auto& [key, g] : f.gauges) {
      if (!first_series) out += ",";
      first_series = false;
      out += "{";
      emit_labels(key);
      out += ",\"value\":" + fmt_value(g->value()) + "}";
    }
    for (const auto& [key, h] : f.histograms) {
      if (!first_series) out += ",";
      first_series = false;
      const HistogramData d = h->snapshot();
      out += "{";
      emit_labels(key);
      out += ",\"count\":" + fmt_value(static_cast<double>(d.total)) +
             ",\"sum\":" + fmt_value(d.sum) + ",\"buckets\":[";
      for (std::size_t i = 0; i < d.counts.size(); ++i) {
        if (i != 0) out += ",";
        const std::string le = i < d.upper_bounds.size()
                                   ? fmt_value(d.upper_bounds[i])
                                   : "\"+Inf\"";
        out += "{\"le\":" + le + ",\"count\":" +
               fmt_value(static_cast<double>(d.counts[i])) + "}";
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, f] : families_) {
    MetricsSnapshot::Family sf;
    switch (f.type) {
      case Type::Counter: sf.kind = MetricsSnapshot::Kind::kCounter; break;
      case Type::Gauge: sf.kind = MetricsSnapshot::Kind::kGauge; break;
      case Type::Histogram: sf.kind = MetricsSnapshot::Kind::kHistogram; break;
    }
    sf.help = f.help;
    sf.label_sets = f.label_sets;
    for (const auto& [key, c] : f.counters) sf.values[key] = c->value();
    for (const auto& [key, g] : f.gauges) sf.values[key] = g->value();
    for (const auto& [key, h] : f.histograms) {
      sf.histograms[key] = h->snapshot();
    }
    snap.families[name] = std::move(sf);
  }
  return snap;
}

std::size_t MetricsRegistry::family_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return families_.size();
}

}  // namespace daop::obs
