// Observability plane — metrics registry (daop::obs).
//
// A process-local registry of labeled counters, gauges and fixed-bucket
// histograms, exportable as Prometheus text format and as JSON. The registry
// is strictly passive: engines and harnesses record into it after (or
// alongside) scheduling decisions, never as an input to them, so attaching a
// registry can never change a simulated timeline. Export order is fully
// deterministic (families sorted by name, series sorted by label set), which
// lets tests assert byte-identical snapshots across runs.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace daop::obs {

/// Label set attached to one series, e.g. {{"engine","DAOP"},{"device","gpu"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Raw fixed-bucket histogram state. A value type (copyable, mergeable) so
/// results structs can carry snapshots without owning a registry.
struct HistogramData {
  /// Ascending finite bucket upper bounds; an implicit +Inf bucket follows.
  std::vector<double> upper_bounds;
  /// Per-bucket (non-cumulative) observation counts; size upper_bounds + 1,
  /// the last entry being the +Inf overflow bucket.
  std::vector<long long> counts;
  long long total = 0;
  double sum = 0.0;

  HistogramData() = default;
  explicit HistogramData(std::vector<double> bounds);

  void observe(double v);
  /// Adds another histogram's counts; bucket bounds must match exactly.
  void merge(const HistogramData& other);
  bool empty() const { return total == 0; }
};

/// Quantile estimate (q in [0,1]) by linear interpolation inside the bucket
/// containing the q-th observation, Prometheus histogram_quantile-style.
/// Values landing in the +Inf bucket clamp to the largest finite bound.
/// An empty or unconfigured histogram (zero observations) returns NaN —
/// there is no order statistic to estimate.
double histogram_quantile(const HistogramData& h, double q);

/// Prometheus-style 1/2.5/5 grid from 1 ms to 5000 s — wide enough for
/// TTFT, TPOT and end-to-end request latencies on every simulated platform.
std::vector<double> default_latency_buckets();

// ---- Shared deterministic formatting helpers ----
// Every obs exporter (metrics, time series) prints values the same way so
// cross-format diffs line up byte for byte.

/// Exact integers print without a fractional part (stable counter exports);
/// everything else uses %.10g.
std::string format_metric_value(double v);
/// JSON string escaping: control characters escaped, UTF-8 passes through.
std::string json_escape_string(const std::string& s);
/// Serialized label set, e.g. {engine="DAOP",device="gpu"}; "" when empty.
/// Labels keep their given order (callers use a fixed order per family).
std::string serialize_label_set(const Labels& labels);
/// Appends serialize_label_set(labels) to `out` (lets hot callers build
/// series keys in reused storage).
void append_label_set(std::string& out, const Labels& labels);
/// Prometheus metric-name rule: [a-zA-Z_:][a-zA-Z0-9_:]*.
bool valid_metric_name(std::string_view name);

/// One immutable, copyable view of a registry's entire state, taken by
/// MetricsRegistry::snapshot(). Results structs carry registry state in it
/// without owning the registry, and each time-series window
/// (obs/timeseries.hpp) holds its delta in one.
struct MetricsSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    /// Counter/gauge series values, keyed by the serialized label set
    /// (deterministic iteration order, same convention as the registry).
    std::map<std::string, double> values;
    /// Histogram series, keyed by the serialized label set.
    std::map<std::string, HistogramData> histograms;
    /// Original labels per serialized key.
    std::map<std::string, Labels> label_sets;
  };
  std::map<std::string, Family> families;
};

class Counter {
 public:
  void inc(double d = 1.0);
  double value() const;

 private:
  mutable std::mutex mu_;
  double v_ = 0.0;
};

class Gauge {
 public:
  void set(double v);
  double value() const;

 private:
  mutable std::mutex mu_;
  double v_ = 0.0;
};

class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds)
      : data_(std::move(bounds)) {}

  void observe(double v);
  void merge(const HistogramData& other);
  HistogramData snapshot() const;

 private:
  mutable std::mutex mu_;
  HistogramData data_;
};

/// Registry of metric families. Thread-safe: instrument lookup and updates
/// may race freely; integer-valued counter increments stay exact (and thus
/// export byte-identically) regardless of thread interleaving.
///
/// Looking up an existing series without labels allocates nothing: names
/// and help text are string_views looked up through transparent maps, and
/// a metric name is validated only when its family is first registered. A
/// non-empty label set still builds its series key.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. Re-registering a name with a different instrument type
  /// (or a histogram with different buckets) is a hard error.
  Counter& counter(std::string_view name, std::string_view help,
                   const Labels& labels = {});
  Gauge& gauge(std::string_view name, std::string_view help,
               const Labels& labels = {});
  Histogram& histogram(std::string_view name, std::string_view help,
                       const std::vector<double>& bounds,
                       const Labels& labels = {});

  /// Prometheus text exposition format (# HELP / # TYPE / series lines).
  std::string to_prometheus() const;
  /// JSON export: {"families":[{name,type,help,series:[...]}]}.
  std::string to_json() const;

  /// Copyable point-in-time view of every family/series. O(registry size);
  /// cheap at simulator scale (the registry holds aggregates, not samples).
  MetricsSnapshot snapshot() const;

  std::size_t family_count() const;
  bool empty() const { return family_count() == 0; }

 private:
  enum class Type { Counter, Gauge, Histogram };

  struct Family {
    Type type;
    std::string help;
    std::vector<double> bounds;  ///< histogram families only
    /// Keyed by the serialized label set for deterministic export order.
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    /// Original labels per serialized key (for JSON export).
    std::map<std::string, Labels> label_sets;
  };

  Family& family(std::string_view name, std::string_view help, Type type);

  mutable std::mutex mu_;
  std::map<std::string, Family, std::less<>> families_;
};

}  // namespace daop::obs
