#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "data/trace_generator.hpp"
#include "eval/speed.hpp"
#include "recovery/snapshot.hpp"

namespace perfbench {

const System& sys() {
  static const System s;
  return s;
}

cache::Placement calibrate(std::uint64_t seed) {
  eval::SpeedEvalOptions o;
  o.seed = seed;
  o.ecr = sys().ecr;
  o.calibration_seqs = sys().calibration_seqs;
  return eval::calibrated_initial_placement(sys().model, o);
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"sim_req_per_ref_s", "req/ref-s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"tok_per_s", "tok/s"},
      {"tokens_per_kj", "tok/kJ"},
      {"ttft_p50_s", "s"},
      {"ttft_p90_s", "s"},
      {"tpot_p50_s", "s"},
      {"tpot_p90_s", "s"},
      {"goodput_rps", "req/s"},
      {"served_frac", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"data.trace_gen_us_per_tok", "us/tok"},
        {"cache.calibrate_s", "s"},
        {"cache.fills_per_ktok", "1/ktok"},
        {"cache.refusals_per_ktok", "1/ktok"},
        {"cache.aborts", "count"},
        {"engines.prefill_us_per_tok", "us/tok"},
        {"engines.decode_us_per_step", "us/step"},
        {"engines.gpu_hit_rate", "ratio"},
        {"engines.cpu_execs_per_tok", "1/tok"},
        {"engines.migrations_per_tok", "1/tok"},
        {"core.predict_accuracy", "ratio"},
        {"core.stale_precalc_ratio", "ratio"},
        {"core.degradations_per_tok", "1/tok"},
        {"sim.ops_per_tok", "1/tok"},
        {"sim.schedule_ns_per_op", "ns/op"},
    };
    // Names must outlive the catalogue: keep them in static storage.
    static const char* const attr[] = {
        "attr.gpu_expert.exposed_ms_per_tok",
        "attr.gpu_expert.hidden_ms_per_tok",
        "attr.gate_attn.exposed_ms_per_tok",
        "attr.gate_attn.hidden_ms_per_tok",
        "attr.cpu_expert.exposed_ms_per_tok",
        "attr.cpu_expert.hidden_ms_per_tok",
        "attr.pcie_migration.exposed_ms_per_tok",
        "attr.pcie_migration.hidden_ms_per_tok",
        "attr.hazard_stall.exposed_ms_per_tok",
        "attr.hazard_stall.hidden_ms_per_tok",
        "attr.idle_ms_per_tok",
    };
    for (const char* n : attr) d.push_back({n, "ms/tok"});
    const std::vector<MetricDef> rest = {
        {"eval.cb_run_us_per_tok", "us/tok"},
        {"eval.cb_overhead_us_per_tok", "us/tok"},
        {"eval.queue_wait_p50_s", "s"},
        {"eval.occupancy", "ratio"},
        {"eval.shed_deadline", "count"},
        {"eval.shed_queue_full", "count"},
        {"eval.preemptions", "count"},
        {"cluster.run_us_per_tok", "us/tok"},
        {"cluster.dispatches_per_req", "1/req"},
        {"cluster.failovers", "count"},
        {"cluster.replayed_tokens", "count"},
        {"cluster.detect_s", "s"},
        {"recovery.checkpoint_us", "us"},
        {"recovery.unseal_us", "us"},
        {"recovery.restore_us", "us"},
        {"recovery.snapshot_bytes", "B"},
        {"recovery.checkpoints_per_ktok", "1/ktok"},
        {"recovery.restore_ratio", "ratio"},
        {"recovery.restored_tokens", "count"},
        {"recovery.torn_rejected", "count"},
        {"obs.sink_overhead_frac", "ratio"},
        {"obs.prom_export_ms", "ms"},
        {"obs.tseries_export_ms", "ms"},
        {"obs.attribution_ms", "ms"},
        {"obs.alert_episodes", "count"},
        {"proc.cpu_s_per_req", "s/req"},
        {"proc.sim_req_per_wall_s", "req/s"},
        {"proc.ref_kernel_ms", "ms"},
        {"trace.overhead_frac", "ratio"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

void MetricValues::set(const std::string& name, double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  if (!v_.emplace(name, value).second) {
    throw std::runtime_error("metric " + name + " set twice");
  }
}

void MetricValues::zero_layer(const std::vector<MetricDef>& catalogue,
                              const std::string& prefix) {
  for (const MetricDef& d : catalogue) {
    if (std::string(d.name).rfind(prefix, 0) == 0) set(d.name, 0.0);
  }
}

double MetricValues::at(const std::string& name) const {
  const auto it = v_.find(name);
  if (it == v_.end()) throw std::runtime_error("metric " + name + " unset");
  return it->second;
}

bool MetricValues::bit_identical(const MetricValues& o) const {
  if (v_.size() != o.v_.size()) return false;
  for (auto a = v_.begin(), b = o.v_.begin(); a != v_.end(); ++a, ++b) {
    if (a->first != b->first ||
        std::bit_cast<std::uint64_t>(a->second) !=
            std::bit_cast<std::uint64_t>(b->second)) {
      return false;
    }
  }
  return true;
}

void Checks::expect(bool ok, const std::string& what) {
  ++run_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "check FAILED: %s\n", what.c_str());
  }
}

std::vector<PlannedRequest> make_plan(std::uint64_t trace_seed, int n,
                                      double rate_rps, int priority_every,
                                      double priority_deadline_s) {
  const System& s = sys();
  const data::TraceGenerator gen(s.dataset, s.model.n_layers,
                                 s.model.n_experts, s.model.top_k, trace_seed);
  Rng rng(traffic::kPlanSeed ^ 0x5e7511e5ULL);
  std::vector<PlannedRequest> plan;
  plan.reserve(static_cast<std::size_t>(n));
  double arrival = 0.0;
  for (int i = 0; i < n; ++i) {
    arrival += -std::log(std::max(rng.uniform(), 1e-12)) / rate_rps;
    const int prompt =
        rng.uniform_int(traffic::kMinPrompt, traffic::kMaxPrompt);
    const int gen_len = rng.uniform_int(traffic::kMinGen, traffic::kMaxGen);
    PlannedRequest r;
    r.id = i;
    r.arrival = arrival;
    if (priority_every > 0 && (i + 1) % priority_every == 0) {
      r.deadline_s = priority_deadline_s;
    }
    r.trace = gen.generate(i, prompt, gen_len);
    plan.push_back(std::move(r));
  }
  return plan;
}

std::uint64_t fingerprint(const std::vector<const data::SequenceTrace*>& ts) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const std::uint64_t part =
        recovery::fnv1a64(static_cast<const std::uint8_t*>(p), n);
    h = (h ^ part) * 1099511628211ULL;
  };
  for (const data::SequenceTrace* t : ts) {
    const int dims[2] = {t->prompt_len, t->gen_len};
    mix(dims, sizeof(dims));
    for (const auto* phase : {&t->prefill, &t->decode}) {
      for (const data::LayerTokens& layer : *phase) {
        for (const data::TokenRouting& tok : layer.tokens) {
          mix(tok.scores.data(), tok.scores.size() * sizeof(float));
          mix(tok.pred_scores.data(), tok.pred_scores.size() * sizeof(float));
        }
      }
    }
  }
  return h;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double reference_kernel_s() {
  static const std::vector<std::vector<float>> base = [] {
    std::vector<std::vector<float>> v(20000, std::vector<float>(8));
    Rng rng(0x5EFE2E7CEULL);
    for (auto& row : v) {
      for (float& f : row) f = static_cast<float>(rng.uniform());
    }
    return v;
  }();
  static volatile double sink = 0.0;
  // Pass 0 is untimed: it re-warms the allocator after whatever heap state
  // the previous execution left behind.
  Clock::time_point t0 = Clock::now();
  double acc = 0.0;
  for (int rep = 0; rep <= 6; ++rep) {
    if (rep == 1) t0 = Clock::now();
    const std::vector<std::vector<float>> copy = base;
    for (const std::vector<float>& row : copy) {
      std::size_t first = row[1] > row[0] ? 1 : 0;
      std::size_t second = 1 - first;
      for (std::size_t k = 2; k < row.size(); ++k) {
        if (row[k] > row[first]) {
          second = first;
          first = k;
        } else if (row[k] > row[second]) {
          second = k;
        }
      }
      acc += row[first] - row[second];
    }
  }
  sink = sink + acc;
  return seconds_since(t0);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int thread_count() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

}  // namespace perfbench
