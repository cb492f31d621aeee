#include "engines/run_metrics.hpp"

namespace daop::engines {
namespace {

obs::Labels with(const obs::Labels& base, const std::string& key,
                 const std::string& value) {
  obs::Labels out = base;
  out.emplace_back(key, value);
  return out;
}

}  // namespace

void record_counter_metrics(obs::MetricsRegistry& reg,
                            const EngineCounters& c, const obs::Labels& labels,
                            bool overload_plane) {
  for (const CounterField& f : kCounterFields) {
    if (f.family == nullptr || f.overload_plane != overload_plane) continue;
    reg.counter(f.family, f.help,
                f.label_key == nullptr
                    ? labels
                    : with(labels, f.label_key, f.label_value))
        .inc(f.value(c));
  }
}

std::vector<std::pair<std::string, double>> counter_profile_metrics(
    const EngineCounters& c) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(std::size(kCounterFields));
  for (const CounterField& f : kCounterFields) {
    out.emplace_back(f.name, f.value(c));
  }
  return out;
}

void record_run_metrics(obs::MetricsRegistry& reg, const RunResult& r,
                        const obs::Labels& labels) {
  reg.counter("daop_engine_runs_total", "Sequences simulated.", labels).inc();
  reg.counter("daop_engine_prompt_tokens_total", "Prompt tokens processed.",
              labels)
      .inc(static_cast<double>(r.prompt_tokens));
  reg.counter("daop_engine_generated_tokens_total", "Tokens generated.",
              labels)
      .inc(static_cast<double>(r.generated_tokens));
  reg.counter("daop_engine_phase_seconds_total",
              "Simulated wall time by phase.",
              with(labels, "phase", "prefill"))
      .inc(r.prefill_s);
  reg.counter("daop_engine_phase_seconds_total",
              "Simulated wall time by phase.", with(labels, "phase", "decode"))
      .inc(r.decode_s);
  reg.counter("daop_engine_energy_joules_total",
              "Simulated energy consumed across runs.", labels)
      .inc(r.energy.total_j);
  record_counter_metrics(reg, r.counters, labels);
}

void record_run_metrics(obs::MetricsRegistry& reg, const RunResult& r) {
  record_run_metrics(reg, r, obs::Labels{{"engine", r.engine}});
}

}  // namespace daop::engines
