#include "engines/engine.hpp"

#include "common/check.hpp"
#include "engines/session.hpp"

namespace daop::engines {

void EngineCounters::add(const EngineCounters& o) {
  for (const CounterField& f : kCounterFields) {
    if (f.count != nullptr) {
      this->*f.count += o.*f.count;
    } else {
      this->*f.real += o.*f.real;
    }
  }
}

std::unique_ptr<SequenceSession> Engine::open_session(
    const data::SequenceTrace& trace, const cache::Placement& initial,
    const SessionEnv& env) {
  return do_open_session(trace, initial, env);
}

RunResult Engine::run(const data::SequenceTrace& trace,
                      const cache::Placement& initial, sim::Timeline* tl,
                      long long request_id) {
  SessionEnv env;
  env.timeline = tl;
  env.request_id = request_id;
  const std::unique_ptr<SequenceSession> session =
      open_session(trace, initial, env);
  session->prefill();
  while (session->decode_step()) {
  }
  return session->close();
}

RunResult aggregate_results(const std::string& name,
                            const std::vector<RunResult>& results) {
  DAOP_CHECK(!results.empty());
  RunResult agg;
  agg.engine = name;
  double energy_j = 0.0;
  for (const RunResult& r : results) {
    agg.prompt_tokens += r.prompt_tokens;
    agg.generated_tokens += r.generated_tokens;
    agg.prefill_s += r.prefill_s;
    agg.decode_s += r.decode_s;
    agg.total_s += r.total_s;
    energy_j += r.energy.total_j;
    agg.counters.add(r.counters);
  }
  agg.energy.total_j = energy_j;
  if (agg.total_s > 0.0) {
    agg.tokens_per_s = agg.generated_tokens / agg.total_s;
    agg.energy.avg_power_w = energy_j / agg.total_s;
  }
  if (agg.decode_s > 0.0) {
    agg.decode_tokens_per_s = agg.generated_tokens / agg.decode_s;
  }
  if (energy_j > 0.0) {
    agg.tokens_per_kj = agg.generated_tokens / (energy_j / 1000.0);
  }
  return agg;
}

}  // namespace daop::engines
