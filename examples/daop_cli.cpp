// daop_cli — command-line driver over both execution planes.
//
// Commands:
//   speed     simulate an engine on a platform (tokens/s, energy, counters)
//   serve     FCFS serving simulation under a Poisson request load
//   accuracy  functional-plane fidelity of DAOP vs the official model
//   observe   routing statistics of a workload (observations ①-③)
//   timeline  decode-timeline export (ASCII gantt + Chrome trace JSON)
//   dump      synthesize a routing trace and write it in daop-trace format
//   replay    run a saved daop-trace file (possibly dumped from a REAL
//             model's router) through any engine
//
// Examples:
//   daop_cli speed --engine daop --model mixtral --ecr 0.469 --in 256 --out 256
//   daop_cli serve --engine fiddler --rate 0.02 --requests 24
//   daop_cli accuracy --dataset gsm8k --ecr 0.25 --episodes 16
//   daop_cli timeline --engine daop --out-json /tmp/daop.json
//   daop_cli dump --dataset c4 --seq 0 --path /tmp/seq0.trace
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "cache/calibration.hpp"
#include "cache/expert_cache.hpp"
#include "cluster/serving.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "data/trace_io.hpp"
#include "engines/run_metrics.hpp"
#include "eval/accuracy.hpp"
#include "eval/serving.hpp"
#include "eval/similarity.hpp"
#include "eval/speed.hpp"
#include "model/config.hpp"
#include "obs/alerting.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/span_tracer.hpp"
#include "obs/timeseries.hpp"
#include "sim/fault_model.hpp"
#include "sim/trace_export.hpp"

namespace {

using namespace daop;

/// A command split at its flag reads: each cmd_* reads every flag it takes
/// and returns the run, which reads none, so main() can refuse unknown
/// flags before anything simulates or writes.
using Run = std::function<int()>;

int usage() {
  std::printf(
      "usage: daop_cli <command> [--flags]\n"
      "commands: speed | compare | serve | accuracy | observe | timeline |\n"
      "          dump | replay\n"
      "common flags:\n"
      "  --engine   ondemand|deepspeed|mixtral-offloading|pregated|edgemoe|\n"
      "             moe-infinity|fiddler|daop           (default daop)\n"
      "  --model    mixtral|phi                         (default mixtral)\n"
      "  --platform a6000|a100|4090|laptop              (default a6000)\n"
      "  --dataset  c4|math|gsm8k|triviaqa|alpaca|bbh|truthfulqa\n"
      "  --ecr      expert cache ratio                  (default 0.469)\n"
      "  --in/--out prompt / generation lengths         (default 256/256)\n"
      "  --seqs     sequences to average over           (default 4)\n"
      "  --seed     RNG seed                            (default 7)\n"
      "DAOP knobs: --no-alloc --no-precalc --no-degrade --swap-threshold X\n"
      "            --quant-bits N --realloc-every N\n"
      "robustness: --migration-deadline X (abort swaps over X*transfer time)\n"
      "            --migration-retries N --stale-precalc X\n"
      "hazards:    --hazard none|pcie|cpu|thermal|expert-load|all\n"
      "            --hazard-intensity X in [0,1]       (default 0.5)\n"
      "serve only: --rate RPS --requests N --max-concurrent K (K>=2 enables\n"
      "            continuous batching) --timeout S --request-retries N\n"
      "            --retry-backoff S --slo-ttft S --slo-latency S\n"
      "            --in/--out fixed lengths --out-json PATH (request spans\n"
      "            + per-request outcome log)\n"
      "overload:   --admission fifo|lifo-shed|deadline-edf --queue-cap N\n"
      "            --deadline S (first-token budget; sheds hopeless\n"
      "            requests) --service-estimate S --preempt\n"
      "            --priority-every N --priority-deadline S (every Nth\n"
      "            request is deadline-critical) --degrade\n"
      "            --degrade-window S (hazard-adaptive degradation ladder)\n"
      "cluster:    --nodes N (N>=1 serves through an N-node fault-tolerant\n"
      "            cluster; --max-concurrent becomes the per-node bound)\n"
      "            --dispatch round-robin|least-loaded|expert-affinity\n"
      "            --health --health-interval S --health-eject K\n"
      "            --health-readmit M --health-slow S (probe cadence and\n"
      "            eject/readmit streaks) --failover-budget N\n"
      "            --failover-backoff S --hedge-ttft S (duplicate dispatch\n"
      "            over this projected TTFT) --crash-node I --crash-at S\n"
      "            (explicit chaos injection); --hazard node-crash|\n"
      "            node-brownout|link-degrade|cluster draws per-node faults\n"
      "recovery:   --ckpt-every N (checkpoint each session every N decode\n"
      "            steps) --ckpt-interval S (and/or every S simulated\n"
      "            seconds) --ckpt-keep G (generations retained, default 2)\n"
      "            enables crash-consistent checkpointing + warm restart on\n"
      "            failover; --hazard ckpt-torn|ckpt-corrupt|ckpt injects\n"
      "            checkpoint write faults\n"
      "cache:      --cache-policy frozen|lru|lfu|activation-weighted|\n"
      "            reuse-predictor (default frozen; dynamic policies\n"
      "            re-migrate experts during decode) --cache-interval N\n"
      "            (decode steps between replans) --cache-report PATH\n"
      "            (speed, serve)\n"
      "metrics:    --metrics-out PATH --metrics-format prom|json\n"
      "            (speed, compare, serve, serve --nodes N, timeline)\n"
      "profiling:  --profile-out PATH --profile-format json|text\n"
      "            critical-path attribution report (speed, compare,\n"
      "            serve, serve --nodes N, timeline)\n"
      "timeseries: --tseries-out PATH --tseries-format json|text\n"
      "            --tseries-window S (simulated seconds per window,\n"
      "            default 5) windowed daop-tseries/1 export with SLO\n"
      "            burn-rate alerts + correlated incidents (same five\n"
      "            modes; serve/serve --nodes stream per-decision windows,\n"
      "            batch modes export end-of-run totals)\n"
      "            --slo-rules SPEC|FILE (inline 'k=v,...;k=v,...' rules\n"
      "            or a rules file; default: stock TTFT/latency/shed SLOs)\n");
  return 2;
}

/// SLO rules from --slo-rules: inline spec when the value contains '=',
/// otherwise a rules file (newlines double as rule separators); the stock
/// default_slo_rules() when the flag is absent.
std::vector<obs::SloRule> slo_rules_from(const FlagParser& flags) {
  const std::string spec = flags.get("slo-rules", "");
  if (spec.empty()) return obs::default_slo_rules();
  if (spec.find('=') != std::string::npos) return obs::parse_slo_rules(spec);
  std::ifstream f(spec);
  DAOP_CHECK_MSG(f, "cannot read --slo-rules file '" << spec << "'");
  std::ostringstream ss;
  ss << f.rdbuf();
  std::string text = ss.str();
  std::replace(text.begin(), text.end(), '\n', ';');
  std::replace(text.begin(), text.end(), '\r', ';');
  return obs::parse_slo_rules(text);
}

/// A report-producing mode's output flags, read (and their formats and SLO
/// rules checked) before the mode runs.
struct Outputs {
  std::string metrics_path, metrics_format;
  bool profile = false;  ///< --profile-out given: attach a profiler
  std::string profile_path, profile_format;
  /// Recording is enabled iff --tseries-out was given (the recorder stays
  /// a strict no-op otherwise, keeping unflagged runs byte-identical).
  obs::TimeSeriesOptions tseries;
  std::string tseries_path, tseries_format;
  std::vector<obs::SloRule> slo_rules;  ///< read only with --tseries-out
  std::string cache_report_path;
};

/// Reads the output flags of `mode`, which must be registered for them in
/// cli_output_flag_matrix() — the single source of truth that keeps
/// output-flag support uniform across the report-producing modes.
/// `cache_report`: the mode takes --cache-report.
Outputs outputs_from(const FlagParser& flags, const char* mode,
                     bool cache_report) {
  for (const char* flag : {"metrics-out", "profile-out", "tseries-out"}) {
    DAOP_CHECK_MSG(cli_output_flag_supported(flag, mode),
                   "mode '" << mode << "' missing from the --" << flag
                            << " support matrix (common/cli.cpp)");
  }
  Outputs o;
  o.metrics_path = flags.get("metrics-out", "");
  o.metrics_format = flags.get("metrics-format", "prom");
  DAOP_CHECK_MSG(o.metrics_path.empty() || o.metrics_format == "prom" ||
                     o.metrics_format == "json",
                 "unknown --metrics-format '" << o.metrics_format << "'");
  o.profile = flags.has("profile-out");
  o.profile_path = flags.get("profile-out", "");
  o.profile_format = flags.get("profile-format", "json");
  DAOP_CHECK_MSG(o.profile_path.empty() || o.profile_format == "json" ||
                     o.profile_format == "text",
                 "unknown --profile-format '" << o.profile_format << "'");
  const double window_s = flags.get_double("tseries-window", 5.0);
  if (flags.has("tseries-out")) o.tseries.window_s = window_s;
  o.tseries_path = flags.get("tseries-out", "");
  o.tseries_format = flags.get("tseries-format", "json");
  if (!o.tseries_path.empty()) {
    DAOP_CHECK_MSG(o.tseries_format == "json" || o.tseries_format == "text",
                   "unknown --tseries-format '" << o.tseries_format << "'");
    o.slo_rules = slo_rules_from(flags);
  }
  if (cache_report) o.cache_report_path = flags.get("cache-report", "");
  return o;
}

/// Writes `text` to `path`; false (after saying so) on I/O failure.
bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  if (f) f << text;
  if (!f) std::fprintf(stderr, "failed to write %s\n", path.c_str());
  return static_cast<bool>(f);
}

/// Writes every requested output: the registry to --metrics-out
/// (Prometheus text format by default, JSON with --metrics-format json),
/// the critical-path attribution report to --profile-out (deterministic
/// JSON by default, aligned text tables with --profile-format text), the
/// daop-tseries/1 export with its SLO alerts and correlated incidents to
/// --tseries-out (JSON by default, sparkline report with --tseries-format
/// text) and `cache_report` to --cache-report. Under policy `frozen`
/// (`cache_report` empty) that report states that the cache was disabled,
/// so a requested report file always exists. Returns 0 when every
/// requested output was written, else 1.
int write_outputs(const Outputs& o, const obs::MetricsRegistry& reg,
                  const obs::Profiler& prof, obs::TimeSeriesRecorder& rec,
                  const std::string& cache_report = "") {
  int rc = 0;
  if (!o.metrics_path.empty()) {
    const bool json = o.metrics_format == "json";
    if (write_file(o.metrics_path,
                   json ? reg.to_json() : reg.to_prometheus())) {
      std::printf("metrics written to %s (%zu families, %s)\n",
                  o.metrics_path.c_str(), reg.family_count(),
                  o.metrics_format.c_str());
    } else {
      rc = 1;
    }
  }
  if (!o.profile_path.empty()) {
    const bool text = o.profile_format == "text";
    if (write_file(o.profile_path, text ? prof.to_text() : prof.to_json())) {
      std::printf("profile written to %s (%zu runs, %s)\n",
                  o.profile_path.c_str(), prof.runs().size(),
                  o.profile_format.c_str());
    } else {
      rc = 1;
    }
  }
  if (!o.tseries_path.empty()) {
    rec.finalize(0.0);  // harnesses already sealed at their makespan; no-op
    const obs::AlertReport report = obs::evaluate_slo_rules(o.slo_rules, rec);
    const std::vector<obs::Incident> incidents =
        obs::correlate_incidents(report, rec, 2.0 * rec.window_s());
    const bool text = o.tseries_format == "text";
    if (write_file(o.tseries_path,
                   text ? obs::to_tseries_text(rec, report, incidents)
                        : obs::to_tseries_json(rec, report, incidents))) {
      std::printf(
          "time series written to %s (%lld windows, %zu alert episodes, "
          "%zu incidents, %s)\n",
          o.tseries_path.c_str(), rec.n_windows(), report.episodes.size(),
          incidents.size(), o.tseries_format.c_str());
    } else {
      rc = 1;
    }
  }
  if (!o.cache_report_path.empty()) {
    if (write_file(o.cache_report_path,
                   cache_report.empty() ? "cache policy frozen: dynamic "
                                          "expert cache disabled\n"
                                        : cache_report)) {
      std::printf("cache report written to %s\n",
                  o.cache_report_path.c_str());
    } else {
      rc = 1;
    }
  }
  return rc;
}

model::ModelConfig pick_model(const std::string& name) {
  if (name == "phi") return model::phi35_moe();
  if (name == "tiny") return model::tiny_mixtral();
  DAOP_CHECK_MSG(name == "mixtral", "unknown --model '" << name << "'");
  return model::mixtral_8x7b();
}

sim::PlatformSpec pick_platform(const std::string& name) {
  if (name == "a100") return sim::a100_xeon_platform();
  if (name == "4090") return sim::rtx4090_desktop_platform();
  if (name == "laptop") return sim::laptop_platform();
  DAOP_CHECK_MSG(name == "a6000", "unknown --platform '" << name << "'");
  return sim::a6000_i9_platform();
}

data::WorkloadSpec pick_dataset(const std::string& name) {
  for (const auto& w : data::all_eval_workloads()) {
    std::string lower = w.name;
    for (auto& c : lower) c = static_cast<char>(std::tolower(c));
    if (lower == name || lower.rfind(name, 0) == 0) return w;
  }
  if (name == "math") return data::math_ds();
  if (name == "sharegpt") return data::sharegpt_calibration();
  DAOP_CHECK_MSG(false, "unknown --dataset '" << name << "'");
  return data::c4();
}

eval::EngineKind pick_engine(const std::string& name) {
  if (name == "ondemand") return eval::EngineKind::MoEOnDemand;
  if (name == "deepspeed") return eval::EngineKind::DeepSpeedMII;
  if (name == "mixtral-offloading") return eval::EngineKind::MixtralOffloading;
  if (name == "pregated") return eval::EngineKind::PreGatedMoE;
  if (name == "edgemoe") return eval::EngineKind::EdgeMoE;
  if (name == "moe-infinity") return eval::EngineKind::MoEInfinity;
  if (name == "fiddler") return eval::EngineKind::Fiddler;
  DAOP_CHECK_MSG(name == "daop", "unknown --engine '" << name << "'");
  return eval::EngineKind::Daop;
}

core::DaopConfig daop_config_from(const FlagParser& flags) {
  core::DaopConfig dc;
  dc.enable_seq_allocation = !flags.get_bool("no-alloc");
  dc.enable_precalc = !flags.get_bool("no-precalc");
  dc.enable_degradation = !flags.get_bool("no-degrade");
  dc.swap_in_out = flags.get_double("swap-threshold", dc.swap_in_out);
  dc.cpu_quant_bits = flags.get_int("quant-bits", 0);
  dc.decode_realloc_interval = flags.get_int("realloc-every", 0);
  if (flags.get_bool("mispredict-fallback")) {
    dc.mispredict_policy = core::MispredictPolicy::GracefulFallback;
  }
  dc.migration_deadline_factor =
      flags.get_double("migration-deadline", dc.migration_deadline_factor);
  dc.max_migration_retries =
      flags.get_int("migration-retries", dc.max_migration_retries);
  dc.stale_precalc_factor =
      flags.get_double("stale-precalc", dc.stale_precalc_factor);
  return dc;
}

cache::ExpertCacheOptions cache_options_from(const FlagParser& flags) {
  cache::ExpertCacheOptions co;
  co.policy = cache::parse_cache_policy(flags.get("cache-policy", "frozen"));
  co.realloc_interval = flags.get_int("cache-interval", co.realloc_interval);
  return co;
}

sim::HazardScenario hazards_from(const FlagParser& flags) {
  return sim::make_hazard_scenario(
      flags.get("hazard", "none"),
      flags.get_double("hazard-intensity", 0.5));
}

Run cmd_speed(const FlagParser& flags) {
  eval::SpeedEvalOptions opt;
  opt.n_seqs = flags.get_int("seqs", 4);
  opt.prompt_len = flags.get_int("in", 256);
  opt.gen_len = flags.get_int("out", 256);
  opt.ecr = flags.get_double("ecr", 0.469);
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  opt.daop_config = daop_config_from(flags);
  opt.hazards = hazards_from(flags);
  opt.cache = cache_options_from(flags);
  const auto kind = pick_engine(flags.get("engine", "daop"));
  const auto model = pick_model(flags.get("model", "mixtral"));
  const auto platform = pick_platform(flags.get("platform", "a6000"));
  const auto dataset = pick_dataset(flags.get("dataset", "c4"));
  const Outputs out = outputs_from(flags, "speed", /*cache_report=*/true);
  return [=]() mutable -> int {
    std::string cache_report;
    opt.cache_report = &cache_report;
    obs::MetricsRegistry reg;
    opt.metrics = &reg;
    obs::Profiler prof;
    if (out.profile) opt.profiler = &prof;
    obs::TimeSeriesRecorder tseries(out.tseries, {"run"});
    const auto r = eval::run_speed_eval(kind, model, platform, dataset, opt);

    TextTable t({"metric", "value"});
    t.add_row({"engine", r.engine});
    t.add_row({"tokens/s (end-to-end)", fmt_f(r.tokens_per_s, 3)});
    t.add_row({"tokens/s (decode only)", fmt_f(r.decode_tokens_per_s, 3)});
    t.add_row({"tokens/kJ", fmt_f(r.tokens_per_kj, 3)});
    t.add_row({"avg power (W)", fmt_f(r.energy.avg_power_w, 1)});
    t.add_row({"expert migrations",
               std::to_string(r.counters.expert_migrations)});
    t.add_row({"GPU / CPU expert execs",
               std::to_string(r.counters.gpu_expert_execs) + " / " +
                   std::to_string(r.counters.cpu_expert_execs)});
    t.add_row({"cache hit rate",
               fmt_pct(static_cast<double>(r.counters.cache_hits) /
                       std::max(1LL, r.counters.cache_hits +
                                         r.counters.cache_misses))});
    t.add_row({"prefill swaps / decode swaps",
               std::to_string(r.counters.prefill_swaps) + " / " +
                   std::to_string(r.counters.decode_swaps)});
    t.add_row({"degradations / mispredicts",
               std::to_string(r.counters.degradations) + " / " +
                   std::to_string(r.counters.mispredictions)});
    if (opt.hazards.enabled() || r.counters.migration_retries > 0 ||
        r.counters.migration_aborts > 0 || r.counters.stale_precalcs > 0) {
      t.add_row({"migration retries / aborts",
                 std::to_string(r.counters.migration_retries) + " / " +
                     std::to_string(r.counters.migration_aborts)});
      t.add_row({"stale pre-calcs", std::to_string(r.counters.stale_precalcs)});
      t.add_row({"hazard stall (s)", fmt_f(r.counters.hazard_stall_s, 3)});
    }
    if (opt.cache.enabled()) {
      t.add_row({"cache policy", cache::cache_policy_name(opt.cache.policy)});
    }
    std::printf("%s", t.render().c_str());
    // Batch mode: no streaming event loop, so the time-series export is the
    // end-of-run registry totals in one degenerate window.
    if (tseries.enabled()) {
      tseries.record_registry_totals(0, reg, 0.0);
      tseries.finalize(0.0);
    }
    return write_outputs(out, reg, prof, tseries, cache_report);
  };
}

/// `serve --nodes N`: N-replica fault-tolerant cluster serving
/// (cluster/serving.hpp). Shares the workload-plan flags with single-node
/// serve; per-node faults come from the node-scoped --hazard presets.
Run cmd_serve_cluster(const FlagParser& flags, int nodes) {
  cluster::ClusterServingOptions opt;
  opt.n_nodes = nodes;
  opt.base.arrival_rate_rps = flags.get_double("rate", 0.02);
  opt.base.n_requests = flags.get_int("requests", 24);
  opt.base.ecr = flags.get_double("ecr", 0.469);
  opt.base.seed = static_cast<std::uint64_t>(flags.get_int("seed", 99));
  opt.base.daop_config = daop_config_from(flags);
  opt.base.slo_ttft_s = flags.get_double("slo-ttft", 0.0);
  opt.base.slo_latency_s = flags.get_double("slo-latency", 0.0);
  opt.base.priority_every = flags.get_int("priority-every", 0);
  opt.base.priority_deadline_s = flags.get_double("priority-deadline", 0.0);
  const int fixed_in = flags.get_int("in", 0);
  if (fixed_in > 0) opt.base.min_prompt = opt.base.max_prompt = fixed_in;
  const int fixed_out = flags.get_int("out", 0);
  if (fixed_out > 0) opt.base.min_gen = opt.base.max_gen = fixed_out;
  opt.node_hazards = hazards_from(flags);
  opt.cluster.max_concurrent_per_node = flags.get_int("max-concurrent", 4);
  opt.cluster.dispatch =
      cluster::parse_dispatch_policy(flags.get("dispatch", "round-robin"));
  opt.cluster.health.enabled = flags.get_bool("health");
  opt.cluster.health.probe_interval_s =
      flags.get_double("health-interval", 0.25);
  opt.cluster.health.eject_after = flags.get_int("health-eject", 3);
  opt.cluster.health.readmit_after = flags.get_int("health-readmit", 2);
  opt.cluster.health.slow_probe_s = flags.get_double("health-slow", 0.0);
  opt.cluster.failover_budget = flags.get_int("failover-budget", 1);
  opt.cluster.failover_backoff_s = flags.get_double("failover-backoff", 0.01);
  opt.cluster.service_estimate_s = flags.get_double("service-estimate", 0.0);
  opt.cluster.deadline_s = flags.get_double("deadline", 0.0);
  opt.cluster.hedge_ttft_threshold_s = flags.get_double("hedge-ttft", 0.0);
  opt.cluster.degrade.enabled = flags.get_bool("degrade");
  const double degrade_window = flags.get_double("degrade-window", 0.0);
  if (degrade_window > 0.0) opt.cluster.degrade.window_s = degrade_window;
  opt.cluster.crash_node = flags.get_int("crash-node", -1);
  opt.cluster.crash_time_s = flags.get_double("crash-at", 0.0);
  opt.cluster.cache = cache_options_from(flags);
  opt.cluster.checkpoint.every_steps = flags.get_int("ckpt-every", 0);
  opt.cluster.checkpoint.every_s = flags.get_double("ckpt-interval", 0.0);
  opt.cluster.checkpoint.keep_generations = flags.get_int("ckpt-keep", 2);
  const std::string trace_json = flags.get("out-json", "");
  const auto kind = pick_engine(flags.get("engine", "daop"));
  const auto model = pick_model(flags.get("model", "mixtral"));
  const auto platform = pick_platform(flags.get("platform", "a6000"));
  const auto dataset = pick_dataset(flags.get("dataset", "sharegpt"));
  const Outputs out =
      outputs_from(flags, "serve-cluster", /*cache_report=*/true);
  return [=]() mutable -> int {
    obs::MetricsRegistry reg;
    opt.base.metrics = &reg;
    obs::SpanTracer tracer;
    if (!trace_json.empty()) opt.base.tracer = &tracer;
    obs::Profiler prof;
    if (out.profile) opt.base.profiler = &prof;
    // Channel convention (ClusterOptions::tseries): one channel per node plus
    // the trailing router-level "cluster" channel.
    std::vector<std::string> ts_channels;
    for (int i = 0; i < nodes; ++i) {
      ts_channels.push_back("node" + std::to_string(i));
    }
    ts_channels.push_back("cluster");
    obs::TimeSeriesRecorder tseries(out.tseries, std::move(ts_channels));
    if (tseries.enabled()) opt.base.tseries = &tseries;
    const auto r =
        cluster::run_cluster_serving_eval(kind, model, platform, dataset, opt);

    TextTable t({"metric", "mean", "p50", "p90", "p99", "95% CI of mean"});
    auto row = [&](const char* name, const Summary& s) {
      t.add_row({name, fmt_f(s.mean, 2) + " s", fmt_f(s.p50, 2),
                 fmt_f(s.p90, 2), fmt_f(s.p99, 2),
                 fmt_f(s.mean - s.ci95, 2) + " .. " +
                     fmt_f(s.mean + s.ci95, 2)});
    };
    std::printf(
        "engine: %s   requests: %d   rate: %s rps   dispatch: %s   "
        "health: %s\n",
        r.engine.c_str(), r.requests,
        fmt_f(opt.base.arrival_rate_rps, 3).c_str(),
        cluster::dispatch_policy_name(opt.cluster.dispatch),
        opt.cluster.health.enabled ? "on" : "off");
    row("time to first token", r.ttft_s);
    row("time per output token", r.tpot_s);
    row("queue wait", r.queue_wait_s);
    row("request latency", r.latency_s);
    std::printf("%s", t.render().c_str());
    std::printf("throughput: %s tokens/s   makespan: %s s\n",
                fmt_f(r.throughput_tps, 2).c_str(),
                fmt_f(r.makespan_s, 2).c_str());
    std::printf(
        "served: %d/%d   shed: %d (node_lost %lld, deadline %lld, degraded "
        "%lld)   SLO violations: %d (%s)\n",
        r.served, r.requests, r.shed, r.shed_node_lost, r.shed_deadline,
        r.shed_degraded, r.slo_violations,
        fmt_pct(r.slo_violation_rate).c_str());
    std::printf(
        "crashes: %lld   failovers: %lld (crash %lld, dead-dispatch %lld)   "
        "replayed tokens: %lld\n",
        r.cluster.crashes, r.cluster.failovers_total(),
        r.cluster.failovers_node_crash, r.cluster.failovers_dead_dispatch,
        r.cluster.replayed_tokens);
    if (opt.cluster.health.enabled) {
      std::printf("health: ejections %lld   readmissions %lld\n",
                  r.cluster.ejections, r.cluster.readmissions);
    }
    if (opt.cluster.checkpoint.enabled()) {
      std::printf(
          "recovery: checkpoints %lld (%s)   torn/corrupt writes %lld/%lld   "
          "torn rejected %lld\n",
          r.recovery.checkpoints_written,
          fmt_bytes(static_cast<double>(r.recovery.checkpoint_bytes)).c_str(),
          r.recovery.torn_writes, r.recovery.corrupt_writes,
          r.recovery.torn_rejected);
      std::printf(
          "recovery: lost %lld = restored %lld + replayed %lld + shed %lld   "
          "fallbacks (no-ckpt %lld, invalid %lld)   restored tokens %lld\n",
          r.recovery.lost_sessions, r.recovery.recovered_restored,
          r.recovery.recovered_replayed, r.recovery.recovered_shed,
          r.recovery.fallbacks_no_checkpoint, r.recovery.fallbacks_invalid,
          r.recovery.restored_tokens);
    }
    if (opt.cluster.hedge_ttft_threshold_s > 0.0) {
      std::printf("hedges: issued %lld   won %lld   cancelled %lld\n",
                  r.cluster.hedges, r.cluster.hedge_wins,
                  r.cluster.hedge_cancels);
    }
    if (opt.cluster.cache.enabled()) {
      std::printf(
          "cache (%s): fills %lld   evictions %lld   refusals %lld   "
          "aborts %lld   moved %s\n",
          cache::cache_policy_name(opt.cluster.cache.policy), r.cache_fills,
          r.cache_evictions, r.cache_refusals, r.cache_aborts,
          fmt_bytes(r.cache_bytes_moved).c_str());
    }
    for (int i = 0; i < opt.n_nodes; ++i) {
      const char* const state_names[] = {"crashed", "ejected", "in-service"};
      std::printf(
          "node %d: dispatched %lld   served %lld   %s\n", i,
          r.cluster.node_dispatched[static_cast<std::size_t>(i)],
          r.cluster.node_served[static_cast<std::size_t>(i)],
          state_names[r.cluster.node_final_state[static_cast<std::size_t>(i)]]);
    }
    if (!trace_json.empty()) {
      std::string requests_json = "\"daopRequests\":[";
      for (std::size_t i = 0; i < r.request_log.size(); ++i) {
        const auto& e = r.request_log[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"id\":%lld,\"arrival\":%.6f,\"outcome\":\"%s\","
                      "\"failovers\":%lld,\"restores\":%lld,"
                      "\"recovery\":\"%s\"}",
                      i ? "," : "", e.id, e.arrival, e.outcome.c_str(),
                      e.retries, e.restores, e.recovery.c_str());
        requests_json += buf;
      }
      requests_json += "]";
      const sim::Timeline no_timeline;
      if (sim::write_chrome_trace(no_timeline, trace_json, &tracer,
                                  requests_json)) {
        std::printf("chrome trace written to %s (open in chrome://tracing)\n",
                    trace_json.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", trace_json.c_str());
        return 1;
      }
    }
    // Clusters run one cache per node; the report here is the cluster-wide
    // totals (per-node detail lives in the daop_cache_* metric families).
    std::string cache_report;
    if (opt.cluster.cache.enabled()) {
      TextTable ct({"cluster cache total", "value"});
      ct.add_row(
          {"policy", cache::cache_policy_name(opt.cluster.cache.policy)});
      ct.add_row({"fills", std::to_string(r.cache_fills)});
      ct.add_row({"evictions", std::to_string(r.cache_evictions)});
      ct.add_row({"pin refusals", std::to_string(r.cache_refusals)});
      ct.add_row({"migration aborts", std::to_string(r.cache_aborts)});
      ct.add_row({"bytes moved", fmt_bytes(r.cache_bytes_moved)});
      cache_report = ct.render();
    }
    return write_outputs(out, reg, prof, tseries, cache_report);
  };
}

Run cmd_serve(const FlagParser& flags) {
  const int nodes = flags.get_int("nodes", 0);
  if (nodes > 0) return cmd_serve_cluster(flags, nodes);
  eval::ServingOptions opt;
  opt.arrival_rate_rps = flags.get_double("rate", 0.02);
  opt.n_requests = flags.get_int("requests", 24);
  opt.ecr = flags.get_double("ecr", 0.469);
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 99));
  opt.daop_config = daop_config_from(flags);
  opt.hazards = hazards_from(flags);
  opt.request_timeout_s = flags.get_double("timeout", 0.0);
  opt.max_request_retries = flags.get_int("request-retries", 0);
  opt.retry_backoff_s = flags.get_double("retry-backoff", 0.5);
  opt.slo_ttft_s = flags.get_double("slo-ttft", 0.0);
  opt.slo_latency_s = flags.get_double("slo-latency", 0.0);
  opt.max_concurrent = flags.get_int("max-concurrent", 1);
  opt.overload.admission =
      eval::parse_admission_policy(flags.get("admission", "fifo"));
  opt.overload.queue_capacity = flags.get_int("queue-cap", 0);
  opt.overload.deadline_s = flags.get_double("deadline", 0.0);
  opt.overload.service_estimate_s = flags.get_double("service-estimate", 0.0);
  opt.overload.preempt = flags.get_bool("preempt");
  opt.overload.degrade.enabled = flags.get_bool("degrade");
  const double degrade_window = flags.get_double("degrade-window", 0.0);
  if (degrade_window > 0.0) opt.overload.degrade.window_s = degrade_window;
  opt.priority_every = flags.get_int("priority-every", 0);
  opt.priority_deadline_s = flags.get_double("priority-deadline", 0.0);
  opt.cache = cache_options_from(flags);
  const int fixed_in = flags.get_int("in", 0);
  if (fixed_in > 0) opt.min_prompt = opt.max_prompt = fixed_in;
  const int fixed_out = flags.get_int("out", 0);
  if (fixed_out > 0) opt.min_gen = opt.max_gen = fixed_out;
  const std::string trace_json = flags.get("out-json", "");
  const auto kind = pick_engine(flags.get("engine", "daop"));
  const auto model = pick_model(flags.get("model", "mixtral"));
  const auto platform = pick_platform(flags.get("platform", "a6000"));
  const auto dataset = pick_dataset(flags.get("dataset", "sharegpt"));
  const Outputs out = outputs_from(flags, "serve", /*cache_report=*/true);
  return [=]() mutable -> int {
    std::string cache_report;
    opt.cache_report = &cache_report;
    obs::MetricsRegistry reg;
    opt.metrics = &reg;
    obs::SpanTracer tracer;
    if (!trace_json.empty()) opt.tracer = &tracer;
    obs::Profiler prof;
    if (out.profile) opt.profiler = &prof;
    obs::TimeSeriesRecorder tseries(out.tseries, {"serving"});
    if (tseries.enabled()) opt.tseries = &tseries;
    const auto r = eval::run_serving_eval(kind, model, platform, dataset, opt);

    TextTable t({"metric", "mean", "p50", "p90", "p99", "95% CI of mean"});
    auto row = [&](const char* name, const Summary& s) {
      t.add_row({name, fmt_f(s.mean, 2) + " s", fmt_f(s.p50, 2),
                 fmt_f(s.p90, 2), fmt_f(s.p99, 2),
                 fmt_f(s.mean - s.ci95, 2) + " .. " +
                     fmt_f(s.mean + s.ci95, 2)});
    };
    const std::string sched =
        opt.max_concurrent > 1
            ? "continuous batching x" + std::to_string(opt.max_concurrent)
            : "sequential";
    std::printf("engine: %s   requests: %d   rate: %s rps   scheduler: %s\n",
                r.engine.c_str(), r.requests,
                fmt_f(opt.arrival_rate_rps, 3).c_str(), sched.c_str());
    row("time to first token", r.ttft_s);
    row("time per output token", r.tpot_s);
    row("queue wait", r.queue_wait_s);
    row("request latency", r.latency_s);
    std::printf("%s", t.render().c_str());
    std::printf("throughput: %s tokens/s   server busy: %s\n",
                fmt_f(r.throughput_tps, 2).c_str(),
                fmt_pct(r.busy_fraction).c_str());
    if (opt.hazards.enabled() || opt.request_timeout_s > 0.0 ||
        opt.slo_ttft_s > 0.0 || opt.slo_latency_s > 0.0) {
      std::printf(
          "served: %d/%d   dropped: %d   client retries: %lld   "
          "SLO violations: %d (%s)\n",
          r.served, r.requests, r.dropped, r.request_retries, r.slo_violations,
          fmt_pct(r.slo_violation_rate).c_str());
      std::printf(
          "hazard stall: %s s   migration retries/aborts: %lld/%lld   "
          "stale pre-calcs: %lld\n",
          fmt_f(r.counters.hazard_stall_s, 3).c_str(),
          r.counters.migration_retries, r.counters.migration_aborts,
          r.counters.stale_precalcs);
    }
    if (opt.overload.enabled()) {
      std::printf(
          "admission: %s   shed: %d (queue_full %lld, deadline %lld, "
          "degraded %lld)   preemptions: %lld\n",
          eval::admission_policy_name(opt.overload.admission), r.shed,
          r.shed_queue_full, r.shed_deadline, r.shed_degraded, r.preemptions);
      if (opt.overload.degrade.enabled) {
        std::printf(
            "degradation: steps down/up %lld/%lld   peak level %d   "
            "final level %d\n",
            r.degrade_steps_down, r.degrade_steps_up, r.degrade_peak_level,
            r.degrade_final_level);
      }
    }
    if (opt.cache.enabled()) {
      std::printf(
          "cache (%s): fills %lld   evictions %lld   refusals %lld   "
          "aborts %lld   moved %s\n",
          cache::cache_policy_name(opt.cache.policy), r.cache_fills,
          r.cache_evictions, r.cache_refusals, r.cache_aborts,
          fmt_bytes(r.cache_bytes_moved).c_str());
    }
    if (!trace_json.empty()) {
      // Per-request outcome log, embedded as an extra top-level member so
      // overload behaviour (retries, drop/shed reasons, preemptions) is
      // inspectable offline next to the spans.
      std::string requests_json = "\"daopRequests\":[";
      for (std::size_t i = 0; i < r.request_log.size(); ++i) {
        const auto& e = r.request_log[i];
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"id\":%lld,\"arrival\":%.6f,\"outcome\":\"%s\","
                      "\"retries\":%lld,\"preempted\":%lld}",
                      i ? "," : "", e.id, e.arrival, e.outcome.c_str(),
                      e.retries, e.preempted);
        requests_json += buf;
      }
      requests_json += "]";
      // Serving spans (queue wait, per-request service, engine spans shifted
      // onto the serving clock) live on the tracer's tracks; there is no
      // single recorded timeline across requests to merge in.
      const sim::Timeline no_timeline;
      if (sim::write_chrome_trace(no_timeline, trace_json, &tracer,
                                  requests_json)) {
        std::printf("chrome trace written to %s (open in chrome://tracing)\n",
                    trace_json.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", trace_json.c_str());
        return 1;
      }
    }
    return write_outputs(out, reg, prof, tseries, cache_report);
  };
}

Run cmd_accuracy(const FlagParser& flags) {
  const auto model_seed =
      static_cast<std::uint64_t>(flags.get_int("model-seed", 1));
  eval::AccuracyEvalOptions opt;
  opt.n_episodes = flags.get_int("episodes", 16);
  opt.prompt_len = flags.get_int("in", 24);
  opt.gen_len = flags.get_int("out", 32);
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const double ecr = flags.get_double("ecr", 0.375);
  const auto dataset = pick_dataset(flags.get("dataset", "c4"));
  const core::DaopConfig dc = daop_config_from(flags);
  return [=]() mutable -> int {
    const model::FunctionalModel fm(model::tiny_mixtral(), model_seed);
    const auto m = eval::evaluate_daop_accuracy(fm, dataset, dc, ecr, opt);

    TextTable t({"metric", "value"});
    t.add_row({"episodes", std::to_string(m.episodes)});
    t.add_row({"token agreement (teacher-forced)",
               fmt_pct(m.token_agreement, 2)});
    t.add_row({"exact match (free-running)", fmt_pct(m.exact_match, 2)});
    t.add_row({"ROUGE-1 / ROUGE-2",
               fmt_f(m.rouge1 * 100, 2) + " / " + fmt_f(m.rouge2 * 100, 2)});
    t.add_row({"exact / stale / degraded execs",
               std::to_string(m.stats.exact_execs) + " / " +
                   std::to_string(m.stats.stale_input_execs) + " / " +
                   std::to_string(m.stats.degradations)});
    t.add_row({"prefill swaps", std::to_string(m.stats.prefill_swaps)});
    std::printf("%s", t.render().c_str());
    return 0;
  };
}

Run cmd_observe(const FlagParser& flags) {
  const auto spec = pick_dataset(flags.get("dataset", "c4"));
  const auto cfg = pick_model(flags.get("model", "mixtral"));
  const int n_seqs = flags.get_int("seqs", 64);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  return [=]() mutable -> int {
    const data::TraceGenerator gen(spec, cfg.n_layers, cfg.n_experts, cfg.top_k,
                                   seed);
    TextTable t({"statistic", "value"});
    t.add_row({"prefill/decode similarity (Table II)",
               fmt_pct(eval::avg_prefill_decode_similarity(gen, n_seqs), 2)});
    t.add_row({"gate-ahead prediction accuracy (Fig. 5)",
               fmt_pct(eval::avg_prediction_accuracy(gen, n_seqs), 2)});
    t.add_row({"decode window similarity (§VI-B)",
               fmt_pct(eval::avg_decode_window_similarity(gen, n_seqs, 15),
                       2)});
    std::printf("workload: %s, %d sequences on %s\n%s", spec.name.c_str(),
                n_seqs, cfg.name.c_str(), t.render().c_str());
    return 0;
  };
}

Run cmd_timeline(const FlagParser& flags) {
  const auto cfg = pick_model(flags.get("model", "mixtral"));
  const auto platform = pick_platform(flags.get("platform", "a6000"));
  const auto spec = pick_dataset(flags.get("dataset", "c4"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const int prompt_len = flags.get_int("in", 32);
  const int gen_len = flags.get_int("out", 2);
  const double ecr = flags.get_double("ecr", 0.469);
  const auto kind = pick_engine(flags.get("engine", "daop"));
  const core::DaopConfig dc = daop_config_from(flags);
  const sim::HazardScenario hazards = hazards_from(flags);
  const std::string json = flags.get("out-json", "");
  const Outputs out = outputs_from(flags, "timeline", /*cache_report=*/false);
  return [=]() mutable -> int {
    const sim::CostModel cm(platform);
    const model::OpCosts costs(cfg, cm);
    const data::TraceGenerator gen(spec, cfg.n_layers, cfg.n_experts, cfg.top_k,
                                   seed);
    const auto trace = gen.generate(0, prompt_len, gen_len);

    const data::TraceGenerator calib_gen(data::sharegpt_calibration(),
                                         cfg.n_layers, cfg.n_experts, cfg.top_k,
                                         0xCA11Bu);
    const auto calib = cache::calibrate_activation_counts(calib_gen, 16);
    const auto placement = cache::init_placement_calibrated(
        cfg.n_layers, cfg.n_experts, ecr, calib);

    auto engine = eval::make_engine(kind, costs, dc);
    sim::FaultModel fault(hazards, seed ^ 0xFA017ULL);
    if (fault.enabled()) engine->set_fault_model(&fault);
    obs::SpanTracer tracer;
    engine->set_tracer(&tracer);
    obs::Profiler prof;
    if (out.profile) engine->set_profiler(&prof);
    sim::Timeline tl;
    tl.set_record_intervals(true);
    const auto r = engine->run(trace, placement, &tl);
    std::printf("%s: %s tokens/s\n", r.engine.c_str(),
                fmt_f(r.tokens_per_s, 2).c_str());
    const double gantt_end =
        std::min(r.total_s, r.prefill_s + 0.25 * r.decode_s);
    std::printf("%s",
                sim::render_gantt(tl, r.prefill_s, gantt_end, 100).c_str());
    if (!json.empty()) {
      if (sim::write_chrome_trace(tl, json, &tracer)) {
        std::printf("chrome trace written to %s (open in chrome://tracing)\n",
                    json.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", json.c_str());
        return 1;
      }
    }
    obs::MetricsRegistry reg;
    engines::record_run_metrics(reg, r);
    obs::TimeSeriesRecorder tseries(out.tseries, {"run"});
    if (tseries.enabled()) {
      // Totals recorded at the run end; earlier grid windows seal empty.
      tseries.record_registry_totals(0, reg, tl.span());
      tseries.finalize(tl.span());
    }
    return write_outputs(out, reg, prof, tseries);
  };
}

Run cmd_dump(const FlagParser& flags) {
  const auto cfg = pick_model(flags.get("model", "mixtral"));
  const auto spec = pick_dataset(flags.get("dataset", "c4"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const int seq = flags.get_int("seq", 0);
  const int prompt_len = flags.get_int("in", 64);
  const int gen_len = flags.get_int("out", 64);
  const std::string path = flags.get("path", "");
  DAOP_CHECK_MSG(!path.empty(), "dump requires --path");
  return [=]() mutable -> int {
    const data::TraceGenerator gen(spec, cfg.n_layers, cfg.n_experts, cfg.top_k,
                                   seed);
    const auto trace = gen.generate(seq, prompt_len, gen_len);
    data::save_trace_file(trace, path);
    std::printf("wrote %s (%d layers x [%d prefill + %d decode] tokens)\n",
                path.c_str(), trace.n_layers(), trace.prompt_len,
                trace.gen_len);
    return 0;
  };
}

Run cmd_compare(const FlagParser& flags) {
  eval::SpeedEvalOptions opt;
  opt.n_seqs = flags.get_int("seqs", 4);
  opt.prompt_len = flags.get_int("in", 256);
  opt.gen_len = flags.get_int("out", 256);
  opt.ecr = flags.get_double("ecr", 0.469);
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  opt.daop_config = daop_config_from(flags);
  opt.hazards = hazards_from(flags);
  const auto cfg = pick_model(flags.get("model", "mixtral"));
  const auto platform = pick_platform(flags.get("platform", "a6000"));
  const auto workload = pick_dataset(flags.get("dataset", "c4"));
  const bool extended = flags.get_bool("extended");
  const Outputs out = outputs_from(flags, "compare", /*cache_report=*/false);
  return [=]() mutable -> int {
    obs::MetricsRegistry reg;
    opt.metrics = &reg;
    obs::Profiler prof;
    if (out.profile) opt.profiler = &prof;
    obs::TimeSeriesRecorder tseries(out.tseries, {"run"});

    TextTable t({"engine", "tokens/s", "tokens/kJ", "hit rate"});
    for (auto kind : extended ? eval::extended_baseline_engines()
                              : eval::paper_baseline_engines()) {
      const auto r = eval::run_speed_eval(kind, cfg, platform, workload, opt);
      t.add_row({r.engine, fmt_f(r.tokens_per_s, 2), fmt_f(r.tokens_per_kj, 2),
                 fmt_pct(static_cast<double>(r.counters.cache_hits) /
                         std::max(1LL, r.counters.cache_hits +
                                           r.counters.cache_misses))});
    }
    std::printf("%s on %s, %s traffic, ECR %s, in/out %d/%d\n",
                cfg.name.c_str(), platform.name.c_str(), workload.name.c_str(),
                fmt_pct(opt.ecr).c_str(), opt.prompt_len, opt.gen_len);
    std::printf("%s", t.render().c_str());
    if (tseries.enabled()) {
      tseries.record_registry_totals(0, reg, 0.0);
      tseries.finalize(0.0);
    }
    return write_outputs(out, reg, prof, tseries);
  };
}

Run cmd_replay(const FlagParser& flags) {
  const std::string path = flags.get("path", "");
  DAOP_CHECK_MSG(!path.empty(), "replay requires --path");
  const model::ModelConfig cfg = pick_model(flags.get("model", "mixtral"));
  const auto platform = pick_platform(flags.get("platform", "a6000"));
  const double ecr = flags.get_double("ecr", 0.469);
  const auto kind = pick_engine(flags.get("engine", "daop"));
  const core::DaopConfig dc = daop_config_from(flags);
  const sim::HazardScenario hazards = hazards_from(flags);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  return [=]() mutable -> int {
    const data::SequenceTrace trace = data::load_trace_file(path);
    // The replayed trace fixes the model's routing topology; only per-op
    // costs come from the chosen model config, which must match.
    DAOP_CHECK_MSG(cfg.n_layers == trace.n_layers() &&
                       cfg.n_experts == trace.n_experts &&
                       cfg.top_k == trace.top_k,
                   "trace topology (" << trace.n_layers() << " layers, "
                                      << trace.n_experts
                                      << " experts) does not match --model");
    const sim::CostModel cm(platform);
    const model::OpCosts costs(cfg, cm);

    const data::TraceGenerator calib_gen(data::sharegpt_calibration(),
                                         cfg.n_layers, cfg.n_experts, cfg.top_k,
                                         0xCA11Bu);
    const auto calib = cache::calibrate_activation_counts(calib_gen, 16);
    const auto placement = cache::init_placement_calibrated(
        cfg.n_layers, cfg.n_experts, ecr, calib);

    auto engine = eval::make_engine(kind, costs, dc);
    sim::FaultModel fault(hazards, seed ^ 0xFA017ULL);
    if (fault.enabled()) engine->set_fault_model(&fault);
    const auto r = engine->run(trace, placement);
    std::printf("%s on %s: %s tokens/s end-to-end, %s tokens/kJ\n",
                r.engine.c_str(), path.c_str(),
                fmt_f(r.tokens_per_s, 3).c_str(),
                fmt_f(r.tokens_per_kj, 3).c_str());
    std::printf("prefill %s s, decode %s s, hits %lld, misses %lld\n",
                fmt_f(r.prefill_s, 3).c_str(), fmt_f(r.decode_s, 3).c_str(),
                r.counters.cache_hits, r.counters.cache_misses);
    return 0;
  };
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const FlagParser flags(argc, argv);
    const std::string& cmd = flags.command();
    // No command takes a positional argument, so a stray token is a typo
    // (a value whose flag is missing, say); refuse it before running.
    if (!flags.positional().empty()) {
      for (const auto& arg : flags.positional()) {
        std::fprintf(stderr, "error: unexpected argument '%s'\n", arg.c_str());
      }
      return 2;
    }
    Run run;
    if (cmd == "speed") {
      run = cmd_speed(flags);
    } else if (cmd == "serve") {
      run = cmd_serve(flags);
    } else if (cmd == "accuracy") {
      run = cmd_accuracy(flags);
    } else if (cmd == "observe") {
      run = cmd_observe(flags);
    } else if (cmd == "timeline") {
      run = cmd_timeline(flags);
    } else if (cmd == "dump") {
      run = cmd_dump(flags);
    } else if (cmd == "replay") {
      run = cmd_replay(flags);
    } else if (cmd == "compare") {
      run = cmd_compare(flags);
    } else {
      return usage();
    }
    // Every flag the command takes has been read: a typo is refused here,
    // before anything simulates or writes a file.
    const std::vector<std::string> unknown = flags.unused();
    for (const auto& name : unknown) {
      std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
    }
    if (!unknown.empty()) return 2;
    return run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
