// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --list-metrics        the metric catalogue as JSON
//   perfbench --derive [--seed n]   the probes behind the traffic constants
//
// Diagnostics go to stderr; the last line on stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 only when every
// output check passed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "metrics.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Minimum untraced executions in the measured phase.
constexpr int kMinRepeats = 3;
/// Untraced executions in a traced run (the traced pass's baseline).
constexpr int kTraceBaselineRepeats = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool list = false;
  bool derive = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> | --list-metrics | --derive\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        a.workload = value();
      } else if (k == "--seed") {
        a.seed = std::stoull(value());
      } else if (k == "--seconds") {
        a.seconds = std::stod(value());
      } else if (k == "--trace") {
        a.trace = std::stoi(value());
      } else if (k == "--list-metrics") {
        a.list = true;
      } else if (k == "--derive") {
        a.derive = true;
      } else {
        usage("unknown flag " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
  return a;
}

void print_catalogue() {
  const auto list = [](const std::vector<MetricDef>& defs) {
    std::string s = "[";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      s += std::string(i ? "," : "") + "{\"name\":\"" + defs[i].name +
           "\",\"unit\":\"" + defs[i].unit + "\"}";
    }
    return s + "]";
  };
  std::printf("{\"end_to_end\":%s,\"per_layer\":%s}\n",
              list(end_to_end_metrics()).c_str(),
              list(per_layer_metrics()).c_str());
}

/// Prints the result line. Every catalogue metric must be present and no
/// other; a mismatch is a harness bug and fails the run.
void emit(const std::vector<MetricDef>& catalogue, const MetricValues& values,
          long long attempted, Checks& checks) {
  std::string metrics;
  for (const MetricDef& d : catalogue) {
    const bool present = values.has(d.name);
    checks.expect(present, std::string("metric emitted: ") + d.name);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", present ? values.at(d.name) : 0.0);
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + d.name +
               "\": {\"value\": " + buf + ", \"unit\": \"" + d.unit + "\"}";
  }
  checks.expect(values.all().size() == catalogue.size(),
                "no metric outside the catalogue");
  std::printf("threads: %d\n", thread_count());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %d, \"metrics\": "
      "{%s}}\n",
      checks.failed() == 0 ? "true" : "false", attempted, checks.failed(),
      metrics.c_str());
}

int run(const Args& a) {
  std::unique_ptr<Workload> w;
  Checks checks;

  // Set-up, several times: setup_s is the median, and every set-up must
  // build identical inputs. Each set-up starts from a fresh workload (the
  // previous inputs are freed untimed), so peak RSS holds one copy.
  std::vector<double> setup_s;
  std::uint64_t inputs = 0;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    w = make_workload(a.workload);
    if (w == nullptr) usage("unknown workload '" + a.workload + "'");
    const Clock::time_point t0 = Clock::now();
    w->setup(a.seed);
    setup_s.push_back(seconds_since(t0));
    const std::uint64_t fp = fingerprint(w->traces());
    checks.expect(i == 0 || fp == inputs, "set-ups build identical inputs");
    inputs = fp;
  }

  // Measured phase: untraced executions until the time is spent. The
  // reference kernel runs between executions; each execution is paired with
  // the mean of the two kernel times around it.
  const int min_repeats = a.trace ? kTraceBaselineRepeats : kMinRepeats;
  std::vector<double> walls;
  std::vector<double> refs;
  std::vector<double> ref_rates;
  double ref_before = reference_kernel_s();
  ExecReport first;
  long long attempted = 0;
  double cpu_s = 0.0;
  const Clock::time_point phase0 = Clock::now();
  while (static_cast<int>(walls.size()) < min_repeats ||
         (!a.trace && seconds_since(phase0) < a.seconds)) {
    w->prepare();
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    ExecReport r = w->execute({}, checks);
    walls.push_back(seconds_since(t0));
    cpu_s += cpu_seconds() - cpu0;
    const double ref_after = reference_kernel_s();
    refs.push_back(0.5 * (ref_before + ref_after));
    ref_rates.push_back(ref_rate(r.attempted, walls.back(), refs.back(),
                                 kReferenceNominalS));
    ref_before = ref_after;
    attempted += r.attempted;
    if (walls.size() == 1) {
      first = std::move(r);
    } else {
      checks.expect(r.e2e.bit_identical(first.e2e) &&
                        r.layer.bit_identical(first.layer),
                    "simulated metrics bit-identical across repeats");
    }
  }
  const double wall = median(walls);
  std::fprintf(stderr,
               "%s seed %llu: %zu executions, median %.4f s (min %.4f, max "
               "%.4f), reference kernel median %.2f ms, %.6g req/ref-s, cpu "
               "%.4f s/req, setup median %.4f s\n",
               w->name(), static_cast<unsigned long long>(a.seed), walls.size(),
               wall, *std::min_element(walls.begin(), walls.end()),
               *std::max_element(walls.begin(), walls.end()),
               median(refs) * 1e3, median(ref_rates),
               cpu_s / static_cast<double>(attempted), median(setup_s));
  w->check_once(first, checks);

  MetricValues out;
  if (a.trace == 0) {
    for (const auto& [name, v] : first.e2e.all()) out.set(name, v);
    out.set("sim_req_per_ref_s", median(ref_rates));
    out.set("setup_s", median(setup_s));
    out.set("peak_rss_mb", peak_rss_mib());
    emit(end_to_end_metrics(), out, attempted, checks);
  } else {
    w->prepare();
    const Clock::time_point t0 = Clock::now();
    const ExecReport traced = w->execute({true, true}, checks);
    const double traced_wall = seconds_since(t0);
    checks.expect(traced.e2e.bit_identical(first.e2e),
                  "tracing leaves simulated results unchanged");
    for (const auto& [name, v] : traced.layer.all()) out.set(name, v);
    // The traced execution also attributed and exported its recordings;
    // those are obs costs of their own, not tracing overhead of the run.
    double post_ms = 0.0;
    for (const char* n : {"obs.attribution_ms", "obs.prom_export_ms",
                          "obs.tseries_export_ms"}) {
      if (!traced.wall.has(n)) continue;
      out.set(n, traced.wall.at(n));
      post_ms += traced.wall.at(n);
    }
    out.set("trace.overhead_frac", (traced_wall - post_ms / 1e3) / wall - 1.0);
    out.set("proc.cpu_s_per_req", cpu_s / static_cast<double>(attempted));
    out.set("proc.sim_req_per_wall_s",
            static_cast<double>(first.attempted) / wall);
    out.set("proc.ref_kernel_ms", median(refs) * 1e3);
    const double bare = run_shared_probes(*w, out, checks);
    w->layer_probes(first, wall, bare, out, checks);
    emit(per_layer_metrics(), out, attempted, checks);
  }
  std::fprintf(stderr, "checks: %d run, %d failed\n", checks.run(),
               checks.failed());
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse(argc, argv);
  try {
    if (a.list) {
      print_catalogue();
      return 0;
    }
    if (a.derive) {
      derive_traffic(a.seed);
      return 0;
    }
    if (a.workload.empty()) usage("--workload is required");
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
