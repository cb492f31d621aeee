// Tests of the benchmark's own arithmetic (metrics.hpp). Exits nonzero on
// the first failing expectation. Run through test_perfbench.py, or directly:
//   .bench_build/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "metrics.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

bool near(double a, double b) {
  return std::fabs(a - b) <= 1e-12 * (1 + std::fabs(b));
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;
}

template <class F>
bool throws(F f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Percentile support: the emitter refuses a percentile with fewer than
  // ten samples beyond it.
  // Beyond = samples ranked strictly above position p*(n-1).
  expect(!supported_percentile(ramp(900), 0.99).has_value(),
         "p99 of 900 samples is refused (9 beyond)");
  expect(supported_percentile(ramp(1000), 0.99).has_value(),
         "p99 of 1000 samples is reported (10 beyond)");
  expect(samples_beyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  expect(samples_beyond(900, 0.99) == 9, "900 samples: 9 beyond p99");
  expect(!supported_percentile(ramp(90), 0.90).has_value(),
         "p90 of 90 samples is refused (9 beyond)");
  expect(supported_percentile(ramp(100), 0.90).has_value(),
         "p90 of 100 samples is reported");
  expect(!supported_percentile({}, 0.5).has_value(),
         "no percentile of an empty sample");
  expect(near(percentile(ramp(101), 0.9), 91.0),
         "p90 of 1..101 is 91 (order statistics, unsorted input)");
  expect(near(percentile({1.0, 2.0}, 0.5), 1.5), "p50 interpolates");
  expect(near(median({3.0, 1.0, 2.0}), 2.0), "median of three");

  // Goodput and failure fraction: a shed request misses every limit even
  // though it carries zero latencies.
  const Limits limits{10.0, 1.0};
  const std::vector<RequestOutcome> outs = {
      {true, 5.0, 0.5},   // good
      {true, 12.0, 0.5},  // misses TTFT
      {true, 5.0, 1.5},   // misses TPOT
      {false, 0.0, 0.0},  // shed: zero latencies, still a miss
      {true, 10.0, 1.0},  // exactly at both limits: good
  };
  expect(good_requests(outs, limits) == 2, "shed request counts as a miss");
  expect(near(goodput_rps(outs, limits, 4.0), 0.5),
         "goodput = good / duration");
  expect(near(fail_frac(outs), 0.2), "fail_frac = unserved / attempted");
  expect(near(fail_frac({{true, 1, 1}}), 0.0), "nothing shed: fail_frac 0");
  expect(throws([] { fail_frac({}); }), "fail_frac of no requests throws");
  expect(throws([&] { goodput_rps(outs, limits, 0.0); }),
         "goodput over zero duration throws");

  // Per-token normalisation.
  expect(near(per_token(2.0, 4), 0.5), "per_token divides by tokens");
  expect(near(per_token(0.003, 1000, 1e6), 3.0),
         "3 ms over 1000 tokens is 3 us/tok");
  expect(near(per_ktok(5, 2000), 2.5), "5 events per 2000 tokens is 2.5/ktok");
  expect(throws([] { per_token(1.0, 0); }), "zero-token base throws");

  // Reference-second normalisation: at the nominal kernel time the rate is
  // the plain wall rate; a host twice as slow for both cancels out.
  expect(near(ref_rate(300, 1.5, 0.008, 0.008), 200.0),
         "nominal host: req per ref-s == req per wall-s");
  expect(near(ref_rate(300, 3.0, 0.016, 0.008), 200.0),
         "a uniformly 2x slower host reads the same");
  expect(throws([] { ref_rate(1, 0.0, 0.008, 0.008); }),
         "zero wall time throws");

  std::printf("%s\n", g_failures == 0 ? "selftest PASSED" : "selftest FAILED");
  return g_failures == 0 ? 0 : 1;
}
