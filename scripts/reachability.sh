#!/usr/bin/env bash
# Reachability sweep: which src/ functions and options-struct fields the
# production entry points reach.
#
# Builds the library, examples and benches with -O0 --coverage in
# build-reach/main, and perfbench from its own CMake project with the same
# flags in build-reach/perfbench. A third build compiles only the library
# with -fkeep-inline-functions (build-reach/inline, counters unused): it
# emits every header-inline function, so one that no production path calls
# is listed with zero hits instead of missing. Then runs only
# production entry points: the CI daop_cli smokes, every bench binary the
# way CI or ctest invokes it (the rest with no arguments), the examples'
# ctest commands, and perfbench's three workloads traced and untraced. No
# unit test runs. gcov's per-function counts are summed over both builds,
# and scripts/reachability_report.py prints, in a stable order:
#   - every src/ function with zero hits;
#   - the zero-hit functions no production source names (tests only);
#   - options-struct fields no production source sets, from the write
#     sites of scripts/field_pass.py (a compiler-resolved pass of its own);
# each with its verdict from scripts/reachability_verdicts.txt, or
# "NO VERDICT".
#
# Usage: scripts/reachability.sh [--quick]
#   --quick  skips bench_table6_ecr_accuracy and shortens perfbench runs,
#            for trying the script; the sweep itself is the full run.
# Environment: REACH_DIR (default build-reach), REACH_JOBS (parallel runs,
# default 3), REACH_TIMEOUT (per run, default 900 s). Changes no tracked
# file. About 35 min on 4 vCPUs, most of it bench_table6_ecr_accuracy,
# which gets its own budget (REACH_TABLE6_TIMEOUT, default 3600 s).
#
# Caveat: functions marked [[gnu::always_inline]] (both Timeline::schedule
# overloads) are inlined even at -O0 and never show as called; judge them
# by their line counts.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="${REACH_DIR:-$ROOT/build-reach}"
JOBS="${REACH_JOBS:-3}"
TIMEOUT="${REACH_TIMEOUT:-900}"
TABLE6_TIMEOUT="${REACH_TABLE6_TIMEOUT:-3600}"
QUICK=0
[ "${1:-}" = "--quick" ] && QUICK=1
FLAGS="-O0 --coverage"
NPROC="$(nproc)"

configure() {  # source dir, build dir, compile flags
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=None -DCMAKE_CXX_FLAGS="$3" \
    -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
}

mkdir -p "$OUT"
configure "$ROOT" "$OUT/main" "$FLAGS"
# Examples and benches only: unit tests are not entry points.
TARGETS="$(sed -n 's/^daop_add_example(\([a-z_]*\))/\1/p' \
  "$ROOT/examples/CMakeLists.txt")
$(sed -n 's/^\(daop_add_bench\|add_executable\)(\(bench_[a-z0-9_]*\).*/\2/p' \
  "$ROOT/bench/CMakeLists.txt")"
# shellcheck disable=SC2086
cmake --build "$OUT/main" -j "$NPROC" --target $TARGETS >/dev/null
configure "$ROOT/perfbench" "$OUT/perfbench" "$FLAGS"
cmake --build "$OUT/perfbench" -j "$NPROC" --target perfbench >/dev/null
# Library only: -fkeep-inline-functions also emits the inline functions of
# third-party headers, which then fail to link against their libraries.
configure "$ROOT" "$OUT/inline" "$FLAGS -fkeep-inline-functions"
LIBS="$(sed -n 's/^add_library(\(daop_[a-z]*\) .*/\1/p' "$ROOT"/src/*/CMakeLists.txt)"
# shellcheck disable=SC2086
cmake --build "$OUT/inline" -j "$NPROC" --target $LIBS >/dev/null

# Counters from an earlier sweep would add to this one.
find "$OUT" -name '*.gcda' -delete

B="$OUT/main/bench"
C="$OUT/main/examples/daop_cli"
E="$OUT/main/examples"
P="$OUT/perfbench/perfbench"
RUNS="$OUT/runs"
rm -rf "$RUNS"
mkdir -p "$RUNS"
PB_SECONDS=5
[ "$QUICK" = 1 ] && PB_SECONDS=1
SLO_SPEC="name=ttft-tight,kind=latency,signal=daop_serving_ttft_seconds,target=5,objective=0.9,fast=2,slow=6,fast-burn=4,slow-burn=2"

# One command per line, each run in its own directory under $RUNS.
{
  # CI main job: benches and smokes.
  echo "$B/bench_micro_timeline --benchmark_min_time=0.01"
  echo "$B/bench_micro_kernels --benchmark_min_time=0.01"
  echo "$E/quickstart --metrics-out metrics.prom"
  echo "$C timeline --engine daop --in 32 --out 4 --out-json sample_trace.json"
  echo "$C serve --engine daop --rate 0.5 --requests 12 --in 24 --out 8 --max-concurrent 4 --metrics-out m.prom --out-json t.json"
  echo "$C serve --engine daop --rate 2.0 --requests 16 --in 24 --out 8 --max-concurrent 4 --hazard all --hazard-intensity 0.5 --admission deadline-edf --deadline 30 --service-estimate 10 --queue-cap 6 --degrade --metrics-out m.prom --out-json t.json"
  echo "$C serve --engine daop --rate 2.0 --requests 16 --in 24 --out 8 --max-concurrent 4 --hazard all --hazard-intensity 0.5 --admission deadline-edf --deadline 30 --service-estimate 10 --queue-cap 6 --preempt --priority-every 4 --priority-deadline 15 --degrade"
  echo "$C serve --engine daop --nodes 4 --rate 2.0 --requests 24 --in 24 --out 8 --max-concurrent 4 --dispatch least-loaded --service-estimate 10 --health --health-interval 2 --health-eject 2 --hazard node-brownout --hazard-intensity 0.5 --crash-node 1 --crash-at 4 --failover-budget 2 --metrics-out m.prom --out-json t.json"
  echo "$C serve --engine daop --nodes 4 --rate 4.0 --requests 16 --in 48 --out 24 --max-concurrent 2 --dispatch least-loaded --health --health-interval 0.5 --health-eject 1 --hazard ckpt-torn --hazard-intensity 0.5 --ckpt-every 1 --ckpt-keep 2 --crash-node 1 --crash-at 6 --failover-budget 3 --failover-backoff 0.05 --metrics-out m.prom --out-json t.json"
  echo "$C serve --engine daop --nodes 4 --rate 4.0 --requests 16 --in 48 --out 24 --max-concurrent 2 --dispatch least-loaded --health --health-interval 0.5 --health-eject 1 --hazard ckpt --hazard-intensity 0.5 --ckpt-every 1 --ckpt-keep 2 --crash-node 1 --crash-at 6 --failover-budget 3 --failover-backoff 0.05"
  for policy in frozen lru lfu activation-weighted reuse-predictor; do
    echo "$C serve --engine daop --rate 0.5 --requests 12 --in 24 --out 16 --max-concurrent 4 --cache-policy $policy --cache-report c.txt --metrics-out c.prom"
  done
  echo "$B/bench_ext_cache --baseline-out cache_profile.json"
  echo "$C speed --model tiny --dataset c4 --seqs 3 --in 32 --out 32 --seed 7 --profile-out p.json"
  echo "$C speed --model tiny --dataset gsm8k --seqs 3 --in 32 --out 32 --seed 7 --profile-out p.json"
  echo "$C serve --engine daop --rate 0.5 --requests 8 --in 24 --out 8 --max-concurrent 4 --profile-out p.txt --profile-format text"
  echo "$C serve --nodes 3 --rate 0.2 --requests 30 --in 64 --out 32 --max-concurrent 2 --seed 7 --health --crash-node 1 --crash-at 20 --failover-budget 0 --tseries-out ts.json --tseries-window 5"
  echo "$C serve --nodes 3 --rate 0.2 --requests 30 --in 64 --out 32 --max-concurrent 2 --seed 7 --tseries-out ts.json --tseries-window 5"
  echo "$C serve --nodes 3 --rate 0.2 --requests 30 --in 64 --out 32 --max-concurrent 2 --seed 7 --health --crash-node 1 --crash-at 20 --failover-budget 0 --tseries-out ts.txt --tseries-format text"
  echo "$C serve --nodes 3 --rate 0.2 --requests 30 --in 64 --out 32 --max-concurrent 2 --seed 7 --health --crash-node 1 --crash-at 20 --failover-budget 0 --tseries-out ts.json --tseries-window 5 --slo-rules $SLO_SPEC"
  echo "$C serve --engine daop --nodes 3 --rate 0.5 --requests 16 --in 24 --out 8 --max-concurrent 2 --dispatch expert-affinity --cache-policy lfu --hedge-ttft 2 --service-estimate 5"
  echo "$C serve --engine daop --rate 0.5 --requests 12 --in 24 --out 8 --tseries-out ts.json --tseries-window 5"
  echo "$B/bench_ext_cluster --baseline-out cluster_profile.json"
  echo "$B/bench_ext_robustness --throughput-out throughput.json"
  # Examples as ctest runs them.
  echo "$E/capacity_planner"
  echo "$E/trace_explorer c4 8"
  echo "$E/chatbot_latency"
  echo "$C"
  echo "$C speed --engine fiddler --seqs 1 --in 16 --out 16"
  echo "$C accuracy --episodes 2 --in 8 --out 6"
  echo "$C observe --seqs 4"
  echo "$C speed --seqs 1 --in 16 --out 16 --tpyo 3"
  echo "sh -c '$C dump --in 16 --out 16 --path d.trace && $C replay --engine fiddler --path d.trace'"
  echo "$C compare --seqs 1 --in 16 --out 16"
  echo "$C speed --engine daop --seqs 1 --in 16 --out 16 --metrics-out m.prom"
  echo "$C serve --engine fiddler --requests 3 --rate 0.05 --in 16 --out 16 --metrics-out m.json --metrics-format json"
  echo "$C serve --engine fiddler --nodes 3 --requests 6 --rate 0.2 --in 16 --out 16 --max-concurrent 2 --dispatch least-loaded --health --health-interval 5 --service-estimate 60 --crash-node 1 --crash-at 30 --metrics-out m.prom"
  echo "$C timeline --engine daop --in 16 --out 2 --out-json t.json"
  # Every other bench binary with no arguments.
  for b in "$B"/bench_*; do
    case "$(basename "$b")" in
      bench_micro_*|bench_ext_cache|bench_ext_cluster|bench_ext_robustness) ;;
      bench_table6_ecr_accuracy) ;;
      *) echo "$b" ;;
    esac
  done
  # perfbench's three workloads, untraced and traced.
  for w in paper-decode serve-overload cluster-chaos; do
    for t in 0 1; do
      echo "$P --workload $w --seed 1 --seconds $PB_SECONDS --trace $t"
    done
  done
} > "$OUT/commands.txt"

run_one() {
  local i="$1" cmd="$2" limit="$3"
  mkdir -p "$RUNS/$i"
  cd "$RUNS/$i"
  printf '%s\n' "$cmd" > command.txt
  # A nonzero exit is recorded, not fatal: the typo run fails on purpose,
  # and a failing smoke still reached what it reached.
  if timeout "$limit" sh -c "$cmd" > stdout.txt 2> stderr.txt; then
    echo 0 > status.txt
  else
    echo $? > status.txt
  fi
}
export -f run_one
export RUNS

# bench_table6_ecr_accuracy takes over 15 min at -O0: it starts first,
# with its own budget, and the other runs share the remaining workers.
T6_PID=""
if [ "$QUICK" = 0 ]; then
  run_one table6 "$B/bench_table6_ecr_accuracy" "$TABLE6_TIMEOUT" &
  T6_PID=$!
fi
awk '{ printf "%d\t%s\n", NR, $0 }' "$OUT/commands.txt" | tr '\n' '\0' |
  xargs -0 -P "$JOBS" -I{} bash -c \
    'IFS=$(printf "\t") read -r i cmd <<< "$1"; run_one "$i" "$cmd" '"$TIMEOUT" _ {}
[ -n "$T6_PID" ] && wait "$T6_PID"

for d in "$RUNS"/*/; do
  s="$(cat "$d/status.txt")"
  [ "$s" = 0 ] || echo "exit $s: $(cat "$d/command.txt")" >&2
done

# Per-function counts, as gcov JSON: from every counter file of the two
# run builds, and (all zero) from every note file of the inline build.
GCOV="$OUT/gcov"
rm -rf "$GCOV"
mkdir -p "$GCOV"
n=0
while IFS= read -r f; do
  n=$((n + 1))
  ( cd "$(dirname "$f")" && gcov --json-format --stdout "$(basename "$f")" \
      2>/dev/null ) > "$GCOV/$n.json"
done < <( { find "$OUT/main" "$OUT/perfbench" -name '*.gcda'
            find "$OUT/inline" -name '*.gcno'; } | sort)
# Field write sites from the compiler-resolved field pass (about a minute;
# its exit status, 1 when a never-set field has no verdict, is the report's
# business here).
rm -f "$OUT/field_writes.json"
python3 "$ROOT/scripts/field_pass.py" --root "$ROOT" --work "$OUT/fields" \
  --verdicts "$ROOT/scripts/reachability_verdicts.txt" \
  --json-out "$OUT/field_writes.json" > "$OUT/field_pass.txt" || true
python3 "$ROOT/scripts/reachability_report.py" --root "$ROOT" \
  --gcov-dir "$GCOV" --verdicts "$ROOT/scripts/reachability_verdicts.txt" \
  --field-writes "$OUT/field_writes.json"
