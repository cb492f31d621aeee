#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the library and the benchmark binary
from source (CMake, Release) into $CARGO_TARGET_DIR (default .bench_build),
runs one workload, checks that the metric names and units it printed are
exactly the ones BENCHMARK.json declares for the mode, stamps the
environment, and prints the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit code 0 only when every output check passed. Diagnostics go to stderr.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_group(cmd, timeout, **kw):
    """Runs `cmd` in its own process group and waits for it; on timeout the
    whole group (make's compiler children included) is killed and reaped."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures once, then (re)builds the benchmark binary. Returns its path."""
    bdir = build_dir()
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Compiler temporaries stay inside the checkout.
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", "perfbench"])
    t0 = time.monotonic()
    for cmd in steps:
        left = BUILD_TIMEOUT_S - (time.monotonic() - t0)
        rc, _ = run_group(cmd, left, stdout=sys.stderr, env=env)
        if rc != 0:
            raise RuntimeError(f"build step failed ({rc}): {' '.join(cmd)}")
    return bdir / "perfbench"


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def catalogue_mismatches(declared, emitted):
    """Differences between BENCHMARK.json's {name: unit} for the mode and
    the {name: {"value", "unit"}} a run emitted; empty when they agree."""
    problems = []
    for name, unit in declared.items():
        if name not in emitted:
            problems.append(f"declared metric {name} not emitted")
        elif emitted[name].get("unit") != unit:
            problems.append(f"{name}: unit {emitted[name].get('unit')!r}, "
                            f"declared {unit!r}")
    for name in emitted:
        if name not in declared:
            problems.append(f"emitted metric {name} not declared")
    return problems


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    env = {"nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0],
           "git_sha": git_sha()}
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"library sources not found under {ROOT / 'src'}")
        return 2
    try:
        binary = build()
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        rc, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                            text=True)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 1
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"no result line (exit {rc})")
        return rc or 1
    for line in lines[:-1]:
        if line.startswith("threads:"):
            env["threads"] = int(line.split(":")[1])

    problems = catalogue_mismatches(declared_metrics(a.trace),
                                    result["metrics"])
    for p in problems:
        log(f"check FAILED: {p}")
    if problems:
        result["correct"] = False
        result["failed"] += len(problems)
    print("env: " + json.dumps(env))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] and rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
