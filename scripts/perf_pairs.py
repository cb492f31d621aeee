#!/usr/bin/env python3
"""Alternating parent/change A/B runs of perfbench, summarised as one JSON.

    perf_pairs.py --parent <checkout> --change <checkout> --out ab.json \\
        [--workloads paper-decode,paper-decode:13,serve-overload] \\
        [--pairs 10] [--seconds 25] [--claim sim_req_per_ref_s]
    perf_pairs.py --self-test

Each checkout runs its own `perfbench/run.py` (which builds it from source)
with its own CARGO_TARGET_DIR, `<checkout>/.bench_build` unless
--build-root gives `<build-root>/{parent,change}`. A `--workloads` entry is
a workload name, run at perfbench's default seed 1, or `name:seed`. Per
entry, pair i runs both sides back to back, the parent first on even i and
the change first on odd i, so slow drift on a shared machine hits both
sides alike. An order effect (the second run of a pair reading higher,
whichever side it is) does not cancel within a pair, so every metric is
also split by run order: wins and the median per-pair change/parent ratio
where the change ran second and where it ran first, and the geometric mean
of those two ratios, in which the order effect cancels.

The output (schema daop-perf-pairs/1) holds every run's metrics and, per
entry and end-to-end metric (directions from the change's
BENCHMARK.json): each side's median and quartiles, the change/parent ratio
of medians, the pairs the change won and lost (ties count for neither),
whether every run on both sides printed the same value, and the gain rule:
the change wins at least 9 in 10 pairs and its median beats the parent's by
more than the parent's interquartile range. `claim` names the metric the
rule is asked of; the exit code is 1 when it fails there on any workload,
or when any run failed. Each run also keeps `raw`, the median and fastest
execution time and the reference-kernel median parsed from perfbench's
stderr summary line, and each entry's `raw` summarises them the same way
(lower is better): a gain in sim_req_per_ref_s that the raw execution
times do not show is a shift in the kernel, not in the simulator.
"""
import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SCHEMA = "daop-perf-pairs/1"
DEFAULT_SEED = 1  # perfbench's default seed


def quartiles(values):
    """(q1, median, q3), linearly interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def side_summary(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def change_ran_second(pair):
    """Whether pair `pair` ran the parent first (even pairs) or the change."""
    return pair % 2 == 0


def by_order(parent, change, better, pairs):
    """Wins and the median per-pair change/parent ratio over the pairs
    where the change ran second and over those where it ran first, and the
    order-balanced ratio: the geometric mean of the two medians."""
    sign = 1.0 if better == "higher" else -1.0
    out = {}
    for key, second in (("change_second", True), ("change_first", False)):
        idx = [i for i, pair in enumerate(pairs)
               if change_ran_second(pair) == second]
        ratios = [change[i] / parent[i] for i in idx if parent[i]]
        out[key] = {
            "pairs": len(idx),
            "wins": sum(1 for i in idx if sign * (change[i] - parent[i]) > 0),
            "median_ratio": statistics.median(ratios) if ratios else None,
        }
    a = out["change_second"]["median_ratio"]
    b = out["change_first"]["median_ratio"]
    out["balanced_ratio"] = (math.sqrt(a * b)
                             if a is not None and b is not None and a * b > 0
                             else None)
    return out


def summarise(parent, change, better, pairs=None):
    """Compares one metric's paired runs; `parent[i]` and `change[i]` are
    the values of pair number `pairs[i]` (default i), `better` is "higher"
    or "lower"."""
    if pairs is None:
        pairs = list(range(len(parent)))
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    ps, cs = side_summary(parent), side_summary(change)
    margin = sign * (cs["median"] - ps["median"])
    gain = wins * 10 >= 9 * len(parent) and margin > ps["q3"] - ps["q1"]
    return {
        "better": better,
        "parent": ps,
        "change": cs,
        "ratio": cs["median"] / ps["median"] if ps["median"] else None,
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "identical": len(set(parent) | set(change)) == 1,
        "gain_rule_holds": gain,
        "by_order": by_order(parent, change, better, pairs),
    }


def summarise_pairs(pairs, key, directions):
    """summarise() of each value named in `directions` that every run of
    `pairs` (each {"parent": run, "change": run}) holds under `key`."""
    out = {}
    for name, better in directions.items():
        if pairs and all(name in p[side].get(key, {}) for p in pairs
                         for side in ("parent", "change")):
            out[name] = summarise([p["parent"][key][name] for p in pairs],
                                  [p["change"][key][name] for p in pairs],
                                  better,
                                  [p["parent"]["pair"] for p in pairs])
    return out


def parse_run(stdout):
    """The environment stamp and result that perfbench/run.py prints last."""
    lines = [l for l in stdout.strip().splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    env = {}
    if len(lines) >= 2 and lines[-2].startswith("env: "):
        env = json.loads(lines[-2][len("env: "):])
    return env, result


# perfbench's stderr summary of the measured phase, e.g. "cluster-chaos seed
# 1: 10 executions, median 0.2001 s (min 0.1423, max 0.2425), reference
# kernel median 10.68 ms, ...". The raw execution times and the reference
# kernel tell a real speed-up from a shift in the normalising kernel.
SUMMARY = re.compile(
    r"^\S+ seed \d+: \d+ executions, median (?P<exec_median_s>[0-9.eE+-]+) s "
    r"\(min (?P<exec_min_s>[0-9.eE+-]+), max [0-9.eE+-]+\), reference kernel "
    r"median (?P<ref_kernel_ms>[0-9.eE+-]+) ms", re.MULTILINE)
# Per-run raw timings summarised beside the end-to-end metrics; all "lower".
RAW = ("exec_median_s", "exec_min_s", "ref_kernel_ms")


def parse_summary(stderr):
    """The raw timings of perfbench's last stderr summary line ({} if none)."""
    found = list(SUMMARY.finditer(stderr))
    if not found:
        return {}
    return {k: float(v) for k, v in found[-1].groupdict().items()}


def run_side(checkout, build_dir, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(build_dir))
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    try:
        stamp, result = parse_run(proc.stdout)
    except (ValueError, json.JSONDecodeError) as e:
        return {"exit": proc.returncode, "correct": False,
                "error": f"{e}: {proc.stderr.strip()[-400:]}"}
    return {
        "exit": proc.returncode,
        "correct": bool(result.get("correct")) and proc.returncode == 0,
        "git_sha": stamp.get("git_sha"),
        "loadavg_1m": stamp.get("loadavg_1m"),
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "raw": parse_summary(proc.stderr),
    }


def directions(checkout):
    spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def measure(args, run=run_side):
    sides = {"parent": Path(args.parent), "change": Path(args.change)}
    builds = {
        name: (Path(args.build_root) / name if args.build_root
               else path / ".bench_build")
        for name, path in sides.items()
    }
    better = directions(sides["change"])
    out = {
        "schema": SCHEMA,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "claim": args.claim,
        "nproc": os.cpu_count(),
        "results": [],
    }
    ok = True
    for entry in args.workloads.split(","):
        workload, _, seed = entry.partition(":")
        seed = int(seed) if seed else DEFAULT_SEED
        runs = []
        for i in range(args.pairs):
            order = (["parent", "change"] if change_ran_second(i)
                     else ["change", "parent"])
            for name in order:
                r = run(sides[name], builds[name], workload, seed,
                        args.seconds)
                r.update(pair=i, side=name)
                runs.append(r)
                print(f"perf_pairs: {workload} seed {seed} pair {i} {name}: "
                      f"{r.get('metrics', {}).get(args.claim, r.get('error'))}",
                      file=sys.stderr, flush=True)
        good = [r for r in runs if r["correct"]]
        ok = ok and len(good) == len(runs)
        by_pair = {}
        for r in good:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
        metrics = summarise_pairs(pairs, "metrics", better)
        raw = summarise_pairs(pairs, "raw", {name: "lower" for name in RAW})
        claim = metrics.get(args.claim)
        ok = ok and claim is not None and claim["gain_rule_holds"]
        out["results"].append({
            "workload": workload,
            "seed": seed,
            "runs": runs,
            "failed_runs": len(runs) - len(good),
            "metrics": metrics,
            "raw": raw,
        })
    out["ok"] = ok
    return out


def self_test():
    """Unit-tests the statistics, the gain rule and the pair orchestration."""
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)

    parent = [100.0, 101.0, 99.0, 100.5, 100.2, 99.5, 100.8, 99.9, 100.1,
              100.3]
    # 10/10 wins, margin far beyond the parent's IQR: the rule holds.
    s = summarise(parent, [v * 1.5 for v in parent], "higher")
    assert s["wins"] == 10 and s["losses"] == 0 and s["gain_rule_holds"], s
    assert abs(s["ratio"] - 1.5) < 1e-12
    assert not s["identical"]
    # 8/10 wins fails the rule however large the margin.
    change = [v * 1.5 for v in parent]
    change[0], change[1] = 1.0, 2.0
    s = summarise(parent, change, "higher")
    assert s["wins"] == 8 and s["losses"] == 2 and not s["gain_rule_holds"]
    # 9/10 wins with one tie passes; ties count for neither side.
    change = [v * 1.5 for v in parent]
    change[3] = parent[3]
    s = summarise(parent, change, "higher")
    assert (s["wins"], s["losses"]) == (9, 0) and s["gain_rule_holds"], s
    # 10/10 wins by less than the parent's IQR fails the rule.
    s = summarise(parent, [v + 0.01 for v in parent], "higher")
    assert s["wins"] == 10 and not s["gain_rule_holds"], s
    # "lower" is better: a drop wins, a rise loses.
    s = summarise([2.0] * 10, [1.0] * 10, "lower")
    assert s["wins"] == 10 and s["gain_rule_holds"]
    s = summarise([1.0] * 10, [2.0] * 10, "lower")
    assert s["losses"] == 10 and not s["gain_rule_holds"]
    # Identical values on both sides: no wins, flagged identical.
    s = summarise([4.5] * 4, [4.5] * 4, "higher")
    assert s["identical"] and s["wins"] == 0 and not s["gain_rule_holds"]
    # An order effect: whichever side runs second reads 5% higher. Split by
    # order the change wins only where it ran second; the balanced ratio
    # cancels the effect.
    parent = [100.0 if change_ran_second(i) else 105.0 for i in range(10)]
    change = [105.0 if change_ran_second(i) else 100.0 for i in range(10)]
    o = summarise(parent, change, "higher")["by_order"]
    assert o["change_second"] == {"pairs": 5, "wins": 5,
                                  "median_ratio": 1.05}, o
    assert o["change_first"]["pairs"] == 5 and o["change_first"]["wins"] == 0
    assert abs(o["change_first"]["median_ratio"] - 100.0 / 105.0) < 1e-12
    assert abs(o["balanced_ratio"] - 1.0) < 1e-12, o
    # "lower" is better: wins follow the direction, ratios stay change/parent.
    o = summarise(parent, change, "lower")["by_order"]
    assert (o["change_second"]["wins"], o["change_first"]["wins"]) == (0, 5)
    # Pair numbers, not positions, decide the order (a dropped pair 0 leaves
    # pair 1, where the change ran first, at position 0).
    o = summarise([1.0, 1.0], [2.0, 4.0], "higher", pairs=[1, 2])["by_order"]
    assert o["change_first"]["median_ratio"] == 2.0
    assert o["change_second"]["median_ratio"] == 4.0
    assert abs(o["balanced_ratio"] - math.sqrt(8.0)) < 1e-12
    # A zero parent value leaves its group without a ratio.
    o = summarise([0.0, 1.0], [1.0, 1.0], "higher")["by_order"]
    assert o["change_second"]["median_ratio"] is None
    assert o["balanced_ratio"] is None

    env, result = parse_run('noise\nenv: {"git_sha": "abc"}\n'
                            '{"correct": true, "metrics": {}}\n')
    assert env == {"git_sha": "abc"} and result["correct"]

    # The summary line perfbench prints; the last one wins, none gives {}.
    line = ("cluster-chaos seed 13: 10 executions, median 0.2001 s (min "
            "0.1423, max 0.2425), reference kernel median 10.68 ms, 1660.36 "
            "req/ref-s, cpu 0.0008 s/req, setup median 0.8275 s")
    assert parse_summary("perfbench: building\n" + line + "\nchecks: 98 "
                         "run, 0 failed\n") == {
        "exec_median_s": 0.2001, "exec_min_s": 0.1423, "ref_kernel_ms": 10.68}
    assert parse_summary(line.replace("0.2001", "9e-05") + "\n" + line)[
        "exec_median_s"] == 0.2001
    assert parse_summary("checks: 0 run, 0 failed\n") == {}

    # Orchestration over a fake runner: alternation, separate build dirs,
    # and the claim deciding the verdict.
    with tempfile.TemporaryDirectory() as tmp:
        for side in ("parent", "change"):
            (Path(tmp) / side).mkdir()
            (Path(tmp) / side / "BENCHMARK.json").write_text(json.dumps(
                {"end_to_end": [{"name": "speed", "better": "higher"},
                                {"name": "sim", "better": "higher"}]}))
        calls = []

        def fake(checkout, build_dir, workload, seed, seconds):
            side = Path(checkout).name
            calls.append((workload, side, seed, Path(build_dir).name))
            speed = 150.0 if side == "change" else 100.0 + len(calls) % 3
            return {"exit": 0, "correct": True, "git_sha": side,
                    "metrics": {"speed": speed, "sim": 4.25},
                    "raw": {"exec_median_s": 100.0 / speed,
                            "exec_min_s": 90.0 / speed,
                            "ref_kernel_ms": 10.0}}

        args = argparse.Namespace(
            parent=str(Path(tmp) / "parent"),
            change=str(Path(tmp) / "change"),
            build_root=str(Path(tmp) / "builds"), workloads="a,b:7", pairs=3,
            seconds=1.0, claim="speed")
        out = measure(args, run=fake)
        assert [c[1] for c in calls[:6]] == ["parent", "change", "change",
                                             "parent", "parent", "change"]
        assert all(c[1] == c[3] for c in calls), "each side builds apart"
        assert [c[2] for c in calls] == [DEFAULT_SEED] * 6 + [7] * 6
        assert out["ok"]
        assert [(r["workload"], r["seed"]) for r in out["results"]] == [
            ("a", DEFAULT_SEED), ("b", 7)]
        w = out["results"][0]
        assert len(w["runs"]) == 6 and w["failed_runs"] == 0
        assert w["metrics"]["speed"]["wins"] == 3
        assert w["metrics"]["sim"]["identical"]
        # Pairs 0 and 2 ran the change second, pair 1 ran it first.
        o = w["metrics"]["speed"]["by_order"]
        assert (o["change_second"]["pairs"], o["change_first"]["pairs"]) == (
            2, 1)
        assert (o["change_second"]["wins"], o["change_first"]["wins"]) == (
            2, 1)
        # Raw timings are summarised per pair, lower being better.
        assert w["raw"]["exec_median_s"]["wins"] == 3
        assert w["raw"]["exec_min_s"]["parent"]["values"][0] == 90.0 / 101.0
        assert w["raw"]["ref_kernel_ms"]["identical"]
        # A failed run fails the verdict and is kept in the record.
        def failing(checkout, build_dir, workload, seed, seconds):
            r = fake(checkout, build_dir, workload, seed, seconds)
            if Path(checkout).name == "change" and workload == "b":
                r = {"exit": 1, "correct": False, "error": "boom"}
            return r
        out = measure(args, run=failing)
        assert not out["ok"]
        assert out["results"][1]["failed_runs"] == 3
        assert out["results"][1]["metrics"] == {}
        assert out["results"][1]["raw"] == {}
    print("perf_pairs self-test: ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--out")
    ap.add_argument("--build-root")
    ap.add_argument("--workloads",
                    default="paper-decode,serve-overload,cluster-chaos")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--claim", default="sim_req_per_ref_s")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.change and args.out):
        ap.error("--parent, --change and --out are required")
    out = measure(args)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
