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
sides alike.

The output (schema daop-perf-pairs/1) holds every run's metrics and, per
entry and end-to-end metric (directions from the change's
BENCHMARK.json): each side's median and quartiles, the change/parent ratio
of medians, the pairs the change won and lost (ties count for neither),
whether every run on both sides printed the same value, and the gain rule:
the change wins at least 9 in 10 pairs and its median beats the parent's by
more than the parent's interquartile range. `claim` names the metric the
rule is asked of; the exit code is 1 when it fails there on any workload,
or when any run failed.
"""
import argparse
import json
import os
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


def summarise(parent, change, better):
    """Compares one metric's paired runs; `parent[i]` and `change[i]` are
    pair i's values, `better` is "higher" or "lower"."""
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
    }


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
            order = ["parent", "change"] if i % 2 == 0 else ["change",
                                                              "parent"]
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
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
        metrics = {}
        for name, direction in better.items():
            if pairs and all(name in p["parent"] and name in p["change"]
                             for p in pairs):
                metrics[name] = summarise(
                    [p["parent"][name] for p in pairs],
                    [p["change"][name] for p in pairs], direction)
        claim = metrics.get(args.claim)
        ok = ok and claim is not None and claim["gain_rule_holds"]
        out["results"].append({
            "workload": workload,
            "seed": seed,
            "runs": runs,
            "failed_runs": len(runs) - len(good),
            "metrics": metrics,
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

    env, result = parse_run('noise\nenv: {"git_sha": "abc"}\n'
                            '{"correct": true, "metrics": {}}\n')
    assert env == {"git_sha": "abc"} and result["correct"]

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
                    "metrics": {"speed": speed, "sim": 4.25}}

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
