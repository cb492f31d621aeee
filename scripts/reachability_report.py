#!/usr/bin/env python3
"""Report of a reachability sweep (see scripts/reachability.sh).

Reads gcov JSON (one document per counter file, several builds), sums the
per-function execution counts of every src/ function, and prints in a
stable order:
  1. every src/ function with zero hits;
  2. the zero-hit functions that no production source (src/, examples/,
     bench/, perfbench/) calls by name: a name scan, so an overload or a
     shared method name hides a function from this list;
  3. options-struct fields no production source sets, from the write sites
     of scripts/field_pass.py (--field-writes, its --json-out).
Each line carries its verdict from the verdicts file or "NO VERDICT". The
verdicts file has one `key<TAB>verdict<TAB>reason` per line; a key is a
qualified-name suffix ("KvCache::truncate", "ExpertCacheOptions::decay") or
an fnmatch pattern ("*{lambda*").
"""

import argparse
import json
import re
import sys
from collections import defaultdict
from pathlib import Path

from field_pass import (PRODUCTION_DIRS, load_verdicts, print_report,
                        qualified, sources, verdict_for)


def load_counts(root, gcov_dir):
    """{(file, line, demangled name): summed count} over src/ functions."""
    counts = defaultdict(int)
    src = (root / "src").resolve()
    for p in sorted(Path(gcov_dir).glob("*.json")):
        text = p.read_text()
        if not text.strip():
            continue
        # --stdout may concatenate one JSON document per source file.
        dec = json.JSONDecoder()
        pos = 0
        while pos < len(text):
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos >= len(text):
                break
            doc, pos = dec.raw_decode(text, pos)
            cwd = Path(doc.get("current_working_directory", "."))
            for f in doc.get("files", []):
                path = (cwd / f["file"]).resolve()
                try:
                    rel = path.relative_to(src)
                except ValueError:
                    continue
                for fn in f.get("functions", []):
                    key = ("src/" + str(rel), fn["start_line"],
                           fn.get("demangled_name", fn["name"]))
                    counts[key] += fn["execution_count"]
    return counts


def short(qual):
    return re.sub(r"<.*>$", "", qual).split("::")[-1]


def named_by(name, texts):
    pat = re.compile(r"(?<![\w~])" + re.escape(name) + r"\s*\(")
    return sum(len(pat.findall(t)) for t in texts.values())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--gcov-dir", required=True)
    ap.add_argument("--verdicts")
    ap.add_argument("--field-writes", required=True,
                    help="scripts/field_pass.py --json-out")
    a = ap.parse_args()
    root = Path(a.root).resolve()
    rules = load_verdicts(a.verdicts)

    counts = load_counts(root, a.gcov_dir)
    if not counts:
        print("no src/ counters found", file=sys.stderr)
        return 1
    prod = sources(root, PRODUCTION_DIRS)
    tests = sources(root, ("tests",))

    zero = sorted(k for k, n in counts.items() if n == 0)
    print(f"== zero-hit src/ functions: {len(zero)} of {len(counts)}")
    for f, line, name in zero:
        v = verdict_for(name, rules)
        print(f"{f}:{line}\t{name}\t{v or 'NO VERDICT'}")

    # Test-only: no production call site beyond its own declaration and
    # definition (two names when defined out of line, one when inline).
    by_name = defaultdict(list)
    for f, line, name in zero:
        if "{lambda" in name or "operator" in name:
            continue
        by_name[qualified(name)].append((f, line))
    test_only = []
    for q, where in sorted(by_name.items()):
        s = short(q)
        if s.startswith("~") or s == q.split("::")[-2:][0]:
            continue  # constructors and destructors
        own = 2 if any(f.endswith(".cpp") for f, _ in where) else 1
        if named_by(s, prod) <= own * len(where):
            users = "tests" if named_by(s, tests) else "nothing"
            test_only.append((q, where[0], users))
    print(f"\n== zero-hit functions no production source names: "
          f"{len(test_only)}")
    missing = 0
    for q, (f, line), users in test_only:
        v = verdict_for(q, rules)
        missing += v is None
        print(f"{q}\t{f}:{line}\tnamed by {users}\t{v or 'NO VERDICT'}")

    print()
    missing_fields = print_report(
        root, json.loads(Path(a.field_writes).read_text()), rules)
    print(f"\n== without a verdict: {missing} functions, {missing_fields} "
          f"fields")
    return 0


if __name__ == "__main__":
    sys.exit(main())
