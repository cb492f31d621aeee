#!/usr/bin/env python3
"""Report of a reachability sweep (see scripts/reachability.sh).

Reads gcov JSON (one document per counter file, several builds), sums the
per-function execution counts of every src/ function, and prints in a
stable order:
  1. every src/ function with zero hits;
  2. the zero-hit functions that no production source (src/, examples/,
     bench/, perfbench/) calls by name: a name scan, so an overload or a
     shared method name hides a function from this list;
  3. options-struct fields (structs named *Options, *Config, *Scenario,
     *Spec) that no production source assigns.
Each line carries its verdict from the verdicts file or "NO VERDICT". The
verdicts file has one `key<TAB>verdict<TAB>reason` per line; a key is a
qualified-name suffix ("KvCache::truncate", "ExpertCacheOptions::decay") or
an fnmatch pattern ("*{lambda*").
"""

import argparse
import fnmatch
import json
import re
import sys
from collections import defaultdict
from pathlib import Path

PRODUCTION_DIRS = ("src", "examples", "bench", "perfbench")
OPTION_STRUCT = re.compile(r"^\s*struct\s+(\w*(?:Options|Config|Scenario|Spec))\s*\{")
FIELD = re.compile(
    r"^\s*(?!return\b|using\b|static\b|friend\b|enum\b|struct\b|class\b)"
    r"([\w:<>,\s\*&]+?)\s+(\w+)\s*(?:=[^=][^;]*|\{[^}]*\})?;\s*(?://.*)?$")


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def sources(root, dirs):
    out = {}
    for d in dirs:
        for p in sorted((root / d).rglob("*")):
            if p.suffix in (".cpp", ".hpp", ".h", ".cc") and p.is_file():
                out[p] = strip_comments(p.read_text(errors="replace"))
    return out


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


def qualified(demangled):
    """'daop::Rng::gamma(double)' -> 'daop::Rng::gamma' (ABI tags such as
    '[abi:cxx11]' dropped)."""
    demangled = re.sub(r"\[abi:\w+\]", "", demangled)
    depth = 0
    for i, ch in enumerate(demangled):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0 and i > 0:
            return demangled[:i]
    return demangled


def short(qual):
    return re.sub(r"<.*>$", "", qual).split("::")[-1]


def load_verdicts(path):
    rules = []
    if path and Path(path).exists():
        for line in Path(path).read_text().splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            key = parts[0].strip()
            verdict = parts[1].strip() if len(parts) > 1 else ""
            reason = parts[2].strip() if len(parts) > 2 else ""
            rules.append((key, verdict + (": " + reason if reason else "")))
    return rules


def verdict_for(demangled, rules):
    """Patterns match the whole demangled name; plain keys match a suffix
    of the qualified name."""
    qual = qualified(demangled)
    for key, verdict in rules:
        if any(c in key for c in "*?["):
            if fnmatch.fnmatchcase(demangled, key):
                return verdict
        elif qual == key or qual.endswith("::" + key):
            return verdict
    return None


def named_by(name, texts):
    pat = re.compile(r"(?<![\w~])" + re.escape(name) + r"\s*\(")
    return sum(len(pat.findall(t)) for t in texts.values())


def option_fields(src_texts):
    """[(struct, field, type, header)] for every options-like struct in
    src/."""
    out = []
    for path, text in src_texts.items():
        if path.suffix != ".hpp":
            continue
        lines = text.splitlines()
        i = 0
        while i < len(lines):
            m = OPTION_STRUCT.match(lines[i])
            if not m:
                i += 1
                continue
            depth = lines[i].count("{") - lines[i].count("}")
            i += 1
            while i < len(lines) and depth > 0:
                line = lines[i]
                if depth == 1 and "(" not in line:
                    fm = FIELD.match(line)
                    if fm:
                        out.append((m.group(1), fm.group(2),
                                    fm.group(1).split()[-1], path))
                depth += line.count("{") - line.count("}")
                i += 1
    return sorted(set(out), key=lambda t: (t[0], t[1]))


def assigned(field, texts):
    """True when some source assigns `field`, or a member of it."""
    pat = re.compile(r"(?:\.|->)\s*" + re.escape(field) +
                     r"(?:\.\w+)*\s*(?:=[^=]|\+=|-=)")
    return any(pat.search(t) for t in texts.values())


def brace_built(struct, fields, texts):
    """True when some source builds a `struct` from a non-empty braced
    list, which sets its fields by position: `S{a, b}`, `S x{a}`,
    `S x = {a}`, or `.f = {a, b}` for a field f of type S."""
    typed = [f for _, f, t, _ in fields if t.split("::")[-1] == struct]
    pats = [re.compile(r"(?<!struct )\b" + struct +
                       r"(?:\s+\w+)?\s*(?:=\s*)?\{\s*[^\s}]")]
    pats += [re.compile(r"(?:\.|->)\s*" + re.escape(f) + r"\s*=\s*\{\s*[^\s}]")
             for f in typed]
    return any(p.search(t) for p in pats for t in texts.values())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--gcov-dir", required=True)
    ap.add_argument("--verdicts")
    a = ap.parse_args()
    root = Path(a.root).resolve()
    rules = load_verdicts(a.verdicts)

    counts = load_counts(root, a.gcov_dir)
    if not counts:
        print("no src/ counters found", file=sys.stderr)
        return 1
    prod = sources(root, PRODUCTION_DIRS)
    tests = sources(root, ("tests",))
    src_only = {p: t for p, t in prod.items()
                if p.is_relative_to(root / "src")}

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

    fields = option_fields(src_only)
    unset = []
    for struct, field, _, header in fields:
        if assigned(field, prod) or brace_built(struct, fields, prod):
            continue
        by_tests = assigned(field, tests) or brace_built(struct, fields, tests)
        unset.append((struct, field, header,
                      "tests" if by_tests else "nothing"))
    print(f"\n== option fields no production source sets: {len(unset)} of "
          f"{len(fields)} fields in {len({f[0] for f in fields})} structs")
    missing_fields = 0
    for struct, field, header, by in unset:
        v = verdict_for(f"{struct}::{field}", rules)
        missing_fields += v is None
        print(f"{struct}::{field}\t{header.relative_to(root)}\tset by {by}\t"
              f"{v or 'NO VERDICT'}")

    print(f"\n== without a verdict: {missing} functions, {missing_fields} "
          f"fields")
    return 0


if __name__ == "__main__":
    sys.exit(main())
