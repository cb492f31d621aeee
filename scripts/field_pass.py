#!/usr/bin/env python3
"""Compiler-resolved field pass: which options-struct fields some source
writes, named by the struct that owns them.

    field_pass.py [--work DIR] [--verdicts FILE] [--json-out FILE]
    field_pass.py --self-test

Every data member of every options-like struct in src/ (structs named
*Options, *Config, *Scenario or *Spec, nested `Options` structs, and
SessionEnv; `bool` members included; methods, static and constexpr
members, references and `mutable` members skipped) is made `const` in a
copy of the repo under DIR (default build-reach/fields), through a member
alias: `T f;` becomes `using field_probe_f = T; const field_probe_f f;`, so
a pointer becomes `T* const`. The copy is configured with
CMAKE_EXPORT_COMPILE_COMMANDS and every translation unit in
compile_commands.json, plus perfbench's .cpp files with a src/ unit's
flags, is syntax-checked with every error kept. Each write to a member is
then a compile error that names the struct that owns it, so a field of one
struct can no longer hide behind a same-named field of another:
  - "assignment of read-only member 'S::f'" (also increment, decrement);
  - "assignment of member 'S::f' in read-only object": a write through a
    nested member, such as `opt.cluster.health.enabled = ...`;
  - a mutating call or operator on a class-typed member ("passing 'const
    S::field_probe_f' as 'this' argument", "no match for 'operator='
    (operand types are 'const S::field_probe_f' ...)"), and a non-const
    reference or pointer taken to a member ("binding reference ... to
    'const S::field_probe_f'", "invalid conversion from 'const
    S::field_probe_f*'"), named by the alias.
Whole-struct copies ("use of deleted function 'S::operator='", "non-static
const member ..., cannot use default assignment operator") are not field
writes. Aggregate initialisation compiles with const members, so a struct
that some source builds from a non-empty braced list counts as set
wholesale (a text scan, `brace_built`).

A write site under tests/ sets a field "by tests"; anywhere else (src/,
bench/, examples/, perfbench/) it is a production write. The pass prints
every field that is not itself a probed struct and has no production write,
with who sets it ("tests" or "nothing") and its verdict from the verdicts
file (scripts/reachability_verdicts.txt), and exits 1 when one has none.
--json-out writes the fields and write sites for
scripts/reachability_report.py. Changes no tracked file.
"""
import argparse
import fnmatch
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

PRODUCTION_DIRS = ("src", "examples", "bench", "perfbench")
COPY_ITEMS = ("CMakeLists.txt", "src", "tests", "bench", "examples",
              "perfbench")
PROBED = re.compile(r"^(?:\w*(?:Options|Config|Scenario|Spec)|SessionEnv)$")
SKIP_DECL = re.compile(
    r"^(?:using|typedef|friend|static|constexpr|template|enum|struct|class|"
    r"union|mutable|static_assert|operator|~)\b")


def strip_comments(text):
    """Comments and string/char literals blanked, newlines and offsets
    kept."""
    def blank(m):
        return re.sub(r"[^\n]", " ", m.group(0))
    return re.sub(r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|'
                  r"'(?:\\.|[^'\\\n])*'", blank, text, flags=re.S)


def match_brace(text, i):
    depth = 0
    for j in range(i, len(text)):
        if text[j] == "{":
            depth += 1
        elif text[j] == "}":
            depth -= 1
            if depth == 0:
                return j
    return len(text) - 1


def scopes(text):
    """[(qualified class name, body start, body end)] for every class or
    struct definition; the name joins the enclosing class names."""
    out = []
    stack = []  # class name or None, one per open brace
    last = 0
    for m in re.finditer(r"[{};]", text):
        c = m.group(0)
        if c == "{":
            head = text[last:m.start()]
            hm = re.search(r"\b(?:class|struct)\s+(\w+)[^;()]*$", head)
            name = None
            if hm and not re.search(r"\benum\b", head):
                name = hm.group(1)
                outer = [s for s in stack if s]
                out.append(("::".join(outer + [name]), m.end(),
                            match_brace(text, m.start())))
            stack.append(name)
        elif c == "}":
            if stack:
                stack.pop()
        last = m.end()
    return out


def statements(text, start, end):
    """(text, offset) of every statement at the top level of a class body,
    skipping function bodies and nested type definitions."""
    i, stmt, paren = start, start, 0
    while i < end:
        c = text[i]
        if c == "(":
            paren += 1
        elif c == ")":
            paren -= 1
        elif c == "{" and paren == 0:
            head = re.sub(r"^\s*(?:(?:public|private|protected)\s*:\s*)*", "",
                          text[stmt:i])
            j = match_brace(text, i)
            if "(" in head or re.match(r"(?:struct|class|enum|union)\b", head):
                i = stmt = j + 1
                continue
            i = j + 1
            continue
        elif c == ";" and paren == 0:
            yield text[stmt:i], stmt
            stmt = i + 1
        i += 1


def member(stmt, offset):
    """(name, type, using offset, type start, type end) of a data member
    statement, or None for anything else."""
    lead = re.match(r"\s*(?:(?:public|private|protected)\s*:\s*)*", stmt)
    attrs = re.match(r"(?:\[\[[^\]]*\]\]\s*)*", stmt[lead.end():])
    body = stmt[lead.end() + attrs.end():]
    decl = re.split(r"=|\{", body, maxsplit=1)[0]
    flat = decl
    while re.search(r"<[^<>]*>", flat):
        flat = re.sub(r"<[^<>]*>", "", flat)
    if not decl.strip() or SKIP_DECL.match(decl) or "(" in decl or \
            "&" in decl or "," in flat:
        return None
    dm = re.search(r"(\w+)\s*(?:\[[^\]]*\]\s*)*$", decl)
    type_ = decl[:dm.start()].strip() if dm else ""
    if not type_ or type_ in ("return", "else", "goto"):
        return None
    start = offset + lead.end() + attrs.end()
    return (dm.group(1), " ".join(type_.split()), offset + lead.end(), start,
            start + dm.start())


def base_type(type_):
    t = re.sub(r"\bconst\b|[*&]", "", type_).strip()
    return re.sub(r"<.*>$", "", t).split("::")[-1]


def find_fields(root):
    """[{struct, field, type, kind, header, edit}] for every data member of
    every probed struct under root/src. kind is "struct" for a member whose
    type is itself probed (judged by its own fields), else "value"."""
    raw = []
    for path in sorted((root / "src").rglob("*.hpp")):
        text = strip_comments(path.read_text(errors="replace"))
        for qual, start, end in scopes(text):
            if not PROBED.match(qual.split("::")[-1]):
                continue
            for stmt, off in statements(text, start, end):
                m = member(stmt, off)
                if m:
                    raw.append((qual, m, path.relative_to(root).as_posix()))
    probed = {q.split("::")[-1] for q, _, _ in raw}
    return [{"struct": qual, "field": name, "type": type_,
             "kind": "struct" if base_type(type_) in probed else "value",
             "header": header, "edit": edit}
            for qual, (name, type_, *edit), header in raw]


def make_copy(root, copy):
    if copy.exists():
        shutil.rmtree(copy)
    copy.mkdir(parents=True)
    ignore = shutil.ignore_patterns(".bench_build", "__pycache__", "build*")
    for item in COPY_ITEMS:
        src = root / item
        if src.is_dir():
            shutil.copytree(src, copy / item, ignore=ignore)
        elif src.exists():
            shutil.copy2(src, copy / item)


def constify(copy, fields):
    """Makes every probed member of the copy const, through its alias."""
    by_header = {}
    for f in fields:
        by_header.setdefault(f["header"], []).append(f)
    for header, fs in by_header.items():
        p = copy / header
        text = p.read_text()
        for f in sorted(fs, key=lambda f: -f["edit"][0]):
            at, t0, t1 = f["edit"]
            alias = "field_probe_" + f["field"]
            text = (text[:at] + f"using {alias} = {text[t0:t1].strip()}; " +
                    text[at:t0] + f"const {alias} " + text[t1:])
        p.write_text(text)


def compile_entries(copy, build):
    """[(directory, argv, file)] for every TU, as syntax-only commands."""
    subprocess.run(["cmake", "-S", str(copy), "-B", str(build),
                    "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"],
                   check=True, stdout=subprocess.DEVNULL)
    db = json.loads((build / "compile_commands.json").read_text())
    out = []
    for e in db:
        argv = e["arguments"] if "arguments" in e else shlex.split(e["command"])
        out.append((e["directory"], syntax_only(argv), e["file"]))
    # perfbench is its own CMake project; its units take a src/ unit's flags.
    src_tu = next(e for e in out
                  if Path(e[2]).resolve().is_relative_to(copy.resolve() / "src"))
    for cpp in sorted((copy / "perfbench").glob("*.cpp")):
        argv = [a for a in src_tu[1] if a != src_tu[2]] + [str(cpp)]
        out.append((src_tu[0], argv, str(cpp)))
    return out


def syntax_only(argv):
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
            continue
        if a in ("-o", "-MF", "-MT", "-MQ"):
            skip = True
            continue
        if a in ("-c", "-MD", "-MMD") or a.startswith("-o"):
            continue
        out.append(a)
    return out + ["-fsyntax-only", "-fmax-errors=0"]


def run_probe(entries):
    env = dict(os.environ, LC_ALL="C")

    def one(entry):
        d, argv, _ = entry
        return subprocess.run(argv, cwd=d, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True).stdout
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 2) as pool:
        return list(pool.map(one, entries))


ERROR = re.compile(r"^(?P<file>[^:\n]+):(?P<line>\d+):\d+: "
                   r"error: (?P<msg>.*)$", re.M)
WRITE = re.compile(r"^(?:(?:assignment|increment|decrement) of |no match for "
                   r"'operator|passing '|binding reference |cannot bind |"
                   r"invalid conversion from ')")
NAMED = re.compile(r"^\w+ of (?:read-only member|member) '([\w:]+)'")
ALIAS = re.compile(r"'const ([\w:]+)::field_probe_(\w+)\*?'")


def owner(name, structs):
    """(struct, field) for a compiler-qualified member name such as
    'daop::obs::Profiler::Options::max_steps_per_run': the longest suffix
    of its scope that is a probed struct."""
    parts = name.split("::")
    for k in range(len(parts) - 1):
        scope = "::".join(parts[k:-1])
        if scope in structs:
            return scope, parts[-1]
    return None, parts[-1]


def parse_writes(outputs, copy, fields):
    """Write sites [{struct, field, file, line, by}], sorted."""
    structs = {f["struct"] for f in fields}
    known = {(f["struct"], f["field"]) for f in fields}
    writes = set()
    for text in outputs:
        for m in ERROR.finditer(text):
            if not WRITE.match(m["msg"]):
                continue
            try:
                rel = Path(m["file"]).resolve().relative_to(copy.resolve())
            except ValueError:
                continue  # a system header
            am = ALIAS.search(m["msg"])
            nm = NAMED.match(m["msg"])
            if am:
                key = owner(f"{am[1]}::{am[2]}", structs)
            elif nm:
                key = owner(nm[1], structs)
            else:
                continue
            if key in known:
                by = "tests" if rel.parts[0] == "tests" else "production"
                writes.add(key + (rel.as_posix(), int(m["line"]), by))
    return [dict(zip(("struct", "field", "file", "line", "by"), w))
            for w in sorted(writes)]


def sources(root, dirs):
    out = {}
    for d in dirs:
        for p in sorted((root / d).rglob("*")):
            if p.suffix in (".cpp", ".hpp", ".h", ".cc") and p.is_file():
                out[p] = strip_comments(p.read_text(errors="replace"))
    return out


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


def names(type_, scope, struct):
    """True when `type_`, declared inside class `scope`, names `struct`:
    spelled with the struct's enclosing classes, or unqualified from
    inside them."""
    t = re.sub(r"<.*>$", "", re.sub(r"\bconst\b|[*&]", "", type_).strip())
    t, want, outer = t.split("::"), struct.split("::"), scope.split("::")
    return t[-len(want):] == want or \
        any(outer[:k] + t == want for k in range(len(outer) + 1))


def brace_built(struct, fields, texts):
    """True when some source builds a `struct` from a non-empty braced
    list, which sets its fields by position: `S{a, b}`, `S x{a}`,
    `S x = {a}`, or `.f = {a, b}` for a field f of type S. A nested struct
    must be spelled with its enclosing classes (`Host::Options{a}`), so
    one class's `Options` does not stand for another's."""
    typed = [f["field"] for f in fields
             if names(f["type"], f["struct"], struct)]
    name = r"\s*::\s*".join(struct.split("::"))
    built = re.compile(r"\b" + name + r"(?:\s+\w+)?\s*(?:=\s*)?\{\s*[^\s}]")
    # `struct S {` and a base clause `struct D : public S {` open a class
    # body, not a braced list.
    head = re.compile(r"\b(?:struct|class)\s+(?:\w+[^;{}()]*)?$")
    pats = [re.compile(r"(?:\.|->)\s*" + re.escape(f) + r"\s*=\s*\{\s*[^\s}]")
            for f in typed]
    return any(not head.search(t, max(0, m.start() - 200), m.start())
               for t in texts.values() for m in built.finditer(t)) or \
        any(p.search(t) for p in pats for t in texts.values())


def never_set(root, result):
    """[(struct, field, header, "tests" | "nothing")] for every non-struct
    field with no production write whose struct no production source
    brace-builds."""
    fields, writes = result["fields"], result["writes"]
    prod = sources(root, PRODUCTION_DIRS)
    tests = sources(root, ("tests",))
    by = {}
    for w in writes:
        by.setdefault((w["struct"], w["field"]), set()).add(w["by"])
    out = []
    for f in fields:
        key = (f["struct"], f["field"])
        if f["kind"] == "struct" or "production" in by.get(key, ()):
            continue
        if brace_built(f["struct"], fields, prod):
            continue
        set_by = "tests" if ("tests" in by.get(key, ()) or
                             brace_built(f["struct"], fields, tests)) \
            else "nothing"
        out.append((f["struct"], f["field"], f["header"], set_by))
    return out


def print_report(root, result, rules, out=sys.stdout):
    """Prints the never-set fields with verdicts; returns how many have
    none."""
    fields = result["fields"]
    unset = never_set(root, result)
    values = [f for f in fields if f["kind"] != "struct"]
    print(f"== option fields no production source sets: {len(unset)} of "
          f"{len(values)} fields in {len({f['struct'] for f in fields})} "
          f"structs ({len(result['writes'])} write sites)", file=out)
    missing = 0
    for struct, field, header, set_by in unset:
        v = verdict_for(f"{struct}::{field}", rules)
        missing += v is None
        print(f"{struct}::{field}\t{header}\tset by {set_by}\t"
              f"{v or 'NO VERDICT'}", file=out)
    return missing


def field_pass(root, work, entries=None):
    """Probes root in work/ and returns {fields, writes, units}.
    `entries(copy)` gives the syntax-only commands; the default configures
    the copy with CMake."""
    fields = find_fields(root)
    copy = work / "copy"
    make_copy(root, copy)
    constify(copy, fields)
    units = entries(copy) if entries else compile_entries(copy, work / "build")
    writes = parse_writes(run_probe(units), copy, fields)
    return {"fields": [{k: f[k] for k in ("struct", "field", "type", "kind",
                                          "header")} for f in fields],
            "writes": writes,
            "units": len(units)}


FIXTURE_HEADER = """\
#pragma once
#include <string>
#include <vector>
namespace fx {
enum class Mode { kA, kB };
struct AlphaOptions {
  int depth = 1;       // set in src/
  bool enabled = false;  // set nowhere
  double* sink = nullptr;  // set in src/ through a nested member
  std::vector<int> sizes;  // set in src/ by a mutating call
  Mode mode = Mode::kA;  // set by tests
  static constexpr int kMax = 3;
  int twice() const { return depth * 2; }
};
struct BetaConfig {
  int depth = 2;  // shares AlphaOptions::depth's name; set nowhere
  bool enabled = false;  // set in src/
  std::vector<int> sizes;  // shares AlphaOptions::sizes's name; set nowhere
  AlphaOptions alpha;
};
struct DerivedConfig : public BetaConfig {  // a base clause, not a braced list
  int extra = 0;  // set nowhere
};
class Host {
 public:
  struct Options {
    int depth = 3;  // brace-built in src/
  };
};
class Guest {
 public:
  struct Options {  // shares Host::Options's name
    int width = 1;   // set nowhere
    int height = 1;  // set by tests
  };
};
}  // namespace fx
"""
FIXTURE_SRC = """\
#include "fx/opts.hpp"
void configure(fx::AlphaOptions& a, fx::BetaConfig& b, double* d) {
  a.depth = 4;
  a.sizes.push_back(1);
  b.enabled = a.enabled && b.alpha.depth > 0;
  b.alpha.sink = d;
}
fx::Host::Options host_defaults() { return fx::Host::Options{4}; }
"""
FIXTURE_TEST = """\
#include "fx/opts.hpp"
void tweak(fx::AlphaOptions& a, fx::Guest::Options& g) {
  a.mode = fx::Mode::kB;
  ++g.height;
}
"""


def self_test():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        (root / "src/fx").mkdir(parents=True)
        (root / "tests/fx").mkdir(parents=True)
        (root / "src/fx/opts.hpp").write_text(FIXTURE_HEADER)
        (root / "src/fx/use.cpp").write_text(FIXTURE_SRC)
        (root / "tests/fx/use_test.cpp").write_text(FIXTURE_TEST)
        cxx = os.environ.get("CXX", "c++")

        def entries(copy):
            return [(str(copy), syntax_only([cxx, "-std=c++20", "-I",
                                             str(copy / "src"), "-c",
                                             str(copy / f)]), str(copy / f))
                    for f in ("src/fx/use.cpp", "tests/fx/use_test.cpp")]
        result = field_pass(root, Path(tmp) / "work", entries)
        got = {(s, f): by for s, f, _, by in never_set(root, result)}
        want = {("BetaConfig", "depth"): "nothing",
                ("BetaConfig", "sizes"): "nothing",
                ("DerivedConfig", "extra"): "nothing",
                ("AlphaOptions", "enabled"): "nothing",
                ("AlphaOptions", "mode"): "tests",
                ("Guest::Options", "width"): "nothing",
                ("Guest::Options", "height"): "tests"}
        assert got == want, f"never-set fields {got}, want {want}"
        kinds = {(f["struct"], f["field"]): f["kind"]
                 for f in result["fields"]}
        assert kinds[("BetaConfig", "alpha")] == "struct", kinds
        assert ("AlphaOptions", "kMax") not in kinds, kinds
        assert ("AlphaOptions", "twice") not in kinds, kinds
        rules = [("AlphaOptions::enabled", "keep: fixture"),
                 ("AlphaOptions::mode", "keep: fixture"),
                 ("Guest::Options::height", "keep: fixture")]
        with open(os.devnull, "w") as null:
            missing = print_report(root, result, rules, out=null)
        assert missing == 4, f"{missing} fields without a verdict, want 4"
    print("field_pass self-test: ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    ap.add_argument("--work", help="scratch directory (default "
                    "<root>/build-reach/fields)")
    ap.add_argument("--verdicts")
    ap.add_argument("--json-out")
    a = ap.parse_args()
    if a.self_test:
        return self_test()
    root = Path(a.root).resolve()
    work = Path(a.work) if a.work else root / "build-reach" / "fields"
    result = field_pass(root, work.resolve())
    if a.json_out:
        Path(a.json_out).write_text(json.dumps(result, indent=1) + "\n")
    missing = print_report(root, result, load_verdicts(a.verdicts))
    print(f"\n== {result['units']} units probed; without a verdict: "
          f"{missing} fields")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
