#!/usr/bin/env python3
"""mpipred determinism lint.

Repo-specific static checks that enforce invariants the compiler cannot:

  wall-clock           nothing in the simulated world reads wall-clock time
                       or ambient entropy; src/sim/rng.hpp is the only
                       sanctioned randomness source.
  unordered-iteration  iteration order of unordered containers must never
                       feed a report/snapshot (reports are byte-identical
                       across shard counts; hash order is not).
  raw-assert           library code uses MPIPRED_REQUIRE (always-on, typed
                       UsageError) instead of <cassert> assert.
  nodiscard            Request, Error, and report/snapshot-returning APIs
                       carry [[nodiscard]]; dropping them is always a bug.
  include-hygiene      headers under src/mpi/ stay on the split config
                       headers (engine/config.hpp, adaptive/config.hpp)
                       instead of dragging full engine/adaptive headers
                       into every MPI translation unit.
  pragma-once          every header opens with #pragma once.

Suppression: append on the offending line (or the line above)

    // mpipred-lint: allow(rule[,rule]) -- reason

The reason text is mandatory; a bare allow() is itself an error.

Usage:
    mpipred_lint.py                     lint the default roots (src tests
                                        bench examples), exit 1 on findings
    mpipred_lint.py path...             lint specific files/directories
    mpipred_lint.py --self-test DIR     run the fixture corpus in DIR
    mpipred_lint.py --list-rules        print rule ids and one-liners
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_ROOTS = ("src", "tests", "bench", "examples")
CXX_SUFFIXES = {".cpp", ".hpp", ".cc", ".h"}

ALLOW_RE = re.compile(
    r"mpipred-lint:\s*allow\(([^)]*)\)\s*(?:—|--|-|:)?\s*(\S.*)?$"
)


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line: str) -> str:
    """Masks string/char literals and trailing // comments so rule regexes
    never fire on prose. Keeps the column positions of what remains."""
    out = []
    i, n = 0, len(line)
    in_str = None
    while i < n:
        ch = line[i]
        if in_str:
            if ch == "\\":
                out.append("  ")
                i += 2
                continue
            if ch == in_str:
                in_str = None
            out.append(" ")
            i += 1
            continue
        if ch in "\"'":
            in_str = ch
            out.append(" ")
            i += 1
            continue
        if ch == "/" and i + 1 < n and line[i + 1] == "/":
            break  # trailing comment: rules never look inside it
        out.append(ch)
        i += 1
    return "".join(out)


# --------------------------------------------------------------------- rules

WALL_CLOCK_PATTERNS = [
    (re.compile(r"std::chrono::system_clock"), "std::chrono::system_clock"),
    (re.compile(r"std::chrono::steady_clock"), "std::chrono::steady_clock"),
    (
        re.compile(r"std::chrono::high_resolution_clock"),
        "std::chrono::high_resolution_clock",
    ),
    (re.compile(r"std::random_device|(?<![\w:.>])random_device\s*\("), "std::random_device"),
    (re.compile(r"std::s?rand\s*\(|(?<![\w:.>])s?rand\s*\("), "rand()/srand()"),
    (
        re.compile(r"(?<![\w:.>])time\s*\(\s*(?:nullptr|NULL|0|&\w+)?\s*\)"),
        "time()",
    ),
    (re.compile(r"(?<![\w:.>])clock\s*\(\s*\)"), "clock()"),
]

# The one sanctioned entropy/clock surface, relative to the repo root.
WALL_CLOCK_EXEMPT = {"src/sim/rng.hpp"}

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*>\s+(\w+)\s*[;{=(\[]"
)
RANGE_FOR_RE = re.compile(r"for\s*\([^;)]*:\s*(?:\w+(?:\.|->))*(\w+)\s*\)")
BEGIN_CALL_RE = re.compile(r"(?<![\w.])(\w+)\s*\.\s*c?begin\s*\(\)")

ASSERT_RE = re.compile(r"(?<![\w_])assert\s*\(")
RAW_ASSERT_EXEMPT = {"src/common/assert.hpp"}

NODISCARD_TYPES = (
    "EngineReport",
    "MetricsSnapshot",
    "ServerStats",
    "ProgressStats",
    "StreamSnapshot",
    "RankRemapReport",
)
NODISCARD_FN_RE = re.compile(
    r"^\s*(?:virtual\s+)?(?:static\s+)?(?:engine::|telemetry::|serve::|ingest::|mpi::detail::)?("
    + "|".join(NODISCARD_TYPES)
    + r")\s+(\w+)\s*\("
)
NODISCARD_CLASS_RE = re.compile(r"^\s*class\s+(Request|Error)\s*[:{]")

MPI_HEADER_RE = re.compile(r"^src/mpi/.*\.hpp$")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
MPI_ALLOWED_PREFIXES = ("mpi/", "common/", "telemetry/", "sim/", "trace/")
MPI_ALLOWED_EXACT = {"engine/config.hpp", "adaptive/config.hpp"}


def sibling_header_decls(path: Path) -> set[str]:
    """Names of unordered containers declared in the .hpp next to a .cpp, so
    member usage in the implementation file is caught too."""
    if path.suffix != ".cpp":
        return set()
    header = path.with_suffix(".hpp")
    if not header.is_file():
        return set()
    names = set()
    for raw in header.read_text(encoding="utf-8", errors="replace").splitlines():
        code = strip_comments_and_strings(raw)
        for m in UNORDERED_DECL_RE.finditer(code):
            names.add(m.group(1))
    return names


def lint_file(path: Path, rel: str, lines: list[str]) -> list[Finding]:
    findings: list[Finding] = []
    allows: dict[int, set[str]] = {}  # line number -> allowed rule ids

    # Pass 1: collect suppressions (and flag reason-less ones).
    for idx, raw in enumerate(lines, start=1):
        m = ALLOW_RE.search(raw)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        reason = (m.group(2) or "").strip()
        if not rules or not reason:
            findings.append(
                Finding(rel, idx, "lint-usage",
                        "allow() needs rule ids and a reason: "
                        "// mpipred-lint: allow(rule) -- why this is safe")
            )
            continue
        # A suppression covers its own line and the line below it.
        allows.setdefault(idx, set()).update(rules)
        allows.setdefault(idx + 1, set()).update(rules)

    def emit(lineno: int, rule: str, message: str) -> None:
        if rule in allows.get(lineno, ()):
            return
        findings.append(Finding(rel, lineno, rule, message))

    unordered_names = sibling_header_decls(path)
    in_block_comment = False
    pragma_seen = False
    first_code_line = None

    for idx, raw in enumerate(lines, start=1):
        line = raw
        # Minimal block-comment tracking: rules skip fully-commented lines.
        if in_block_comment:
            if "*/" in line:
                line = line.split("*/", 1)[1]
                in_block_comment = False
            else:
                continue
        if "/*" in line and "*/" not in line.split("/*", 1)[1]:
            line = line.split("/*", 1)[0]
            in_block_comment = True
        code = strip_comments_and_strings(line)
        stripped = code.strip()

        if stripped and first_code_line is None and not stripped.startswith("//"):
            first_code_line = idx
        if re.match(r"\s*#\s*pragma\s+once", code):
            pragma_seen = True

        # wall-clock ------------------------------------------------------
        if rel not in WALL_CLOCK_EXEMPT:
            for pat, what in WALL_CLOCK_PATTERNS:
                if pat.search(code):
                    emit(idx, "wall-clock",
                         f"{what} is banned: the simulated world must be "
                         "deterministic; use sim/rng.hpp or simulated time")
                    break

        # unordered-iteration --------------------------------------------
        for m in UNORDERED_DECL_RE.finditer(code):
            unordered_names.add(m.group(1))
        if unordered_names:
            hit = None
            m = RANGE_FOR_RE.search(code)
            if m and m.group(1) in unordered_names:
                hit = m.group(1)
            if hit is None:
                m = BEGIN_CALL_RE.search(code)
                if m and m.group(1) in unordered_names:
                    hit = m.group(1)
            if hit is not None:
                emit(idx, "unordered-iteration",
                     f"iterating '{hit}' (unordered container) — hash order "
                     "must never reach a report/snapshot; sort first or use "
                     "an ordered container")

        # raw-assert ------------------------------------------------------
        if rel.startswith("src/") and rel not in RAW_ASSERT_EXEMPT:
            m = ASSERT_RE.search(code)
            if m and "static_assert" not in code[max(0, m.start() - 7):m.end()]:
                emit(idx, "raw-assert",
                     "use MPIPRED_REQUIRE (always-on, throws UsageError) "
                     "instead of assert()")

        # nodiscard -------------------------------------------------------
        if rel.startswith("src/") and path.suffix in {".hpp", ".h"}:
            prev = strip_comments_and_strings(lines[idx - 2]) if idx >= 2 else ""
            m = NODISCARD_FN_RE.match(code)
            if m and "[[nodiscard]]" not in code and "[[nodiscard]]" not in prev:
                emit(idx, "nodiscard",
                     f"function returning {m.group(1)} must be [[nodiscard]] "
                     "(reports/snapshots are never side-effecting)")
            mc = NODISCARD_CLASS_RE.match(code)
            if mc:
                emit(idx, "nodiscard",
                     f"class {mc.group(1)} must be declared "
                     f"'class [[nodiscard]] {mc.group(1)}'")

        # include-hygiene -------------------------------------------------
        # Matched against the unmasked line: the include path is a string
        # literal, which strip_comments_and_strings blanks out.
        if MPI_HEADER_RE.match(rel):
            m = INCLUDE_RE.match(line)
            if m:
                inc = m.group(1)
                ok = inc in MPI_ALLOWED_EXACT or inc.startswith(MPI_ALLOWED_PREFIXES)
                if not ok:
                    emit(idx, "include-hygiene",
                         f'"{inc}" breaks the config-header split: mpi/ '
                         "headers may include engine/config.hpp and "
                         "adaptive/config.hpp only (forward-declare the rest)")

    # pragma-once ---------------------------------------------------------
    if path.suffix in {".hpp", ".h"} and not pragma_seen:
        findings.append(
            Finding(rel, first_code_line or 1, "pragma-once",
                    "header is missing #pragma once")
        )

    return findings


# ------------------------------------------------------------------ drivers

def collect_files(paths: list[Path]) -> list[Path]:
    files = []
    for p in paths:
        if p.is_file():
            if p.suffix in CXX_SUFFIXES:
                files.append(p)
        elif p.is_dir():
            for f in sorted(p.rglob("*")):
                if f.suffix in CXX_SUFFIXES and "tests/lint" not in f.as_posix():
                    files.append(f)
    return files


def rel_of(path: Path) -> str:
    try:
        return path.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(paths: list[Path]) -> list[Finding]:
    findings = []
    for f in collect_files(paths):
        lines = f.read_text(encoding="utf-8", errors="replace").splitlines()
        findings.extend(lint_file(f, rel_of(f), lines))
    return findings


FIXTURE_PATH_RE = re.compile(r"//\s*lint-fixture-path:\s*(\S+)")
FIXTURE_EXPECT_RE = re.compile(r"//\s*lint-expect:\s*([\w-]+)")


def self_test(fixture_dir: Path) -> int:
    """Every fixture declares its logical path (lint-fixture-path) and the
    rules it must trip (lint-expect, zero or more). The harness fails when
    the produced rule set differs from the declared one."""
    failures = 0
    fixtures = sorted(p for p in fixture_dir.rglob("*") if p.suffix in CXX_SUFFIXES)
    if not fixtures:
        print(f"mpipred_lint --self-test: no fixtures under {fixture_dir}", file=sys.stderr)
        return 1
    for fixture in fixtures:
        text = fixture.read_text(encoding="utf-8", errors="replace")
        lines = text.splitlines()
        m = FIXTURE_PATH_RE.search(text)
        logical = m.group(1) if m else f"src/{fixture.name}"
        expected = sorted(set(FIXTURE_EXPECT_RE.findall(text)))
        # Directive lines are part of the fixture prose; strip them so a
        # lint-expect mention never interferes with a rule regex.
        body = [
            ln for ln in lines
            if not FIXTURE_PATH_RE.search(ln) and not FIXTURE_EXPECT_RE.search(ln)
        ]
        got = sorted({f.rule for f in lint_file(fixture, logical, body)})
        if got != expected:
            failures += 1
            print(f"FAIL {fixture.name} (as {logical}):", file=sys.stderr)
            print(f"  expected rules: {expected or ['<none>']}", file=sys.stderr)
            print(f"  got rules:      {got or ['<none>']}", file=sys.stderr)
            for f2 in lint_file(fixture, logical, body):
                print(f"    {f2}", file=sys.stderr)
        else:
            print(f"ok   {fixture.name}: {expected or ['clean']}")
    if failures:
        print(f"mpipred_lint --self-test: {failures} fixture(s) failed", file=sys.stderr)
        return 1
    print(f"mpipred_lint --self-test: {len(fixtures)} fixtures ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument("--self-test", metavar="DIR",
                        help="run the fixture corpus in DIR and exit")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        for rid, doc in [
            ("wall-clock", "no wall-clock/entropy outside src/sim/rng.hpp"),
            ("unordered-iteration", "hash order must not feed reports"),
            ("raw-assert", "MPIPRED_REQUIRE instead of assert() in src/"),
            ("nodiscard", "[[nodiscard]] on Request/Error and report APIs"),
            ("include-hygiene", "mpi/ headers stay on split config headers"),
            ("pragma-once", "headers open with #pragma once"),
        ]:
            print(f"{rid:20} {doc}")
        return 0

    if args.self_test:
        return self_test(Path(args.self_test))

    roots = [Path(p) for p in args.paths] if args.paths else [
        REPO_ROOT / r for r in DEFAULT_ROOTS
    ]
    findings = lint_paths(roots)
    for f in findings:
        print(f)
    if findings:
        print(f"mpipred_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
