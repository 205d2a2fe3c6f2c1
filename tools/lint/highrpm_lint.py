#!/usr/bin/env python3
"""HighRPM project linter.

Enforces invariants that no generic tool knows about, because they encode
HighRPM's determinism and numeric-safety contracts rather than general C++
hygiene:

  rng-source            All randomness in library code (src/, include/) must
                        flow through math::Rng so runs are reproducible from
                        a single seed. std::rand, std::random_device,
                        <random> engines/distributions, and time()-seeded
                        anything are forbidden.
  library-io            Library code never writes to stdout/stderr
                        (std::cout / printf and friends); only bench/,
                        examples/, and tests/ may. snprintf-to-buffer is
                        allowed (formatting, not I/O).
  library-file-io       Library code never opens files for writing
                        (std::ofstream / std::fstream / fopen / fwrite /
                        std::filesystem mutation) — the observability
                        exporter (src/obs/, include/highrpm/obs/) is the one
                        sanctioned place a library call may touch the
                        filesystem, so telemetry side effects stay auditable
                        in a single directory. Explicitly-user-invoked write
                        APIs (data::write_csv) carry an ALLOW marker.
  float-compare         No raw == / != against floating-point literals,
                        anywhere in the tree. Exact comparisons are still
                        expressible — through the blessed helpers in
                        include/highrpm/math/float_eq.hpp (exact_eq /
                        is_zero), which document the intent and carry the
                        determinism rationale. This textual rule is the fast
                        subset; the sound compiler-level check is
                        -Wfloat-equal under HIGHRPM_WERROR=ON.
  sensor-isfinite       Every sensor-boundary ingestion file (the measure/
                        sensor front-ends and the CSV reader) must guard its
                        inputs with std::isfinite: a NaN/Inf must be
                        rejected at the boundary, never fed into the models.
  thread-outside-runtime  Library code outside the runtime/ and verify/
                        layers must not spawn threads (std::thread/
                        std::jthread/std::async/pthread_create). All
                        parallelism goes through runtime::parallel_for so
                        the determinism guarantee (bit-identical results for
                        any thread count) holds; verify/ is sanctioned
                        because its model checker runs threads one-at-a-time
                        by construction.
  memory-order-audit    Raw atomics (std::atomic, std::atomic_thread_fence,
                        std::memory_order_*) in library code are audited:
                        they may appear only under the four concurrency
                        homes — verify/, serve/, obs/, runtime/. Within
                        those, every memory_order_relaxed outside obs/ (the
                        sanctioned relaxed-counter home) and verify/ (which
                        models orders rather than relying on them) must
                        carry HIGHRPM_LINT_ALLOW(memory-order-audit): <why>
                        on the same or immediately preceding line — a
                        justified escape, not a bare one. The model-checker
                        suites (ctest -L verify) are the semantic
                        counterpart of this textual audit.
  alloc-in-step         Steady-state hot-path functions in library code —
                        those named step, step_*, cell_step, *_into, or
                        *_batch (the per-node tick path and the batched
                        fleet-stepper entry points alike) — must not
                        construct a std::vector: the zero-allocation tick
                        contract (tests/perf/, ctest -L perf-smoke) requires
                        caller-owned scratch buffers there. References,
                        pointers, and parameter types are fine; only
                        constructions (locals / temporaries) are flagged.
  pragma-once           Every header starts (after leading comments) with
                        #pragma once.
  orphan-header         Every public header under include/highrpm/ has a
                        consumer outside the tests: a file under src/,
                        bench/, bench_e2e/ or examples/ includes it, or a
                        consumed header does. The implementation of an
                        unconsumed header (src/<same path>.cpp) is no
                        consumer, so a header's own .cpp never keeps it
                        alive, nor does a header that only such a file
                        includes. Tests never count: code that only its
                        tests read serves no experiment, bench or example.
                        A whole-tree rule, computed over --root;
                        include/highrpm/verify/ is exempt (the model
                        checker's headers exist for tests/verify).

A line can be exempted with a trailing comment containing
HIGHRPM_LINT_ALLOW(<rule-id>); use sparingly and explain why.

Exit status: 0 when clean, 1 when findings, 2 on usage errors.

Usage:
  python3 tools/lint/highrpm_lint.py [--root DIR] [--list-rules]
                                     [--compile-headers] [FILE...]
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Tree layout

LIBRARY_DIRS = ("src", "include")
SCAN_DIRS = ("src", "include", "bench", "examples", "tests")
# Directories whose files count as consumers of a public header.
CONSUMER_DIRS = ("src", "bench", "bench_e2e", "examples")
SKIP_DIR_NAMES = {".git", "bench_out", "fixtures", "__pycache__"}
SKIP_DIR_PREFIXES = ("build",)
CPP_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh"}
HEADER_SUFFIXES = {".hpp", ".h", ".hh"}

# Files allowed to contain raw floating-point == / !=: the one blessed
# comparison-helper header whose whole point is to centralize them.
FLOAT_EQ_EXEMPT = {"include/highrpm/math/float_eq.hpp"}

# The math::Rng implementation itself may (in principle) reference <random>
# machinery; everything else in the library must go through it.
RNG_EXEMPT = {"include/highrpm/math/rng.hpp", "src/math/rng.cpp"}

# Sensor-boundary ingestion files: each must call std::isfinite at least
# once. trace_log.cpp and collector.cpp ingest exclusively through these
# (read_csv / the sensor front-ends), so they are covered transitively.
ISFINITE_REQUIRED = (
    "src/measure/ipmi.cpp",
    "src/measure/direct.cpp",
    "src/measure/pmc_sampler.cpp",
    "src/data/csv.cpp",
)

# Public headers exempt from orphan-header: the model checker's verify.hpp
# and model.hpp exist for tests/verify (ctest -L verify), which drives the
# shipped serve/obs templates through them; the library never includes
# them.
ORPHAN_EXEMPT_PREFIXES = ("include/highrpm/verify/",)

ALLOW_MARKER = re.compile(r"HIGHRPM_LINT_ALLOW\(([a-z0-9-]+)\)")
PUBLIC_INCLUDE = re.compile(r'^\s*#\s*include\s*[<"](highrpm/[^">]+)[">]')

# --------------------------------------------------------------------------
# Rules

RNG_PATTERNS = [
    (re.compile(r"\bstd::rand\b"), "std::rand"),
    (re.compile(r"(?<!\w)srand\s*\("), "srand()"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bstd::(mt19937(_64)?|minstd_rand0?|default_random_engine|"
                r"ranlux\w+|knuth_b)\b"), "a <random> engine"),
    (re.compile(r"\bstd::(uniform_(int|real)_distribution|"
                r"normal_distribution|bernoulli_distribution|"
                r"poisson_distribution)\b"), "a <random> distribution"),
    (re.compile(r"#\s*include\s*<random>"), "#include <random>"),
    (re.compile(r"(?<!\w)time\s*\(\s*(NULL|nullptr|0)\s*\)"),
     "time()-derived seed"),
]

IO_PATTERNS = [
    (re.compile(r"\bstd::(cout|cerr|clog)\b"), "std::cout/cerr/clog"),
    (re.compile(r"(?<![\w:])printf\s*\("), "printf()"),
    (re.compile(r"(?<![\w:])fprintf\s*\("), "fprintf()"),
    (re.compile(r"(?<![\w:])puts\s*\("), "puts()"),
]

# File *output* from library code. Read-side streams (std::ifstream) stay
# legal everywhere — models must load data — and std::fstream counts as
# output because it can write. std::filesystem mutations are listed
# individually: pure queries (exists, path algebra) are harmless.
FILE_IO_PATTERNS = [
    (re.compile(r"\bstd::ofstream\b"), "std::ofstream"),
    (re.compile(r"\bstd::fstream\b"), "std::fstream"),
    (re.compile(r"(?<![\w:])(?:std::)?fopen\s*\("), "fopen()"),
    (re.compile(r"(?<![\w:])(?:std::)?fwrite\s*\("), "fwrite()"),
    (re.compile(r"\bstd::filesystem::"
                r"(create_director(y|ies)|remove(_all)?|rename|resize_file|"
                r"copy(_file)?)\b"),
     "a std::filesystem mutation"),
]

# The sanctioned home of library-side file output: the telemetry exporter.
FILE_IO_ALLOWED_PREFIXES = ("src/obs/", "include/highrpm/obs/")

THREAD_PATTERNS = [
    (re.compile(r"\bstd::jthread\b"), "std::jthread"),
    (re.compile(r"\bstd::thread\b"), "std::thread"),
    (re.compile(r"\bstd::async\b"), "std::async"),
    (re.compile(r"\bpthread_create\b"), "pthread_create"),
]

# Thread spawning is sanctioned in runtime/ (the shared pool) and verify/
# (the model checker's one-runs-at-a-time workers).
THREAD_ALLOWED_DIR_PARTS = ("/runtime/", "/verify/")

# Raw atomics concentrate in four audited homes; everywhere else in library
# code the concurrency toolbox is runtime::parallel_for plus plain values.
ATOMIC_ALLOWED_PREFIXES = (
    "include/highrpm/verify/", "src/verify/",
    "include/highrpm/serve/", "src/serve/",
    "include/highrpm/obs/", "src/obs/",
    "include/highrpm/runtime/", "src/runtime/",
)
# Within the audited homes, memory_order_relaxed additionally needs a
# justified ALLOW marker — except obs/ (the sanctioned relaxed-counter home:
# counters carry totals, no ordering contract) and verify/ (which models
# memory orders rather than relying on them).
RELAXED_EXEMPT_PREFIXES = (
    "include/highrpm/obs/", "src/obs/",
    "include/highrpm/verify/", "src/verify/",
)
ATOMIC_PATTERNS = [
    (re.compile(r"\bstd::atomic(?:_\w+)?\b"), "std::atomic"),
    (re.compile(r"\bstd::memory_order\w*"), "std::memory_order"),
]
RELAXED_USE = re.compile(r"\bmemory_order_relaxed\b")
# The relaxed escape must be justified: marker followed by actual words.
RELAXED_JUSTIFIED = re.compile(
    r"HIGHRPM_LINT_ALLOW\(memory-order-audit\)[:\s]+\S")


def relaxed_justified(lines: list[str], lineno: int) -> bool:
    """True when a justified memory-order-audit marker covers `lineno`.

    The marker may sit on the flagged line or the immediately preceding one
    (relaxed loads are often split across lines by the 80-column style)."""
    for ln in (lineno, lineno - 1):
        if 1 <= ln <= len(lines) and RELAXED_JUSTIFIED.search(lines[ln - 1]):
            return True
    return False

# Raw == / != with a floating-point literal on either side. Literal forms:
# 1.0, .5, 2., 1e-9, 1.5e3, optional f/F/l/L suffix. Integer literals are
# fine (they compare exactly by promotion only when the other side is
# integral; mixed cases are caught by -Wfloat-equal under the WERROR gate).
_FLOAT_LIT = r"(?:\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)[fFlL]?"
FLOAT_CMP = re.compile(
    r"(?:%s\s*[=!]=(?!=))|(?:[=!]=(?!=)\s*[-+]?%s)" % (_FLOAT_LIT, _FLOAT_LIT))

# Function names bound by the zero-allocation steady-state contract. The
# lookbehind rejects member/call syntax (obj.step(, this->step(, (step() so
# only definition-position names are considered; the `;`-before-`{` check in
# lint_file then discards declarations and expression statements.
ALLOC_FUNC_NAME = re.compile(
    r"(?<![\w.>(])(?:\w+::)*(?:cell_step|step_\w+|step|\w*_into|\w*_batch)"
    r"\s*\(")


def vector_constructions(code: str) -> list[int]:
    """Column offsets of std::vector *constructions* in one code line.

    A construction is `std::vector<T>` followed by an identifier (local
    declaration) or by `(` / `{` (temporary). Followed by `&`, `*`, `>`,
    `,`, `)`, `:` or `;` it is a reference, pointer, nested template
    argument, parameter, or type alias — all allocation-free uses. A
    template argument list that spans lines is skipped (conservative: the
    tree is clang-formatted and does not split them).
    """
    out: list[int] = []
    i = 0
    while True:
        j = code.find("std::vector", i)
        if j == -1:
            return out
        k = j + len("std::vector")
        while k < len(code) and code[k].isspace():
            k += 1
        if k >= len(code) or code[k] != "<":
            i = j + 1
            continue
        depth = 0
        while k < len(code):
            if code[k] == "<":
                depth += 1
            elif code[k] == ">":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        if k >= len(code):
            i = j + 1
            continue
        k += 1
        while k < len(code) and code[k].isspace():
            k += 1
        nxt = code[k] if k < len(code) else ""
        if nxt and nxt not in "&*>,):;":
            out.append(j)
        i = max(k, j + 1)


RULES = {
    "rng-source": "randomness outside math::Rng in library code",
    "library-io": "stdout/stderr I/O in library code",
    "library-file-io": "file output in library code outside the obs "
                       "exporter (src/obs/, include/highrpm/obs/)",
    "float-compare": "raw == / != against a floating-point literal "
                     "(use highrpm/math/float_eq.hpp)",
    "sensor-isfinite": "sensor ingestion file missing a std::isfinite guard",
    "thread-outside-runtime": "thread creation outside runtime/ and the "
                              "verify/ model checker",
    "memory-order-audit": "raw atomics outside the audited homes (verify/, "
                          "serve/, obs/, runtime/), or an unjustified "
                          "memory_order_relaxed inside them",
    "alloc-in-step": "std::vector construction inside a steady-state "
                     "function (step / step_* / cell_step / *_into / "
                     "*_batch) in library code",
    "pragma-once": "header missing #pragma once",
    "orphan-header": "public header that no file under src/, bench/, "
                     "bench_e2e/ or examples/ reaches (tests do not count)",
}


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code_line(line: str, in_block_comment: bool) -> tuple[str, bool]:
    """Remove comments and string/char literal contents from one line.

    Returns (code, still_in_block_comment). Keeps the line length roughly
    intact where it matters (patterns never span lines). A deliberately
    simple scanner: no raw strings, no line continuations — the tree does
    not use them in ways that matter to these rules.
    """
    out = []
    i, n = 0, len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end == -1:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        ch = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            break
        if ch == "/" and nxt == "*":
            in_block_comment = True
            i += 2
            continue
        if ch in "\"'":
            quote = ch
            out.append(ch)
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(quote)
                    i += 1
                    break
                i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block_comment


def rel(path: Path, root: Path) -> str:
    return path.relative_to(root).as_posix()


def top_dir(relpath: str) -> str:
    return relpath.split("/", 1)[0]


def lint_file(path: Path, root: Path) -> list[Finding]:
    relpath = rel(path, root)
    scope = top_dir(relpath)
    in_library = scope in LIBRARY_DIRS
    thread_sanctioned = any(
        part in "/" + relpath for part in THREAD_ALLOWED_DIR_PARTS)
    in_atomic_home = relpath.startswith(ATOMIC_ALLOWED_PREFIXES)
    relaxed_exempt = relpath.startswith(RELAXED_EXEMPT_PREFIXES)
    findings: list[Finding] = []

    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        findings.append(Finding(relpath, 0, "io-error", str(e)))
        return findings

    lines = text.splitlines()
    in_block = False
    saw_pragma_once = False
    saw_isfinite = False
    allowed: dict[int, set[str]] = {}
    # alloc-in-step tracking: brace depth, a signature awaiting its body
    # brace, and the depth at which a tracked function's body opened.
    brace_depth = 0
    alloc_pending = False
    alloc_body_depth: int | None = None
    alloc_msg = ("std::vector constructed inside a steady-state function "
                 "(step / step_* / cell_step / *_into / *_batch) — use "
                 "caller-owned scratch buffers so the zero-allocation tick "
                 "contract holds")

    for lineno, raw in enumerate(lines, start=1):
        for m in ALLOW_MARKER.finditer(raw):
            allowed.setdefault(lineno, set()).add(m.group(1))
        code, in_block = strip_code_line(raw, in_block)
        if re.match(r"\s*#\s*pragma\s+once\b", code):
            saw_pragma_once = True
        if "isfinite" in code:
            saw_isfinite = True
        if not code.strip():
            continue

        def hit(rule: str, message: str) -> None:
            if rule in allowed.get(lineno, set()):
                return
            findings.append(Finding(relpath, lineno, rule, message))

        if in_library:
            if alloc_body_depth is not None:
                if vector_constructions(code):
                    hit("alloc-in-step", alloc_msg)
            elif alloc_pending:
                for idx, ch in enumerate(code):
                    if ch == ";":
                        alloc_pending = False
                        break
                    if ch == "{":
                        alloc_pending = False
                        alloc_body_depth = brace_depth
                        if vector_constructions(code[idx + 1:]):
                            hit("alloc-in-step", alloc_msg)
                        break
            else:
                m = ALLOC_FUNC_NAME.search(code)
                if m:
                    rest = code[m.end():]
                    semi, brace = rest.find(";"), rest.find("{")
                    if brace != -1 and (semi == -1 or brace < semi):
                        alloc_body_depth = brace_depth
                        if vector_constructions(rest[brace + 1:]):
                            hit("alloc-in-step", alloc_msg)
                    elif semi == -1:
                        alloc_pending = True
            brace_depth += code.count("{") - code.count("}")
            if alloc_body_depth is not None and brace_depth <= alloc_body_depth:
                alloc_body_depth = None
            for pat, what in RNG_PATTERNS:
                if pat.search(code):
                    hit("rng-source",
                        f"{what} — all randomness must flow through math::Rng")
            for pat, what in IO_PATTERNS:
                if pat.search(code):
                    hit("library-io",
                        f"{what} — library code must not write to "
                        "stdout/stderr")
            if not relpath.startswith(FILE_IO_ALLOWED_PREFIXES):
                for pat, what in FILE_IO_PATTERNS:
                    if pat.search(code):
                        hit("library-file-io",
                            f"{what} — library-side file output belongs in "
                            "the obs exporter (src/obs/)")
            if not thread_sanctioned:
                for pat, what in THREAD_PATTERNS:
                    if pat.search(code):
                        hit("thread-outside-runtime",
                            f"{what} — use runtime::parallel_for / the "
                            "shared pool")
            if not in_atomic_home:
                for pat, what in ATOMIC_PATTERNS:
                    if pat.search(code):
                        hit("memory-order-audit",
                            f"{what} — raw atomics are audited and live "
                            "only under verify/, serve/, obs/, or runtime/")
                        break
            elif not relaxed_exempt and RELAXED_USE.search(code):
                if not relaxed_justified(lines, lineno):
                    findings.append(Finding(
                        relpath, lineno, "memory-order-audit",
                        "memory_order_relaxed outside obs counters needs "
                        "HIGHRPM_LINT_ALLOW(memory-order-audit): <reason> "
                        "on this or the preceding line"))

        if relpath not in FLOAT_EQ_EXEMPT and FLOAT_CMP.search(code):
            hit("float-compare",
                "raw == / != against a float literal — use exact_eq / "
                "is_zero from highrpm/math/float_eq.hpp")

    if relpath in RNG_EXEMPT:
        findings = [f for f in findings if f.rule != "rng-source"]

    if path.suffix in HEADER_SUFFIXES and not saw_pragma_once:
        findings.append(Finding(relpath, 1, "pragma-once",
                                "header must contain #pragma once"))

    if relpath in ISFINITE_REQUIRED and not saw_isfinite:
        findings.append(Finding(
            relpath, 1, "sensor-isfinite",
            "sensor-boundary ingestion file never calls std::isfinite — "
            "non-finite inputs must be rejected at the boundary"))

    return findings


def collect_files(root: Path, dirs: tuple[str, ...] = SCAN_DIRS) -> list[Path]:
    files: list[Path] = []
    for scan in dirs:
        base = root / scan
        if not base.is_dir():
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in SKIP_DIR_NAMES
                and not d.startswith(SKIP_DIR_PREFIXES))
            for name in sorted(filenames):
                p = Path(dirpath) / name
                if p.suffix in CPP_SUFFIXES:
                    files.append(p)
    return files


def public_includes(path: Path) -> set[str]:
    """The include/highrpm/ headers a file includes, as root-relative paths."""
    text = path.read_text(encoding="utf-8", errors="replace")
    return {"include/" + m.group(1) for line in text.splitlines()
            if (m := PUBLIC_INCLUDE.match(line))}


def orphan_headers(root: Path) -> list[Finding]:
    """orphan-header over the whole tree: the consumed headers are the least
    fixed point of "a counted consumer file includes it" and "a consumed
    header includes it", so headers that only reach each other stay
    orphaned."""
    headers = {rel(p, root): public_includes(p)
               for p in collect_files(root, ("include",))
               if p.suffix in HEADER_SUFFIXES
               and rel(p, root).startswith("include/highrpm/")}
    sources = {rel(p, root): public_includes(p)
               for p in collect_files(root, CONSUMER_DIRS)}

    def implemented(source: str) -> str | None:
        """The public header `source` implements (src/<same path>.cpp)."""
        path = Path(source)
        if path.parts[0] != "src" or path.suffix != ".cpp":
            return None
        header = Path("include", "highrpm", *path.parts[1:]).with_suffix(
            ".hpp").as_posix()
        return header if header in headers else None

    consumed: set[str] = set()
    while True:
        before = len(consumed)
        for source, included in sources.items():
            impl = implemented(source)
            if impl is None or impl in consumed:
                consumed |= included & headers.keys()
        for header in list(consumed):
            consumed |= headers[header] & headers.keys()
        if len(consumed) == before:
            break
    return [Finding(header, 1, "orphan-header",
                    "no file under src/, bench/, bench_e2e/ or examples/ "
                    "reaches this header (tests do not count) — give it a "
                    "consumer or delete it")
            for header in sorted(headers)
            if header not in consumed
            and not header.startswith(ORPHAN_EXEMPT_PREFIXES)]


def compile_headers(root: Path) -> list[Finding]:
    """Self-containment check: every public header must compile standalone."""
    compiler = os.environ.get("CXX") or "c++"
    findings: list[Finding] = []
    include_dir = root / "include"
    if not include_dir.is_dir():
        return findings
    headers = sorted(include_dir.rglob("*.hpp"))
    for header in headers:
        cmd = [compiler, "-std=c++20", "-fsyntax-only",
               "-I", str(include_dir), "-x", "c++", str(header)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120)
        except FileNotFoundError:
            print(f"note: '{compiler}' not found - "
                  "skipping header self-containment check", file=sys.stderr)
            return findings
        except subprocess.TimeoutExpired:
            findings.append(Finding(rel(header, root), 1, "self-contained",
                                    "header compile timed out"))
            continue
        if proc.returncode != 0:
            first = (proc.stderr.strip().splitlines() or ["compile failed"])[0]
            findings.append(Finding(rel(header, root), 1, "self-contained",
                                    f"header is not self-contained: {first}"))
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[2],
                        help="repository root to lint (default: this repo)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and exit")
    parser.add_argument("--compile-headers", action="store_true",
                        help="also compile every include/ header standalone "
                             "(-fsyntax-only) to verify self-containment")
    parser.add_argument("files", nargs="*", type=Path,
                        help="lint only these files (paths under --root)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule}: {desc}")
        return 0

    root = args.root.resolve()
    if not root.is_dir():
        print(f"error: --root {root} is not a directory", file=sys.stderr)
        return 2

    if args.files:
        files = [(root / f).resolve() if not f.is_absolute() else f
                 for f in args.files]
        for f in files:
            if not f.is_file():
                print(f"error: no such file: {f}", file=sys.stderr)
                return 2
    else:
        files = collect_files(root)

    findings: list[Finding] = []
    for f in files:
        findings.extend(lint_file(f, root))
    orphans = orphan_headers(root)
    if args.files:
        wanted = {rel(f, root) for f in files}
        orphans = [o for o in orphans if o.path in wanted]
    findings.extend(orphans)
    if args.compile_headers:
        findings.extend(compile_headers(root))

    for finding in findings:
        print(finding)
    n = len(findings)
    print(f"highrpm_lint: {len(files)} files scanned, "
          f"{n} finding{'s' if n != 1 else ''}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
