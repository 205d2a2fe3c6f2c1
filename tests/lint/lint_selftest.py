#!/usr/bin/env python3
"""Negative tests for tools/lint/highrpm_lint.py.

The fixture trees under tests/lint/fixtures/ exercise both directions:
  bad/   every rule must fire on its fixture file, and the
         comment/string/exemption file must stay clean — a linter that
         stops firing (or starts false-positiving) fails here.
  good/  a clean mini-tree must produce zero findings.

The real-tree sweep ("the current tree passes clean") is the separate
`lint.tree` ctest; this file only proves the linter itself still works.
"""

from __future__ import annotations

import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
LINTER = REPO / "tools" / "lint" / "highrpm_lint.py"
FIXTURES = HERE / "fixtures"


def run_lint(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINTER), *args],
        capture_output=True, text=True, timeout=120)


class BadFixtureTree(unittest.TestCase):
    """Every rule must fire, each on its intended fixture file."""

    @classmethod
    def setUpClass(cls):
        cls.proc = run_lint("--root", str(FIXTURES / "bad"))
        cls.out = cls.proc.stdout

    def test_exit_status_signals_findings(self):
        self.assertEqual(self.proc.returncode, 1, self.out)

    def assert_finding(self, path: str, rule: str):
        needle = f"[{rule}]"
        hits = [ln for ln in self.out.splitlines()
                if ln.startswith(path + ":") and needle in ln]
        self.assertTrue(hits, f"expected {needle} on {path}; got:\n{self.out}")

    def test_rng_source_fires(self):
        self.assert_finding("src/core/uses_rand.cpp", "rng-source")

    def test_library_io_fires(self):
        self.assert_finding("src/core/uses_cout.cpp", "library-io")

    def test_library_file_io_fires(self):
        self.assert_finding("src/core/writes_file.cpp", "library-file-io")

    def test_library_file_io_catches_every_output_form(self):
        # ofstream, fstream, fopen, fwrite, create_directories, remove.
        hits = [ln for ln in self.out.splitlines()
                if ln.startswith("src/core/writes_file.cpp:")
                and "[library-file-io]" in ln]
        self.assertEqual(len(hits), 6, self.out)

    def test_float_compare_fires(self):
        self.assert_finding("src/math/float_cmp.cpp", "float-compare")

    def test_float_compare_catches_every_form(self):
        # ==0.0, !=0.5, literal-first, exponent, f-suffix: 5 lines.
        hits = [ln for ln in self.out.splitlines()
                if ln.startswith("src/math/float_cmp.cpp:")]
        self.assertEqual(len(hits), 5, self.out)

    def test_thread_outside_runtime_fires(self):
        self.assert_finding("src/sim/uses_thread.cpp",
                            "thread-outside-runtime")

    def test_memory_order_audit_fires_outside_homes(self):
        self.assert_finding("src/core/uses_atomic.cpp", "memory-order-audit")

    def test_memory_order_audit_catches_atomic_and_fence(self):
        # The declaration, the acquire load/loop line, and the fence — one
        # finding per offending line.
        hits = [ln for ln in self.out.splitlines()
                if ln.startswith("src/core/uses_atomic.cpp:")
                and "[memory-order-audit]" in ln]
        self.assertEqual(len(hits), 3, self.out)

    def test_memory_order_audit_requires_justified_relaxed(self):
        # Inside an audited home (serve/): one bare relaxed line plus one
        # carrying a marker with NO justification text — both must fire; the
        # acquire load must not.
        hits = [ln for ln in self.out.splitlines()
                if ln.startswith("src/serve/relaxed_unjustified.cpp:")
                and "[memory-order-audit]" in ln]
        self.assertEqual(len(hits), 2, self.out)

    def test_sensor_isfinite_fires(self):
        self.assert_finding("src/measure/ipmi.cpp", "sensor-isfinite")

    def test_alloc_in_step_fires(self):
        self.assert_finding("src/ml/alloc_in_step.cpp", "alloc-in-step")

    def test_alloc_in_step_catches_every_construction_form(self):
        # local-with-parens, local-with-braces, temporary, plus the step_*
        # and *_batch fleet-stepper entry points — and nothing in the
        # untracked helper function.
        hits = [ln for ln in self.out.splitlines()
                if ln.startswith("src/ml/alloc_in_step.cpp:")
                and "[alloc-in-step]" in ln]
        self.assertEqual(len(hits), 5, self.out)

    def test_pragma_once_fires(self):
        self.assert_finding("include/highrpm/no_pragma.hpp", "pragma-once")

    def test_orphan_header_fires_on_exactly_the_orphans(self):
        # ml/search.hpp: only its own implementation and a test include it.
        # data/folds.hpp: only that orphan's implementation includes it.
        # no_pragma.hpp has a library consumer, so it is no orphan.
        hits = sorted(ln.split(":", 1)[0] for ln in self.out.splitlines()
                      if "[orphan-header]" in ln)
        self.assertEqual(hits, ["include/highrpm/data/folds.hpp",
                                "include/highrpm/ml/search.hpp"], self.out)

    def test_comments_strings_and_exemptions_stay_clean(self):
        noise = [ln for ln in self.out.splitlines()
                 if "clean_despite_mentions.cpp" in ln]
        self.assertEqual(noise, [], self.out)


class GoodFixtureTree(unittest.TestCase):
    def test_clean_tree_exits_zero(self):
        # Includes src/obs/exporter.cpp: file output inside the sanctioned
        # obs directory must NOT trip library-file-io — and
        # src/ml/scratch_into.cpp: reference/pointer vector uses inside
        # tracked functions plus an ALLOW(alloc-in-step) escape must NOT
        # trip alloc-in-step. For memory-order-audit:
        # src/serve/relaxed_justified.cpp (same-line and preceding-line
        # justified markers), src/obs/relaxed_counter.cpp (obs needs no
        # marker), and src/verify/model_threads.cpp (verify/ may spawn
        # std::thread and use bare relaxed) must all stay clean. For
        # orphan-header: src/core/uses_clean.cpp consumes clean.hpp.
        proc = run_lint("--root", str(FIXTURES / "good"))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("0 findings", proc.stdout)


class CliContract(unittest.TestCase):
    def test_list_rules(self):
        proc = run_lint("--list-rules")
        self.assertEqual(proc.returncode, 0)
        for rule in ("rng-source", "library-io", "library-file-io",
                     "float-compare", "sensor-isfinite",
                     "thread-outside-runtime", "memory-order-audit",
                     "alloc-in-step", "pragma-once", "orphan-header"):
            self.assertIn(rule, proc.stdout)

    def test_bad_root_is_usage_error(self):
        proc = run_lint("--root", str(FIXTURES / "does-not-exist"))
        self.assertEqual(proc.returncode, 2)

    def test_single_file_mode(self):
        proc = run_lint("--root", str(FIXTURES / "bad"),
                        "src/core/uses_cout.cpp")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("library-io", proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
