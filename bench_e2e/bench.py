#!/usr/bin/env python3
"""End-to-end benchmark of HighRPM: build, run, compare (standard library only).

  python3 bench_e2e/bench.py run [--workload W] [--seed S] [--seconds N]
                                 [--trace 0|1] [--smoke]
      Build bench_e2e from this checkout, run each workload in a fresh
      process and print every metric as `workload metric value unit`. With
      one --workload the last line is the JSON result: the end-to-end
      metrics of BENCHMARK.json, or with --trace 1 its per-layer metrics.
      With every workload and --trace 1, each workload also runs untraced
      and trace.overhead_pct is printed. --seconds defaults to
      BENCHMARK.json's run_seconds.

  python3 bench_e2e/bench.py compare --base BIN --head BIN [--pairs N] ...
  python3 bench_e2e/bench.py compare --head BIN --head BIN [--pairs N] ...
      Run two bench_e2e binaries (`bench.py build` prints this checkout's)
      in N pairs, alternating which side runs first. Per workload and
      end-to-end metric: each side's median and quartiles, the head's win
      share, and a BREACH when the head's median is worse than the base's
      by more than the metric's bound in BENCHMARK.json. Passing the same
      binary twice is the same-code repeatability check.

  python3 bench_e2e/bench.py build
      Build and print the path of the bench_e2e binary.

  python3 bench_e2e/bench.py check
      Smoke run of all four workloads with every correctness check, plus
      the binary's argument handling (--help exits 0; an unknown workload,
      a malformed seed and an unknown flag print usage and exit 2).

Exit status: 0 on success; 1 on a failed build, a failed correctness
check, a malformed result or a compare breach; 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "bench_e2e"
WORKLOADS = ("fleet_saturate", "fleet_paced", "tenant_adaptive", "log_restore")
RUN_TIMEOUT_S = 175


def log(msg: str) -> None:
    print(f"bench.py: {msg}", file=sys.stderr, flush=True)


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def seconds(a: argparse.Namespace, spec: dict) -> int:
    return spec["run_seconds"] if a.seconds is None else a.seconds


def build() -> Path:
    """Configure and (incrementally) build; output goes to stderr."""
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "bench_e2e",
              "-j", "4"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit(f"bench.py: build failed: {' '.join(cmd)}")
    return BINARY


def invoke(binary: Path, args: list[str]) -> tuple[int, list[str]]:
    """Run the binary from the repository root; stderr passes through."""
    try:
        proc = subprocess.run([str(binary), *args], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{binary} {' '.join(args)}: timed out after {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines: list[str], expected: list[str]) -> dict | None:
    """The JSON result line, if it is well formed and names `expected`."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if sorted(result.get("metrics", {})) != sorted(expected):
        log("result metrics differ from BENCHMARK.json: "
            f"{sorted(set(result.get('metrics', {})) ^ set(expected))}")
        return None
    return result


def metric_lines(lines: list[str]) -> list[str]:
    return [line for line in lines if line and not line.startswith("{")]


def cmd_run(a: argparse.Namespace) -> int:
    binary = build()
    spec = benchmark_spec()
    trace = a.trace == 1
    common = ["--seed", str(a.seed), "--seconds", str(seconds(a, spec))]
    if a.smoke:
        common.append("--smoke")
    if a.workload:
        args = ["--workload", a.workload, *common] + (["--trace"] if trace else [])
        code, lines = invoke(binary, args)
        key = "per_layer" if trace else "end_to_end"
        result = parse_result(lines, [m["name"] for m in spec[key]])
        for line in metric_lines(lines):
            print(line)
        if result is None:
            log("no well-formed result")
            return 1
        print(lines[-1], flush=True)
        return 0 if code == 0 and result["correct"] else 1

    status = 0
    for w in WORKLOADS:
        code, lines = invoke(binary, ["--workload", w, *common])
        status |= code != 0
        for line in metric_lines(lines):
            print(line, flush=True)
        if not trace:
            continue
        untraced = ticks_per_s(lines, w)
        code, lines = invoke(binary, ["--workload", w, *common, "--trace"])
        status |= code != 0
        for line in metric_lines(lines):
            if not is_end_to_end(line, spec):  # the untraced run's are valid
                print(line, flush=True)
        traced = ticks_per_s(lines, w)
        if untraced and traced:
            print(f"{w} trace.overhead_pct "
                  f"{100.0 * (untraced - traced) / untraced:.6g} %", flush=True)
    return 1 if status else 0


def is_end_to_end(line: str, spec: dict) -> bool:
    parts = line.split()
    return len(parts) == 4 and parts[1] in {m["name"] for m in spec["end_to_end"]}


def ticks_per_s(lines: list[str], workload: str) -> float | None:
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[:2] == [workload, "ticks_per_s"]:
            return float(parts[2])
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def cmd_compare(a: argparse.Namespace) -> int:
    heads = a.head or []
    if a.base and len(heads) == 1:
        base, head = Path(a.base), Path(heads[0])
    elif not a.base and len(heads) == 2:
        base, head = Path(heads[0]), Path(heads[1])
    else:
        log("compare needs --base BIN --head BIN, or --head BIN --head BIN")
        return 2
    spec = benchmark_spec()
    metrics = spec["end_to_end"]
    names = [m["name"] for m in metrics]
    workloads = [a.workload] if a.workload else list(WORKLOADS)
    args = ["--seed", str(a.seed), "--seconds", str(seconds(a, spec))]
    status = 0
    for w in workloads:
        runs = {"base": [], "head": []}
        for k in range(a.pairs):
            order = (("base", base), ("head", head))
            for side, binary in (order if k % 2 == 0 else order[::-1]):
                code, lines = invoke(binary, ["--workload", w, *args])
                result = parse_result(lines, names)
                if code != 0 or result is None or not result["correct"]:
                    log(f"{w}: {side} run {k} failed")
                    status = 1
                    continue
                runs[side].append({n: v["value"]
                                   for n, v in result["metrics"].items()})
        pairs = min(len(runs["base"]), len(runs["head"]))
        if pairs == 0:
            continue
        print(f"{w}: {pairs} pairs (base {base}, head {head})")
        print(f"  {'metric':<18} {'base median [q1, q3]':>34} "
              f"{'head median [q1, q3]':>34} {'head wins':>9}  verdict")
        for m in metrics:
            n, lower = m["name"], m["better"] == "lower"
            b = [r[n] for r in runs["base"]]
            h = [r[n] for r in runs["head"]]
            bq, hq = quartiles(b), quartiles(h)
            wins = sum((hv < bv) if lower else (hv > bv)
                       for bv, hv in zip(b, h))
            worse = (hq[1] - bq[1]) if lower else (bq[1] - hq[1])
            breach = bq[1] != 0 and worse / abs(bq[1]) > m["bound"]
            status |= breach
            print(f"  {n:<18} {bq[1]:>12.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                  f"{'':>2} {hq[1]:>12.6g} [{hq[0]:.6g}, {hq[2]:.6g}]"
                  f" {wins:>4}/{pairs:<4}  "
                  f"{'BREACH' if breach else 'ok'} (bound {m['bound']:.0%})")
    return 1 if status else 0


def cmd_check(_: argparse.Namespace) -> int:
    binary = build()
    failures = []
    code, lines = invoke(binary, ["--smoke"])
    results = [json.loads(l) for l in lines if l.startswith("{")]
    if code != 0 or len(results) != len(WORKLOADS) or \
            not all(r["correct"] for r in results):
        failures.append("--smoke")
    cases = [(["--help"], 0), (["--workload", "nope"], 2),
             (["--workload", "fleet_saturate", "--seed", "12x"], 2),
             (["--frobnicate"], 2)]
    for args, want in cases:
        proc = subprocess.run([str(binary), *args], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        if proc.returncode != want or "usage:" not in proc.stdout + proc.stderr:
            failures.append(" ".join(args))
    for f in failures:
        log(f"check failed: bench_e2e {f}")
    print(f"bench_e2e check: {len(cases) + 1 - len(failures)}/"
          f"{len(cases) + 1} passed")
    return 1 if failures else 0


def main() -> int:
    p = argparse.ArgumentParser(
        description="HighRPM end-to-end benchmark (see module docstring)")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_common(sp):
        sp.add_argument("--workload", choices=WORKLOADS)
        sp.add_argument("--seed", type=int, default=2023)
        sp.add_argument("--seconds", type=int,
                        help="measured seconds (default: BENCHMARK.json "
                        "run_seconds)")

    r = sub.add_parser("run", help="build and run the benchmark")
    add_common(r)
    r.add_argument("--trace", type=int, default=0, choices=[0, 1])
    r.add_argument("--smoke", action="store_true")
    c = sub.add_parser("compare", help="compare two bench_e2e binaries")
    add_common(c)
    c.add_argument("--base")
    c.add_argument("--head", action="append")
    c.add_argument("--pairs", type=int, default=10)
    sub.add_parser("build", help="build and print the binary path")
    sub.add_parser("check", help="smoke run plus argument handling")
    a = p.parse_args()
    if a.cmd == "run":
        return cmd_run(a)
    if a.cmd == "compare":
        return cmd_compare(a)
    if a.cmd == "check":
        return cmd_check(a)
    print(build())
    return 0


if __name__ == "__main__":
    sys.exit(main())
