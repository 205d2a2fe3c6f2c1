#!/usr/bin/env bash
# HighRPM correctness gate. Runs the same steps as .github/workflows/ci.yml
# so the local gate and CI cannot drift:
#
#   lint      tools/lint/highrpm_lint.py (+ header self-containment compile)
#   werror    Release build with HIGHRPM_WERROR=ON + full ctest
#   golden    ctest -L golden in the werror build: committed reference CSVs
#             (table5/table7/adaptive/attribution) must match the bench
#             output byte for byte; also runs the bench-args arg-hygiene
#             label (usage/exit-code regressions for every bench CLI)
#   native    ctest -L golden in a -march=native build (native preset): the
#             goldens must not depend on the build host's ISA (FMA
#             contraction is pinned off in the root CMakeLists.txt)
#   property  ctest -L property in the werror build: seeded invariant suites
#   verify    ctest -L verify in the verify-preset build: deterministic
#             model checking of the lock-free serve/obs templates
#             (exhaustive + seeded-random interleaving/read-choice sweeps,
#             mutant-catching gate)
#   perf      ctest -L perf-smoke in a release build: zero-allocation
#             steady-state contract (per-node + batched fleet + serve
#             consume paths); fleet-stepper determinism runs in the werror
#             and tsan steps (FleetDeterminismTest in test_runtime)
#   soak      HIGHRPM_SOAK=1 ctest -L soak in the werror build: long-run
#             daemon determinism (byte-identical final snapshots across
#             consumer thread counts under real producer threads)
#   repeat    ctest -L 'sanitize|soak' --repeat until-fail:20 in the werror
#             build: a test that depends on the thread interleaving fails
#             here rather than in a later run
#   tidy      clang-tidy over the compile database   [skipped if not installed]
#   asan      full ctest under -fsanitize=address
#   ubsan     full ctest under -fsanitize=undefined (no-recover: UB = failure)
#   tsan      ctest -L sanitize under -fsanitize=thread (pool race-stress)
#   coverage  gcc --coverage build + full ctest + coverage_gate.py threshold
#             (gcovr when installed, gcov fallback)  [only with explicit arg]
#   format    clang-format --dry-run cleanliness     [only with --format;
#                                                     skipped if not installed]
#
# Usage:
#   scripts/check.sh                 # full gate
#   scripts/check.sh lint werror     # selected steps only
#   scripts/check.sh coverage        # coverage build + threshold gate
#   scripts/check.sh --format        # full gate + formatting check
#
# Tools that are not installed (clang-tidy, clang-format) are skipped with a
# notice, never silently: the steps that enforce the same invariants through
# GCC (-Werror warning set) and the project linter always run.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

WANT_FORMAT=0
STEPS=()
for arg in "$@"; do
  case "$arg" in
    --format) WANT_FORMAT=1 ;;
    lint|werror|golden|native|property|verify|perf|soak|repeat|tidy|asan|ubsan|tsan|coverage|format) STEPS+=("$arg") ;;
    *) echo "usage: scripts/check.sh [--format] [lint|werror|golden|native|property|verify|perf|soak|repeat|tidy|asan|ubsan|tsan|coverage|format ...]" >&2
       exit 2 ;;
  esac
done
if [ "${#STEPS[@]}" -eq 0 ]; then
  # coverage is opt-in (it rebuilds the whole tree instrumented); golden and
  # property re-run their labels explicitly even though the werror suite
  # includes them, so a regression names the gate it broke.
  STEPS=(lint werror golden native property verify perf soak repeat tidy asan
         ubsan tsan)
  [ "$WANT_FORMAT" -eq 1 ] && STEPS+=(format)
fi

note()  { printf '\n==> %s\n' "$*"; }
skip()  { printf '    SKIPPED: %s\n' "$*"; }

build_and_test() {  # <preset> <ctest extra args...>
  local preset="$1"; shift
  cmake --preset "$preset" >/dev/null
  cmake --build --preset "$preset" -j "$JOBS"
  ctest --test-dir "build-$preset" --output-on-failure -j "$JOBS" "$@"
}

step_lint() {
  note "lint: highrpm_lint.py + header self-containment"
  python3 tools/lint/highrpm_lint.py --compile-headers
}

step_werror() {
  note "werror: Release + strict warnings as errors + full test suite"
  cmake --preset werror >/dev/null
  cmake --build --preset werror -j "$JOBS"
  ctest --test-dir build-werror --output-on-failure -j "$JOBS"
}

ensure_werror_build() {
  if [ ! -d build-werror ]; then
    cmake --preset werror >/dev/null
    cmake --build --preset werror -j "$JOBS"
  fi
}

step_golden() {
  note "golden: committed reference CSVs vs bench output (ctest -L golden)"
  ensure_werror_build
  ctest --test-dir build-werror --output-on-failure -j "$JOBS" -L golden
  note "bench-args: bench argument hygiene (ctest -L bench-args)"
  ctest --test-dir build-werror --output-on-failure -j "$JOBS" -L bench-args
}

step_native() {
  note "native: goldens in a -march=native build (ctest -L golden)"
  build_and_test native -L golden
}

step_property() {
  note "property: seeded invariant suites (ctest -L property)"
  ensure_werror_build
  ctest --test-dir build-werror --output-on-failure -j "$JOBS" -L property
}

step_verify() {
  note "verify: model checking the lock-free templates (ctest -L verify)"
  build_and_test verify -L verify
}

step_perf() {
  note "perf: zero-allocation steady state (ctest -L perf-smoke)"
  cmake --preset release >/dev/null
  cmake --build --preset release -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS" -L perf-smoke
}

step_soak() {
  note "soak: long-run daemon determinism (HIGHRPM_SOAK=1 ctest -L soak)"
  ensure_werror_build
  HIGHRPM_SOAK=1 ctest --test-dir build-werror --output-on-failure \
    -j "$JOBS" -L soak
}

step_repeat() {
  note "repeat: concurrency-labelled tests, 20 runs each (ctest -L 'sanitize|soak')"
  ensure_werror_build
  ctest --test-dir build-werror --output-on-failure -j "$JOBS" \
    -L 'sanitize|soak' --repeat until-fail:20
}

step_coverage() {
  note "coverage: instrumented build + full suite + threshold gate"
  cmake --preset coverage >/dev/null
  cmake --build --preset coverage -j "$JOBS"
  ctest --test-dir build-coverage --output-on-failure -j "$JOBS"
  python3 tools/coverage/coverage_gate.py --build-dir build-coverage
}

step_tidy() {
  note "tidy: clang-tidy (bugprone/performance/concurrency/cert-flp)"
  if ! command -v clang-tidy >/dev/null 2>&1; then
    skip "clang-tidy not installed"
    return 0
  fi
  cmake --preset werror -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  local sources
  sources=$(git ls-files 'src/**/*.cpp' 'include/highrpm/**/*.hpp')
  if command -v run-clang-tidy >/dev/null 2>&1; then
    # shellcheck disable=SC2086
    run-clang-tidy -p build-werror -quiet $sources
  else
    # shellcheck disable=SC2086
    clang-tidy -p build-werror --quiet $sources
  fi
}

step_asan() {
  note "asan: full test suite under AddressSanitizer"
  build_and_test asan
}

step_ubsan() {
  note "ubsan: full test suite under UBSan (-fno-sanitize-recover)"
  build_and_test ubsan
}

step_tsan() {
  note "tsan: concurrency suite (ctest -L sanitize) under ThreadSanitizer"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$JOBS"
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L sanitize
}

step_format() {
  note "format: clang-format cleanliness"
  if ! command -v clang-format >/dev/null 2>&1; then
    skip "clang-format not installed"
    return 0
  fi
  git ls-files '*.cpp' '*.hpp' | xargs clang-format --dry-run -Werror
}

for step in "${STEPS[@]}"; do
  "step_$step"
done

note "all requested steps passed: ${STEPS[*]}"
