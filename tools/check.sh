#!/usr/bin/env bash
# The pre-merge gate: everything CI runs, runnable locally as one command.
#
#   tools/check.sh           # full gate (see legs below)
#   tools/check.sh --fast    # main build + tests + lint only
#
# Legs, in order:
#   1. format     tools/format.sh --check          (skipped: no clang-format)
#   2. build      cmake -DRIT_WERROR=ON + full build (warning floor is
#                 -Wall -Wextra -Wpedantic -Wshadow -Wconversion
#                 -Wdouble-promotion, -Werror)
#   3. tests      ctest over the full suite (includes `ctest -L lint`:
#                 rit_lint rule fixtures + the live-tree scan + the
#                 header self-sufficiency object library, and `ctest -L
#                 bench`: every bench binary run end to end at toy size
#                 with --perf-counters=true)
#   4. lint       rit_lint --root . (explicit, so the finding list prints
#                 even when invoked outside ctest)
#   5. tidy       clang-tidy build via -DRIT_TIDY=ON (skipped: no clang-tidy)
#   6. obs-off    RIT_OBS_ENABLED=OFF compile leg (tracing macros must
#                 compile away cleanly)
#   7. tsan       RIT_SANITIZE=thread build + ctest -L parallel (the
#                 parallel sweep runner under TSan)
#   8. chaos      ctest -L chaos on the main build (fault containment,
#                 checkpoint corruption rejection, the kill/resume matrix
#                 — see docs/robustness.md)
#   9. asan+ubsan RIT_SANITIZE=address,undefined build (-Werror, like
#                 every leg) + full ctest (memory errors and UB in every
#                 code path the suite reaches, the lint engine and the
#                 allocation-counting hook included; skipped with a notice
#                 when the toolchain cannot link the sanitizer runtimes)
#  10. supervisor-smoke  SIGKILL a supervised, checkpointed bench_scale
#                 mid-sweep (the forked shard workers die with it via
#                 PR_SET_PDEATHSIG), resume it, and require the resumed
#                 CSV's deterministic columns to byte-match an undisturbed
#                 reference run — see docs/robustness.md
#  11. fuzz-smoke pinned-seed differential fuzz budget (iteration-keyed,
#                 never wall-clock) on the clean mechanism, plus the
#                 harness self-test: each RIT_TESTKIT_INJECT_BUG variant
#                 (ritcs-fuzz-bug1..3) must catch its planted bug inside
#                 the same budget, and the committed golden repro must
#                 replay both ways — see docs/testing.md
#  12. stream-identity smoke  the repo benchmark's paper_sweep and
#                 tight_market workloads for one second at seed 1
#                 (perfbench/run.py builds its own binary; every trial
#                 passes its correctness gate or the run exits 1) must print
#                 the pinned digests f9ec0e50bb7b9c8f and 802c6025883f6e5d,
#                 so a silent change to the random stream, a graph, a tree
#                 or the payment pass on a whole-book band fails the gate;
#                 then tools/trace_coverage.sh runs one traced paper_sweep
#                 (seed 1) and fails if library spans cover less than 98%
#                 of traced trial time
#  13. pinned-CSV smoke  tools/pinned_csvs.sh: the fig6a,
#                 ablation_consensus and ablation_graph CSVs at a fixed
#                 seed must hash to their pinned sha256 at --threads=1 and
#                 --threads=4, so a refactor that moves an output bit (or
#                 one graph kind's tree) fails the gate
#
# Build trees live under build-check/ so the gate never disturbs your
# incremental build/. Exits non-zero on the first failing leg.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --help|-h)
      awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0"
      exit 0
      ;;
    *)
      echo "check.sh: unknown argument '$arg'" >&2
      exit 2
      ;;
  esac
done

JOBS="${RIT_CHECK_JOBS:-$(nproc)}"
ROOT="$(pwd)"
BUILD_ROOT="${RIT_CHECK_BUILD_DIR:-build-check}"

step() { echo; echo "=== check.sh: $* ==="; }

# Scratch space for the smoke legs' CSVs, logs and corpora.
CHECK_TMP="$(mktemp -d "${TMPDIR:-/tmp}/ritcs-check.XXXXXX")"
trap 'rm -rf "$CHECK_TMP"' EXIT

# --- 1. format (check-only; self-skips without clang-format) ---------------
step "format check"
tools/format.sh --check

# --- 2. build with the full warning floor as errors ------------------------
step "configure + build (RIT_WERROR=ON)"
cmake -B "$BUILD_ROOT/main" -S . -DRIT_WERROR=ON
cmake --build "$BUILD_ROOT/main" -j "$JOBS"

# --- 3. full test suite ----------------------------------------------------
step "ctest (full suite)"
ctest --test-dir "$BUILD_ROOT/main" --output-on-failure -j "$JOBS"

# --- 4. repo lint, explicitly ----------------------------------------------
step "rit_lint (live tree)"
"$BUILD_ROOT/main/tools/lint/rit_lint" --root "$ROOT"

if [[ $FAST -eq 1 ]]; then
  echo
  echo "check.sh: --fast requested; skipping tidy / obs-off / sanitizer / chaos legs"
  echo "check.sh: OK"
  exit 0
fi

# --- 5. clang-tidy (skips with a notice when absent) -----------------------
step "clang-tidy"
if command -v clang-tidy > /dev/null 2>&1; then
  cmake -B "$BUILD_ROOT/tidy" -S . -DRIT_WERROR=ON -DRIT_TIDY=ON
  cmake --build "$BUILD_ROOT/tidy" -j "$JOBS"
else
  echo "check.sh: no clang-tidy on PATH — leg skipped (install clang-tidy" \
       "to enable; config is .clang-tidy at the repo root)"
fi

# --- 6. observability-off compile leg --------------------------------------
step "RIT_OBS_ENABLED=OFF compile leg"
cmake -B "$BUILD_ROOT/obsoff" -S . -DRIT_WERROR=ON -DRIT_OBS_ENABLED=OFF
cmake --build "$BUILD_ROOT/obsoff" -j "$JOBS"

# --- 7. TSan over the parallel runner --------------------------------------
step "TSan build + ctest -L parallel"
cmake -B "$BUILD_ROOT/tsan" -S . -DRIT_WERROR=ON -DRIT_SANITIZE=thread
cmake --build "$BUILD_ROOT/tsan" -j "$JOBS"
ctest --test-dir "$BUILD_ROOT/tsan" -L parallel --output-on-failure -j "$JOBS"

# --- 8. chaos suite, called out by name -------------------------------------
# Already part of leg 3's full run; repeated under its label so a failure in
# the robustness machinery is unmissable in the gate output.
step "ctest -L chaos (fault injection + kill/resume matrix)"
ctest --test-dir "$BUILD_ROOT/main" -L chaos --output-on-failure -j "$JOBS"

# --- 9. ASan+UBSan over the full suite --------------------------------------
# TSan (leg 7) covers data races but is incompatible with ASan, so the
# memory/UB leg is a separate build tree. Probe first: some toolchains
# (minimal containers, odd cross setups) compile -fsanitize=address but
# cannot link the runtime, and a missing runtime should skip the leg with
# a notice, not fail the gate.
step "ASan+UBSan build + full ctest"
SAN_PROBE_DIR="$(mktemp -d "${TMPDIR:-/tmp}/ritcs-san-probe.XXXXXX")"
echo 'int main() { return 0; }' > "$SAN_PROBE_DIR/probe.cpp"
if c++ -fsanitize=address,undefined -o "$SAN_PROBE_DIR/probe" \
     "$SAN_PROBE_DIR/probe.cpp" > /dev/null 2>&1 \
   && "$SAN_PROBE_DIR/probe" > /dev/null 2>&1; then
  rm -rf "$SAN_PROBE_DIR"
  cmake -B "$BUILD_ROOT/asan" -S . -DRIT_WERROR=ON \
    -DRIT_SANITIZE=address,undefined
  cmake --build "$BUILD_ROOT/asan" -j "$JOBS"
  ctest --test-dir "$BUILD_ROOT/asan" --output-on-failure -j "$JOBS"
else
  rm -rf "$SAN_PROBE_DIR"
  echo "check.sh: toolchain cannot build+run -fsanitize=address,undefined" \
       "— leg skipped (install the compiler's sanitizer runtimes to enable)"
fi

# --- 10. supervisor smoke: SIGKILL a supervised sweep, resume, compare ------
# The process-isolation path end to end, outside any test harness: a
# supervised bench_scale run is SIGKILLed mid-sweep (taking its forked
# shard workers with it via PR_SET_PDEATHSIG), then resumed from the shard
# checkpoints. The deterministic CSV columns (users, tasks_per_type,
# success_rate) must byte-match an undisturbed reference; the runtime
# columns are wall clock and legitimately differ.
step "supervisor smoke (kill -9 a supervised sweep, resume, compare)"
SUP_TMP="$CHECK_TMP/supervisor"
mkdir -p "$SUP_TMP"
"$BUILD_ROOT/main/bench/bench_scale" \
  --trials=4 --scale=1000 --supervised --threads=2 \
  --out="$SUP_TMP/ref" --perf-counters=true \
  > "$SUP_TMP/ref.log"
"$BUILD_ROOT/main/bench/bench_scale" \
  --trials=4 --scale=1000 --supervised --threads=2 \
  --checkpoint="$SUP_TMP/sweep.ckpt" --checkpoint-every=1 \
  --out="$SUP_TMP/killed" --perf-counters=true \
  > "$SUP_TMP/killed.log" 2>&1 &
SUP_PID=$!
# Wait for a shard checkpoint to exist (a point is in flight), then kill
# the whole supervised run the hard way. If the run won the race and
# already finished, the kill is a no-op and the resume below is one too —
# the comparison holds either way.
for _ in $(seq 1 400); do
  [[ -e "$SUP_TMP/sweep.ckpt.shard0" ]] && break
  kill -0 "$SUP_PID" 2> /dev/null || break
  sleep 0.025
done
kill -9 "$SUP_PID" 2> /dev/null || true
wait "$SUP_PID" 2> /dev/null || true
"$BUILD_ROOT/main/bench/bench_scale" \
  --trials=4 --scale=1000 --supervised --threads=2 \
  --checkpoint="$SUP_TMP/sweep.ckpt" --checkpoint-every=1 --resume=true \
  --out="$SUP_TMP/resumed" --perf-counters=true \
  > "$SUP_TMP/resumed.log"
cut -d, -f1,2,7 "$SUP_TMP/ref/scale.csv" > "$SUP_TMP/ref.det"
cut -d, -f1,2,7 "$SUP_TMP/resumed/scale.csv" > "$SUP_TMP/resumed.det"
if ! cmp "$SUP_TMP/ref.det" "$SUP_TMP/resumed.det"; then
  echo "check.sh: resumed supervised sweep diverged from reference" >&2
  diff "$SUP_TMP/ref.det" "$SUP_TMP/resumed.det" >&2 || true
  exit 1
fi

# --- 11. fuzz smoke: differential fuzzer + planted-bug self-test -------------
# Already part of leg 3's full run (ctest -L fuzz); repeated by name, with
# a larger clean budget, so a decayed harness (a planted bug no longer
# caught, a nondeterministic corpus) is unmissable in the gate output.
# Budgets are iteration counts at pinned seeds — identical work on any
# machine, any load.
step "fuzz smoke (differential oracle + planted-bug self-test)"
FUZZ_TMP="$CHECK_TMP/fuzz"
mkdir -p "$FUZZ_TMP"
"$BUILD_ROOT/main/tools/ritcs-fuzz" --seed=42 --iterations=400 \
  --corpus-dir="$FUZZ_TMP/clean"
for bug in 1 2 3; do
  "$BUILD_ROOT/main/tools/ritcs-fuzz-bug$bug" --seed=7 --iterations=400 \
    --expect-failures=true --corpus-dir="$FUZZ_TMP/bug$bug"
done
"$BUILD_ROOT/main/tools/ritcs-fuzz" --determinism-check --seed=9 \
  --iterations=150 --corpus-dir="$FUZZ_TMP/determinism"
"$BUILD_ROOT/main/tools/ritcs-fuzz" \
  --repro="$ROOT/tests/golden/fuzz_repro_bug2.ritcase"
"$BUILD_ROOT/main/tools/ritcs-fuzz-bug2" --expect-repro=true \
  --repro="$ROOT/tests/golden/fuzz_repro_bug2.ritcase"

# --- 12. stream identity: pinned digest of a paper_sweep set-up instance ----
# The digest hashes the allocation and payments of one generated instance
# (graph, forest, population, mechanism run), so it moves whenever any
# layer's output or the random stream does. It is pinned for GCC builds;
# another compiler may contract floating point differently.
# tight_market runs at band ratio 1 (the whole sorted book can win), so its
# digest also gates the payment pass over a fully allocated market.
step "stream-identity smoke (paper_sweep + tight_market digests at seed 1, trace coverage)"
for pinned in paper_sweep:f9ec0e50bb7b9c8f tight_market:802c6025883f6e5d; do
  workload="${pinned%%:*}"
  digest="${pinned#*:}"
  STREAM_LOG="$CHECK_TMP/stream_identity_$workload.log"
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
    --trace 0 > "$STREAM_LOG"
  grep -q "^digest $workload seed 1: allocation+payment fnv1a $digest$" \
    "$STREAM_LOG" || {
    echo "check.sh: $workload digest changed:" >&2
    grep "^digest" "$STREAM_LOG" >&2 || true
    exit 1
  }
done
tools/trace_coverage.sh

# --- 13. pinned-seed bench CSVs: byte-identical at one worker and four ----
step "pinned-CSV smoke (fig6a + ablation_consensus + ablation_graph at --threads=1,4)"
tools/pinned_csvs.sh "$BUILD_ROOT/main/bench"

echo
echo "check.sh: OK"
