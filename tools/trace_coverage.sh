#!/usr/bin/env bash
# Trace-coverage gate: one traced paper_sweep run (seed 1) of the repo
# benchmark must attribute at least 98% of traced trial time to
# library spans ("library spans cover X% of traced trial time"). A hot
# path that runs outside every span makes the self-time table stop adding
# up, and this gate fails.
#
#   tools/trace_coverage.sh   # run from anywhere
set -euo pipefail

cd "$(dirname "$0")/.."
readonly MIN_PERCENT=98

LOG="$(mktemp "${TMPDIR:-/tmp}/ritcs-trace-coverage.XXXXXX")"
trap 'rm -f "$LOG"' EXIT

python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 1 \
  --trace 1 > "$LOG"
line="$(grep '^library spans cover ' "$LOG" || true)"
coverage="$(sed -n 's/^library spans cover \([0-9.]*\)% .*/\1/p' <<< "$line")"
if [[ -z "$coverage" ]]; then
  echo "trace_coverage: no coverage line in the traced run's report" >&2
  exit 1
fi
echo "trace_coverage: $line (gate: >= $MIN_PERCENT%)"
awk -v c="$coverage" -v min="$MIN_PERCENT" 'BEGIN { exit !(c + 0 >= min + 0) }' || {
  echo "trace_coverage: coverage $coverage% is below $MIN_PERCENT%" >&2
  exit 1
}
