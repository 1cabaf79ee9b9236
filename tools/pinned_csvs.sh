#!/usr/bin/env bash
# Pinned-seed output identity: the fig6a and ablation_consensus sweeps have
# no timing columns, so at a fixed seed their CSVs are pure functions of
# the seed and must hash to the pinned values at one worker and at four.
# A refactor that moves a single output bit fails here. Pinned for GCC
# builds (another compiler may contract floating point differently).
#
#   tools/pinned_csvs.sh [BENCH_DIR]   # default: build/bench
set -euo pipefail

BENCH_DIR="${1:-build/bench}"
FIG6A_SHA256=b78d7a83f8de7d632954346a4930bca40524f1552b5840f1c016c541a5bce881
CONSENSUS_SHA256=2a0149ce975af9673f535768dcd9d24603256f812f23d491f832d5d0c7e08e1d

TMP="$(mktemp -d "${TMPDIR:-/tmp}/ritcs-pinned-csv.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT

status=0
# check <bench> <trials> <threads> <pinned sha256>
check() {
  local out="$TMP/$1.t$3"
  "$BENCH_DIR/$1" --scale=50 --trials="$2" --threads="$3" --json=none \
    --csv="$out.csv" > "$out.log" 2>&1
  local got
  got="$(sha256sum "$out.csv" | cut -d' ' -f1)"
  if [[ "$got" != "$4" ]]; then
    echo "pinned_csvs: $1 --threads=$3 CSV sha256 $got, pinned $4" >&2
    status=1
  fi
}

for threads in 1 4; do
  check bench_fig6a_utility_vs_users 4 "$threads" "$FIG6A_SHA256"
  check bench_ablation_consensus 6 "$threads" "$CONSENSUS_SHA256"
done
[[ $status -eq 0 ]] && echo "pinned_csvs: fig6a and ablation_consensus CSVs match at --threads=1,4"
exit $status
