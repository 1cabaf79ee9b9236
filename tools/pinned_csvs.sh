#!/usr/bin/env bash
# Pinned-seed output identity: the fig6a table (from bench_fig678a_users)
# and the ablation_consensus and ablation_graph sweeps have no timing
# columns, so at a fixed seed their CSVs are pure functions of the seed and
# must hash to the pinned values at one worker and at four. A refactor that moves a single output bit fails
# here. ablation_graph covers every graph kind's tree: Barabási–Albert's
# forest built during the draws, and the graph + BFS path of the others.
# Pinned for GCC builds (another compiler may contract floating point
# differently).
#
#   tools/pinned_csvs.sh [BENCH_DIR]   # default: build/bench
set -euo pipefail

BENCH_DIR="${1:-build/bench}"
FIG6A_SHA256=b78d7a83f8de7d632954346a4930bca40524f1552b5840f1c016c541a5bce881
CONSENSUS_SHA256=2a0149ce975af9673f535768dcd9d24603256f812f23d491f832d5d0c7e08e1d
GRAPH_SHA256=66fa6917e65249767a66ea935322f08cc0cdc617cd0bd2210411239e053caaf2

TMP="$(mktemp -d "${TMPDIR:-/tmp}/ritcs-pinned-csv.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT

status=0
# check <bench> <csv stem> <trials> <threads> <pinned sha256>
check() {
  local out="$TMP/$1.t$4"
  "$BENCH_DIR/$1" --scale=50 --trials="$3" --threads="$4" --out="$out" \
    > "$out.log" 2>&1
  local got
  got="$(sha256sum "$out/$2.csv" | cut -d' ' -f1)"
  if [[ "$got" != "$5" ]]; then
    echo "pinned_csvs: $1 --threads=$4 $2.csv sha256 $got, pinned $5" >&2
    status=1
  fi
}

for threads in 1 4; do
  check bench_fig678a_users fig6a_utility_vs_users 4 "$threads" \
    "$FIG6A_SHA256"
  check bench_ablation_consensus ablation_consensus 6 "$threads" \
    "$CONSENSUS_SHA256"
  check bench_ablation_graph ablation_graph 4 "$threads" "$GRAPH_SHA256"
done
[[ $status -eq 0 ]] && echo "pinned_csvs: fig6a, ablation_consensus and ablation_graph CSVs match at --threads=1,4"
exit $status
