#!/usr/bin/env python3
"""Steadiness check: is each end-to-end metric steady enough for its bound?

Runs every workload (or those given) once per seed through run.py, first on
the tuning seeds, then on held-out seeds nobody tuned on. For each metric it
reports the median, the quartiles and the spread (q3 - q1) / median, and
compares the spread with the metric's bound in BENCHMARK.json. Across the
two seed sets it reports how far the held-out median moved, which must stay
within the bound in the metric's "worse" direction.

Usage, from the root of the repository:

    python3 perfbench/steady.py [--workloads tight_market,paper_sweep] [--runs 10]
        [--seed 1] [--held-out-seed 1001] [--no-held-out]

Exits 1 when a metric's spread exceeds its bound (setup_s excepted), a
held-out median is worse than the first by more than the bound, or a run
fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} failed the correctness gate")
    return result["metrics"]


def summarize(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_set(workload: str, seeds: range, seconds: int) -> dict:
    samples = {}
    for seed in seeds:
        metrics = run_once(workload, seed, seconds)
        print(f"  {workload} seed {seed}: " +
              ", ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items()),
              flush=True)
        for name, m in metrics.items():
            samples.setdefault(name, []).append(m["value"])
    return samples


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--held-out-seed", type=int, default=1001)
    parser.add_argument("--no-held-out", action="store_true")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        sets = [("tuning", range(args.seed, args.seed + args.runs))]
        if not args.no_held_out:
            sets.append(("held-out", range(args.held_out_seed,
                                           args.held_out_seed + args.runs)))
        medians = []
        for label, seeds in sets:
            print(f"{workload}: {label} seeds {seeds.start}..{seeds.stop - 1}",
                  flush=True)
            samples = run_set(workload, seeds, args.seconds)
            medians.append({})
            for name, values in samples.items():
                med, q1, q3, spread = summarize(values)
                medians[-1][name] = med
                bound = bounds[name]["bound"]
                verdict = "ok"
                if spread > bound and name != "setup_s":
                    verdict = "TOO WIDE"
                    ok = False
                elif spread > bound / 3:
                    verdict = "ok (above bound/3)"
                print(f"    {name:14s} median {med:12.6g}  q1 {q1:12.6g}  "
                      f"q3 {q3:12.6g}  spread {spread:7.4f}  bound "
                      f"{bound:5.3f}  {verdict}")
        if len(medians) == 2:
            print(f"{workload}: held-out median vs tuning median")
            for name, first in medians[0].items():
                second = medians[1][name]
                worse = (second - first) / first
                if bounds[name]["better"] == "higher":
                    worse = -worse
                verdict = "ok" if worse <= bounds[name]["bound"] else "WORSE"
                ok = ok and verdict == "ok"
                print(f"    {name:14s} {first:12.6g} -> {second:12.6g}  "
                      f"worse by {worse:+.4f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
