#!/usr/bin/env python3
"""Check the benchmark's run-to-run spread on one workload.

Run from the repository root:

    python3 perfbench/spread.py --workload fresh-anticorr --runs 10

Runs `run.py` once per seed (1..runs), then prints, for every end-to-end
metric in BENCHMARK.json, the median, the interquartile range as a share
of the median (`statistics.quantiles(values, n=4)`), the metric's bound
and whether the spread stays below a third of it; each run's failed
operations are listed. Exits non-zero if a run does not finish, gives a
wrong answer, or any spread (setup_s excepted) exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit(f"seed {seed}: exit {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: wrong answer")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
    worst_ok = True
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        vals = values[name]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = spread <= bound or name == "setup_s"
        worst_ok &= ok
        flag = "steady" if spread < bound / 3 else ("ok" if ok else "TOO WIDE")
        print(f"{name:>16} median {med:12.4f}  spread {spread:7.3f}  bound {bound:5.2f}  {flag}")
    sys.exit(0 if worst_ok else 1)


if __name__ == "__main__":
    main()
