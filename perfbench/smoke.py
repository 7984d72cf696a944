#!/usr/bin/env python3
"""Tiny-size smoke test of the benchmark. Run from the repository root:

    python3 perfbench/smoke.py

For every workload, at `--size tiny` for one second, it checks that

* an untraced run passes the correctness gate and prints exactly the
  end-to-end metrics BENCHMARK.json names, with their units;
* a traced run prints exactly the per-layer metrics, with their units;
* a run told to corrupt one answer (`--corrupt`) is caught by the gate:
  `"correct": false` and a non-zero exit;

and that layer_map.json maps every per-layer metric to end-to-end metrics
and workloads that exist, and that the benchmark refuses to run (non-zero
exit, no result) from a directory holding only BENCHMARK.json and the
benchmark's own files. Exits non-zero on the first problem.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def fail(message):
    sys.exit(f"smoke: FAIL: {message}")


def run(workload, trace, *extra, cwd=None):
    args = [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(args, capture_output=True, text=True, timeout=600, cwd=cwd)


def result_of(out):
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail(f"no output; stderr:\n{out.stderr}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)}")
    return result


def check_metrics(result, wanted, what):
    got = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(got) != sorted(names):
        missing = sorted(set(names) - set(got))
        extra = sorted(set(got) - set(names))
        fail(f"{what}: missing {missing}, unexpected {extra}")
    for m in wanted:
        value = got[m["name"]]
        if value["unit"] != m["unit"]:
            fail(f"{what}: {m['name']} unit {value['unit']!r}, want {m['unit']!r}")
        if not isinstance(value["value"], (int, float)) or not math.isfinite(value["value"]):
            fail(f"{what}: {m['name']} value {value['value']!r}")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)["map"]
    workloads = [w["name"] for w in bench["workloads"]]
    e2e_names = {m["name"] for m in bench["end_to_end"]} | {"fail_ratio"}
    for m in bench["per_layer"]:
        entry = layer_map.get(m["name"])
        if entry is None:
            fail(f"layer_map.json has no entry for {m['name']}")
        if not set(entry["moves"]) <= e2e_names or not set(entry["on"]) <= set(workloads):
            fail(f"layer_map.json entry for {m['name']} names unknown metrics or workloads")

    for workload in workloads:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            what = f"{workload} trace={trace}"
            out = run(workload, trace)
            result = result_of(out)
            if out.returncode != 0 or not result["correct"]:
                fail(f"{what}: exit {out.returncode}, result {result}\n{out.stderr[-2000:]}")
            if result["attempted"] < 1:
                fail(f"{what}: nothing attempted")
            check_metrics(result, wanted, what)
            # Refusals are measurements, not smoke failures (see README,
            # "Known failure mode"); show them.
            failed = f", {result['failed']} failed" if result["failed"] else ""
            print(f"smoke: {what}: ok ({result['attempted']} operations{failed})", flush=True)
        out = run(workload, 0, "--corrupt")
        result = result_of(out)
        if result["correct"] or out.returncode == 0:
            fail(f"{workload}: the gate missed a corrupted answer")
        print(f"smoke: {workload} corrupted answer: caught", flush=True)

    # Only BENCHMARK.json and the benchmark's files: must refuse to run.
    bare = os.path.join(".bench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(path, os.path.join(bare, path))
        out = run(workloads[0], 0, cwd=bare)
        if out.returncode == 0 or out.stdout.strip():
            fail("ran without the repository's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: bare directory: refused", flush=True)
    print("smoke: all ok")


if __name__ == "__main__":
    main()
