#!/usr/bin/env python3
"""Run the benchmark on ten seeds per workload and print, for each end-to-end
metric, the interquartile range as a share of the median next to its bound.

This is the steadiness check a benchmark change must pass: every spread but
setup_s's within the bound, and ideally below a third of it.

usage: benchmark/spread.py [--runs 10] [--first-seed 1] [workload ...]
       (from the repository root; builds once through the command itself)
"""
import json
import statistics
import subprocess
import sys
import time

manifest = json.load(open("BENCHMARK.json"))
args = sys.argv[1:]
runs, first_seed = 10, 1
while args and args[0].startswith("--"):
    flag, value = args.pop(0), int(args.pop(0))
    if flag == "--runs":
        runs = value
    elif flag == "--first-seed":
        first_seed = value
    else:
        sys.exit(f"unknown flag {flag}")
workloads = args or [w["name"] for w in manifest["workloads"]]

worst = 0.0
for workload in workloads:
    values = {m["name"]: [] for m in manifest["end_to_end"]}
    for seed in range(first_seed, first_seed + runs):
        started = time.time()
        out = subprocess.run(
            manifest["command"]
            + ["--workload", workload, "--seed", str(seed)]
            + ["--seconds", str(manifest["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name, series in values.items():
            series.append(result["metrics"][name]["value"])
        print(f"# {workload} seed {seed}: {time.time() - started:.1f} s", file=sys.stderr)
    for m in manifest["end_to_end"]:
        series = values[m["name"]]
        q1, _, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        spread = (q3 - q1) / median
        share = spread / m["bound"]
        if m["name"] != "setup_s":
            worst = max(worst, share)
        print(f"{workload} {m['name']} median {median:.6g} spread {spread:.4f} "
              f"bound {m['bound']} ({share:.2f} of bound)  "
              + " ".join(f"{v:.4g}" for v in series))
print(f"worst spread (setup_s aside) is {worst:.2f} of its bound")
sys.exit(0 if worst <= 1.0 else 1)
