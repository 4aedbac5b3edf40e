#!/usr/bin/env python3
"""Record a baseline: every workload over several seeds, plus one traced run each.

    python3 perfbench/baseline.py [--seeds 101-110] [--out perfbench/baseline.json]

Runs `perfbench/run.py` once per (workload, seed) with the run length in
BENCHMARK.json, seed by seed and workload by workload within a seed, so
a slow spell of the host hits every workload alike; then once per
workload with `--trace 1` on its default seed. For each end-to-end
metric it records every value, the median, and the spread the
acceptance rule uses: the distance between the first and third
quartiles (`statistics.quantiles(values, n=4)`) as a share of the
median, next to the metric's bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: exit {out.returncode}, "
          f"{result['attempted']} campaigns, {result['failed']} failed", flush=True)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("101-110"))
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    runs = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            runs[name].append(one(name, seed, bench["run_seconds"], 0))
    workloads = {}
    for name in names:
        metrics = {}
        for m in bounds:
            values = [r["metrics"][m]["value"] for r in runs[name] if m in r["metrics"]]
            q = statistics.quantiles(values, n=4)
            metrics[m] = {
                "unit": run.E2E_UNITS[m],
                "median": statistics.median(values),
                "spread": (q[2] - q[0]) / q[1],
                "bound": bounds[m],
                "values": values,
            }
        traced = one(name, run.DEFAULT_SEEDS[name], bench["run_seconds"], 1)
        workloads[name] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs[name]) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "end_to_end": metrics,
            "per_layer": {
                "seed": run.DEFAULT_SEEDS[name],
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
    baseline = {
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "system": f"{platform.system()} {platform.machine()}",
        },
        "run_seconds": bench["run_seconds"],
        "workloads": workloads,
    }
    with open(args.out, "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    for name, w in workloads.items():
        for m, v in w["end_to_end"].items():
            print(f"{name:14} {m:14} median {v['median']:<12.6g} {v['unit']:4} "
                  f"spread {v['spread']:.3f} (bound {v['bound']})")


if __name__ == "__main__":
    main()
