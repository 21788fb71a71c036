#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 15 --out perfbench/baseline.json
    python3 perfbench/sweep.py --workloads eval --seeds 1-5 --trace 1

Run from the repository root.  Each run is its own process, one at a
time.  For every workload and metric it prints the median, the quartiles
and the spread (distance between the quartiles over the median), and
marks a spread above the metric's bound in BENCHMARK.json.  With --out,
the summary is written with the Python version and CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in cfg["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=cfg["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in cfg["end_to_end"]}
    summary = {"python": platform.python_version(), "nproc": os.cpu_count(),
               "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        if not runs:
            continue
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = first["unit"]
            metrics[name] = s
            bound = bounds.get(name)
            flag = "  SPREAD ABOVE BOUND" if bound is not None and s["spread"] > bound else ""
            print(f"  {name:34s} median {s['median']:14.6f} {s['unit']:6s} "
                  f"q1 {s['q1']:14.6f} q3 {s['q3']:14.6f} spread {s['spread']:.4f}{flag}")
            print("    " + " ".join(f"{v:.4g}" for v in s["values"]))
        summary["workloads"][workload] = {
            "runs": len(runs), "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs], "metrics": metrics}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
