"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py WORKLOAD [--seeds 1-10] [--seconds S] [--trace 0|1]

For each metric of the result line: the median of the runs and the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
``--all``, the same for every figure of the readable report too (the raw,
unscaled operation time among them).  Runs are sequential, each in a fresh
process.  The last line, ``summary {...}``, holds the same figures as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--all", action="store_true", help="also the report's figures")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values: dict[str, list] = {}
    report = None
    for seed in range(lo, hi + 1):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        wall = time.perf_counter() - t0
        lines = out.stdout.strip().splitlines()
        line = json.loads(lines[-1])
        report = json.loads(next(ln for ln in lines if ln.startswith("report "))[7:])
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']} wall={wall:.1f}s", flush=True)
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        if args.all:
            for name, v in report["figures"].items():
                values.setdefault("figures." + name, []).append(v)
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:<34} median {med:<12.6g} spread {spread:.4f}  "
              f"min {min(vals):.6g} max {max(vals):.6g}")
    print("summary " + json.dumps({
        "workload": args.workload, "seeds": args.seeds, "seconds": seconds,
        "trace": args.trace, "machine": report["machine"], "metrics": summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
