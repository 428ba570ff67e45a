"""Record the benchmark's references: bench/golden.json and bench/baseline.json.

First writes golden.json: the per-op output digests of one full-size round
of every workload on the seed-1 inputs, which every later run must
reproduce.  Then runs every workload untraced on seeds 1..N (end-to-end
medians and the quartile spread of each metric) and once traced on seed 1
(per-layer metrics), one run at a time, and writes the results with the
Python version, the CPU count, the input sizes and the failed checks.

Usage (from the repository root): python3 bench/record_baseline.py --runs 10
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("wide-year", "panel-history", "whatif-sweep")


def record_golden() -> None:
    run.import_program()
    work = run.WORK / f"golden-{os.getpid()}"
    try:
        golden = {name: dict(sorted(run.reference_round(name, work)[1].items()))
                  for name in WORKLOADS}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=BENCH.parent, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} did not complete:\n{done.stderr}")
    result = json.loads(lines[-1])
    inputs = next(line[len("inputs: "):] for line in lines if line.startswith("inputs: "))
    return result, inputs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", type=Path, default=BENCH / "baseline.json")
    args = parser.parse_args()
    record_golden()
    doc = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "seconds": args.seconds, "untraced_seeds": list(range(1, args.runs + 1)),
           "traced_seed": 1, "workloads": {}}
    for workload in WORKLOADS:
        values: dict = {}
        failed = []
        for seed in range(1, args.runs + 1):
            result, inputs = _run(workload, seed, args.seconds, 0)
            failed.append(f"{result['failed']}/{result['attempted']}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        end_to_end = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            end_to_end[name] = {"median": statistics.median(vals), "iqr_over_median":
                                (q3 - q1) / statistics.median(vals), "values": vals}
        traced, _ = _run(workload, 1, args.seconds, 1)
        doc["workloads"][workload] = {
            "inputs": inputs,
            "failed_per_seed": failed,
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, stat in end_to_end.items():
            print(f"  {workload} {name}: median {stat['median']:.6g}, "
                  f"IQR/median {stat['iqr_over_median']:.4f}", flush=True)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
