"""Run-to-run spread of a workload's metrics over several seeds.

    python3 perfbench/spread.py [--workload NAME[,NAME...]] [--seeds 1-10] [--seconds S] [--trace 0|1]

Runs ``perfbench/run.py`` once per seed and workload, one after another
(every workload of ``BENCHMARK.json`` by default), and prints per metric
the median, the quartiles (``statistics.quantiles(values, n=4)``), the
spread ``(q3 - q1) / median`` and, for end-to-end metrics, the bound from
``BENCHMARK.json``.  A spread at or under a third of its bound is marked
``ok``.  Each table is also written to
``perfbench/out/spread-NAME-traceT.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += list(range(int(low), int(high or low) + 1))
    return seeds


def spread_table(samples: Dict[str, List[float]], bounds: Dict[str, float]) -> Dict[str, Dict]:
    table = {}
    for name, values in samples.items():
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        table[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": spread,
            "bound": bound,
            "ok": None if bound is None else spread <= bound / 3,
        }
    return table


def measure(workload: str, seeds: List[int], seconds: float, trace: int, bounds: Dict[str, float]) -> bool:
    samples: Dict[str, List[float]] = {}
    for seed in seeds:
        completed = subprocess.run(
            [
                sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ],
            cwd=ROOT, capture_output=True, text=True,
        )
        if completed.returncode != 0:
            print(completed.stderr, file=sys.stderr)
            return False
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"{workload} seed {seed}: incorrect answers", file=sys.stderr)
            return False
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
            if name in bounds or trace
        ), flush=True)
    table = spread_table(samples, bounds)
    for name, row in table.items():
        bound = "" if row["bound"] is None else f"  bound {row['bound']:.3f}  {'ok' if row['ok'] else 'WIDE'}"
        print(f"{workload:15s} {name:32s} median {row['median']:12.5g}  spread {row['spread']:7.2%}{bound}", flush=True)
    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
    path = os.path.join(ROOT, "perfbench", "out", f"spread-{workload}-trace{trace}.json")
    with open(path, "w") as handle:
        json.dump({"seeds": seeds, "seconds": seconds, "metrics": table}, handle, indent=1)
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="comma-separated; default every workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    names = args.workload.split(",") if args.workload else [w["name"] for w in benchmark["workloads"]]
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    return 0 if all(measure(name, seeds, seconds, args.trace, bounds) for name in names) else 1


if __name__ == "__main__":
    raise SystemExit(main())
