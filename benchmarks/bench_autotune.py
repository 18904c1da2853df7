"""Benchmark: the self-tuning loop on a mid-run workload shift.

The scenario (``load_shift``) serves a stream whose mix flips halfway —
cheap folded trees and short undirected paths first, long directed
paths and odd cycles after.  Two arms serve the *same* stream:

* **static** — the boot-time idiom: calibrate once from the pre-shift
  telemetry (``QueryService.calibrate``), freeze the planner, keep
  serving.  Whatever the first half taught it is all it ever knows.
* **auto** — ``autotune=AutoTuneConfig(...)``: the background loop
  watches residuals and the solve cadence, re-fits mid-stream, probes
  all four routes on the hottest live patterns, and hot-swaps guarded
  configs with no pool restart.

The gate prices both arms' **final planners** against the same measured
per-route timing table of the post-shift patterns
(:func:`repro.service.routed_seconds` — deterministic given the
measurements, same idiom as ``bench_service.py``): the auto arm must
**beat** the static arm on the mix the stream shifted to, and must
additionally never be worse (the no-regression guard's promise).
Results go to ``BENCH_autotune.json``::

    PYTHONPATH=src python benchmarks/bench_autotune.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Dict, List

from repro.classification import classify_structure
from repro.classification.degrees import ComplexityDegree
from repro.classification.solver_dispatch import solve_with_degree
from repro.eval import DatabaseStatistics, ExecutorConfig
from repro.service import (
    AutoTuneConfig,
    QueryService,
    RouteTimingCase,
    routed_seconds,
)
from repro.workloads import scenario_by_name

SEED = 42
FULL_QUERIES = 160
QUICK_QUERIES = 80
SERVE_BATCH = 16


def serve_in_batches(service: QueryService, queries) -> float:
    """Serve a stream batch by batch (so per-batch hooks fire), timed."""
    start = time.perf_counter()
    for offset in range(0, len(queries), SERVE_BATCH):
        service.evaluate(queries[offset : offset + SERVE_BATCH])
    return time.perf_counter() - start


def measured_cases(scenario, queries) -> List[RouteTimingCase]:
    """All four routes timed per distinct pattern, weighted by multiplicity."""
    multiplicity: Dict = {}
    order = []
    for query in queries:
        key = (query.canonical_structure(), query.vocabulary())
        if key not in multiplicity:
            order.append(query)
        multiplicity[key] = multiplicity.get(key, 0) + 1
    targets: Dict = {}
    cases = []
    for query in order:
        pattern = query.canonical_structure()
        vocabulary = query.vocabulary()
        target = targets.setdefault(
            vocabulary, scenario.database.to_structure(vocabulary)
        )
        profile = classify_structure(pattern)
        stats = DatabaseStatistics.of(target)
        seconds = {}
        for degree in ComplexityDegree:
            solve_with_degree(pattern, target, degree, profile)  # warm-up
            start = time.perf_counter()
            solve_with_degree(pattern, target, degree, profile)
            seconds[degree] = time.perf_counter() - start
        weight = multiplicity[(pattern, vocabulary)]
        cases.append(RouteTimingCase(profile, stats, seconds, weight=weight))
    return cases


def run_static_arm(scenario, first, second) -> Dict:
    """Calibrate on the pre-shift mix, freeze, serve the shifted tail."""
    with QueryService(
        scenario.database, executor=ExecutorConfig(workers=1)
    ) as service:
        first_seconds = serve_in_batches(service, first)
        result = service.calibrate(min_samples=1, apply=True)
        second_seconds = serve_in_batches(service, second)
        return {
            "planner": service.planner,
            "calibration_source": result.source,
            "planner_version": service.planner_version,
            "first_half_seconds": round(first_seconds, 4),
            "second_half_seconds": round(second_seconds, 4),
        }


def run_auto_arm(scenario, first, second) -> Dict:
    """Same stream, background recalibration armed."""
    tune = AutoTuneConfig(
        every_n_solves=2 * SERVE_BATCH,
        residual_threshold=3.0,
        min_residual_points=6,
        min_samples=8,
        cooldown_solves=SERVE_BATCH,
        probe_patterns=4,
    )
    with QueryService(
        scenario.database, executor=ExecutorConfig(workers=1), autotune=tune
    ) as service:
        first_seconds = serve_in_batches(service, first)
        second_seconds = serve_in_batches(service, second)
        info = service.autotuner.info()
        return {
            "planner": service.planner,
            "planner_version": service.planner_version,
            "attempts": info["attempts"],
            "adopted": info["adopted"],
            "rejected": info["rejected"],
            "triggers": [event["trigger"] for event in info["events"]],
            "first_half_seconds": round(first_seconds, 4),
            "second_half_seconds": round(second_seconds, 4),
        }


def run_load_shift(count: int) -> Dict:
    scenario = scenario_by_name("load_shift", count=count, seed=SEED)
    half = len(scenario.queries) // 2
    first, second = scenario.queries[:half], scenario.queries[half:]

    static = run_static_arm(scenario, first, second)
    auto = run_auto_arm(scenario, first, second)

    # The deterministic comparison: price both final planners against
    # the same measured four-route table of the *post-shift* patterns.
    cases = measured_cases(scenario, second)
    static_seconds = routed_seconds(cases, static.pop("planner"))
    auto_seconds = routed_seconds(cases, auto.pop("planner"))
    beats = auto_seconds < static_seconds
    never_worse = auto_seconds <= static_seconds * (1.0 + 1e-12)
    return {
        "queries": len(scenario.queries),
        "post_shift_patterns": len(cases),
        "static": static,
        "auto": auto,
        "post_shift_routed_seconds": {
            "static": round(static_seconds, 5),
            "auto": round(auto_seconds, 5),
        },
        "improvement": round(
            (static_seconds - auto_seconds) / max(static_seconds, 1e-12), 4
        ),
        "auto_beats_static": beats,
        "auto_never_worse": never_worse,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode")
    parser.add_argument("--output", default="BENCH_autotune.json")
    args = parser.parse_args()

    count = QUICK_QUERIES if args.quick else FULL_QUERIES
    print(
        f"autotune benchmark ({os.cpu_count() or 1} CPUs, "
        f"{'quick' if args.quick else 'full'} mode, {count} queries)"
    )

    shift = run_load_shift(count)
    priced = shift["post_shift_routed_seconds"]
    print(
        f"  load shift: static {priced['static']}s vs auto {priced['auto']}s "
        f"on the post-shift mix ({shift['improvement']:.1%} better) "
        f"[{'ok' if shift['auto_beats_static'] else 'FAIL'}]"
    )
    print(
        f"  auto arm: {shift['auto']['attempts']} recalibration attempts, "
        f"{shift['auto']['adopted']} adopted, {shift['auto']['rejected']} "
        f"rejected (triggers: {', '.join(shift['auto']['triggers']) or 'none'})"
    )

    report = {
        "benchmark": "autotune",
        "quick": args.quick,
        "cpu_count": os.cpu_count() or 1,
        "load_shift": shift,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"  report written to {args.output}")

    failures = []
    if not shift["auto_beats_static"]:
        failures.append(
            f"auto ({priced['auto']}s) does not beat static "
            f"({priced['static']}s) on the post-shift mix"
        )
    if not shift["auto_never_worse"]:
        failures.append("auto arm is worse than static — guard breach")
    if shift["auto"]["adopted"] < 1:
        failures.append("the autotuner never adopted a config")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
