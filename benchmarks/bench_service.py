"""Benchmark: the query-service layer (shared stores + calibration).

Three questions, answered with numbers written to ``BENCH_service.json``:

1. **Repeated-pattern dedup** — on a Zipf-skewed repeated-pattern
   workload served through :class:`repro.service.QueryService` (with a
   multi-worker pool and manager-backed stores), the shared profile
   store must cut total classification calls to **at most one per
   distinct pattern per service lifetime**, verified by the stats
   endpoint's counter.  The report records the dedup ratio
   (queries per classification).
2. **Calibrated vs hand-set planner** — per scenario, every distinct
   pattern's four solver routes are timed against the scenario database;
   a planner calibrated from those telemetry samples (and passed through
   the no-regression guard of :func:`repro.service.select_planner`) must
   **win or tie** the hand-set configuration on *every* scenario when
   both are priced against the same measured table.  The win-or-tie rate
   is gated at 100%.
3. **Sustained throughput** — repeated batches through one service
   (``--scale`` grows the databases into the thousands-of-rows regime);
   the report records queries/second, store hit rates, the executor's
   mode history and its measured cutover inputs.

Run as a script for the full run, or with ``--quick`` for the CI smoke
run (same gates, smaller scales)::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick] [--scale N]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Dict, List

from repro.classification import classify_structure
from repro.classification.degrees import ComplexityDegree
from repro.classification.solver_dispatch import (
    DEFAULT_PLANNER_CONFIG,
    solve_with_degree,
)
from repro.eval import DatabaseStatistics, ExecutorConfig, plan_query
from repro.service import (
    QueryService,
    RouteTimingCase,
    calibrate_planner,
    make_sample,
    routed_seconds,
    select_planner,
)
from repro.workloads import scenario_by_name

DEDUP_SCENARIO = "mixed_vocabulary"
FULL_DEDUP_QUERIES = 400
QUICK_DEDUP_QUERIES = 120
CALIBRATION_SCENARIOS_FULL = (
    "grid_walks",
    "acyclic_random",
    "stars_skewed",
    "long_paths",
    "mixed_vocabulary",
)
CALIBRATION_SCENARIOS_QUICK = ("grid_walks", "acyclic_random", "mixed_vocabulary")
FULL_CALIBRATION_QUERIES = 30
QUICK_CALIBRATION_QUERIES = 10
FULL_THROUGHPUT_BATCHES = 6
QUICK_THROUGHPUT_BATCHES = 3
SEED = 42


def default_workers() -> int:
    return max(2, min(4, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# 1. repeated-pattern dedup through the shared stores
# ---------------------------------------------------------------------------

def skewed_repeated_workload(count: int):
    """A workload whose patterns repeat Zipf-style across the batch.

    The base scenario's distinct queries are re-sampled with skewed
    multiplicity (rank r appears ∝ 1/r), mimicking production traffic
    where a few hot query shapes dominate — the case the shared stores
    exist for.
    """
    import random

    scenario = scenario_by_name(DEDUP_SCENARIO, count=max(20, count // 6), seed=SEED)
    rng = random.Random(SEED)
    pool = list(scenario.queries)
    weights = [1.0 / (rank + 1) for rank in range(len(pool))]
    queries = rng.choices(pool, weights=weights, k=count)
    return scenario, queries


def run_dedup(count: int, workers: int) -> Dict:
    scenario, queries = skewed_repeated_workload(count)
    distinct = len({query.canonical_structure() for query in queries})
    config = ExecutorConfig(workers=workers, chunk_size=8, min_parallel_batch=1)
    with QueryService(scenario.database, executor=config, batch_size=64) as service:
        start = time.perf_counter()
        # Force the pool so the dedup guarantee is demonstrated *across
        # workers*, not via a single context's private memo.
        results = service.evaluate(queries, mode="parallel")
        elapsed = time.perf_counter() - start
        stats = service.stats()
    classification_calls = stats["classification_calls"]
    return {
        "queries": len(queries),
        "distinct_patterns": distinct,
        "classification_calls": classification_calls,
        "dedup_ok": classification_calls <= distinct,
        "dedup_ratio": round(len(queries) / max(1, classification_calls), 2),
        "shared_stores": stats["shared_stores"],
        "store_counters": {
            key: value
            for key, value in (stats["stores"]["profiles"] or {}).items()
            if key != "l1"
        },
        "seconds": round(elapsed, 4),
        "answers": len(results),
    }


# ---------------------------------------------------------------------------
# 2. calibrated vs hand-set planner (guarded, win-or-tie gated)
# ---------------------------------------------------------------------------

def measured_cases(names, count: int):
    """Per scenario: measured seconds of all four routes per distinct pattern."""
    routes = list(ComplexityDegree)
    cases: Dict[str, List[RouteTimingCase]] = {}
    samples = []
    for name in names:
        scenario = scenario_by_name(name, count=count, seed=SEED)
        targets = {}
        multiplicity: Dict = {}
        order = []
        for query in scenario.queries:
            pattern = query.canonical_structure()
            key = (pattern, query.vocabulary())
            if key not in multiplicity:
                order.append((query, pattern))
            multiplicity[key] = multiplicity.get(key, 0) + 1
        entries = []
        for query, pattern in order:
            vocabulary = query.vocabulary()
            target = targets.setdefault(
                vocabulary, scenario.database.to_structure(vocabulary)
            )
            profile = classify_structure(pattern)
            stats = DatabaseStatistics.of(target)
            seconds = {}
            for degree in routes:
                solve_with_degree(pattern, target, degree, profile)  # warm-up
                start = time.perf_counter()
                solve_with_degree(pattern, target, degree, profile)
                seconds[degree] = time.perf_counter() - start
            weight = multiplicity[(pattern, vocabulary)]
            entries.append(RouteTimingCase(profile, stats, seconds, weight=weight))
            # Telemetry as the service would record it: the route the
            # hand-set planner actually takes, with its realised time.
            taken = plan_query(profile, stats, DEFAULT_PLANNER_CONFIG).degree
            samples.append(make_sample(taken, profile, stats, seconds[taken]))
        cases[name] = entries
    return cases, samples


def run_calibration(names, count: int) -> Dict:
    """Score the calibration pipeline on measured per-route timings.

    Two layers of numbers, deliberately separated so the gate is not
    vacuous:

    * ``fitted_*`` — the **pre-guard** least-squares config scored
      directly against the hand-set one.  This is the raw quality of
      the fit; it is reported (and printed) but not gated, because a
      noisy fit losing a scenario is precisely what the guard exists
      to absorb.
    * ``win_or_tie`` / ``all_win_or_tie`` — the **shipped** config (the
      guard's output), re-scored here *independently* of
      ``select_planner``'s internal verdicts.  This is the gated
      acceptance criterion: if the guard ever adopts a config that
      loses a scenario (a guard bug), this recomputation catches it.
    """
    cases, samples = measured_cases(names, count)
    fitted = calibrate_planner(samples, min_samples=1)
    chosen, _ = select_planner(fitted.planner, DEFAULT_PLANNER_CONFIG, cases)
    scenarios = {}
    wins = fitted_wins = 0
    for name, entries in cases.items():
        chosen_seconds = routed_seconds(entries, chosen)
        fitted_seconds = routed_seconds(entries, fitted.planner)
        hand_set_seconds = routed_seconds(entries, DEFAULT_PLANNER_CONFIG)
        win_or_tie = chosen_seconds <= hand_set_seconds * (1.0 + 1e-12)
        fitted_win_or_tie = fitted_seconds <= hand_set_seconds * (1.0 + 1e-12)
        wins += win_or_tie
        fitted_wins += fitted_win_or_tie
        scenarios[name] = {
            "calibrated_seconds": round(chosen_seconds, 5),
            "fitted_seconds": round(fitted_seconds, 5),
            "hand_set_seconds": round(hand_set_seconds, 5),
            "win_or_tie": win_or_tie,
            "fitted_win_or_tie": fitted_win_or_tie,
        }
    return {
        "samples": fitted.sample_count,
        "guard": "fitted" if chosen is fitted.planner else "fallback-hand-set",
        "per_route": fitted.per_route,
        "scenarios": scenarios,
        "win_or_tie_rate": round(wins / len(cases), 3),
        "all_win_or_tie": wins == len(cases),
        "fitted_win_or_tie_rate": round(fitted_wins / len(cases), 3),
    }


# ---------------------------------------------------------------------------
# 3. sustained throughput through one service
# ---------------------------------------------------------------------------

def run_throughput(batches: int, count: int, workers: int, scale: int) -> Dict:
    scenario = scenario_by_name(
        "mixed_vocabulary", count=count, seed=SEED + 2, scale=scale
    )
    config = ExecutorConfig(workers=workers, chunk_size=16, min_parallel_batch=8)
    with QueryService(scenario.database, executor=config, batch_size=128) as service:
        start = time.perf_counter()
        total = 0
        for _ in range(batches):
            total += len(service.evaluate(scenario.queries))
        elapsed = time.perf_counter() - start
        calibration = service.calibrate()
        stats = service.stats()
    profiles = stats["stores"]["profiles"] or {}
    answers = stats["stores"]["answers"] or {}
    return {
        "scale": scale,
        "batches": batches,
        "queries": total,
        "seconds": round(elapsed, 4),
        "queries_per_second": round(total / max(elapsed, 1e-9), 1),
        "modes": [entry["mode"] for entry in stats["mode_history"]],
        "cutover": stats["cutover"],
        "classification_calls": stats["classification_calls"],
        "profile_l1_hits": (profiles.get("l1") or {}).get("hits", 0),
        "answer_store_size": answers.get("size", 0),
        "calibration_source": calibration.source,
        "telemetry_samples": stats["stores"]["telemetry_samples"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode")
    parser.add_argument("--workers", type=int, default=default_workers())
    parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help="database scale for the throughput run (default: 4 full, 2 quick)",
    )
    parser.add_argument("--output", default="BENCH_service.json")
    args = parser.parse_args()

    dedup_queries = QUICK_DEDUP_QUERIES if args.quick else FULL_DEDUP_QUERIES
    calibration_names = (
        CALIBRATION_SCENARIOS_QUICK if args.quick else CALIBRATION_SCENARIOS_FULL
    )
    calibration_queries = (
        QUICK_CALIBRATION_QUERIES if args.quick else FULL_CALIBRATION_QUERIES
    )
    throughput_batches = (
        QUICK_THROUGHPUT_BATCHES if args.quick else FULL_THROUGHPUT_BATCHES
    )
    scale = args.scale if args.scale is not None else (2 if args.quick else 4)

    print(
        f"query-service benchmark ({os.cpu_count() or 1} CPUs, "
        f"{args.workers} workers, {'quick' if args.quick else 'full'} mode)"
    )

    dedup = run_dedup(dedup_queries, args.workers)
    print(
        f"  dedup: {dedup['queries']} queries, {dedup['distinct_patterns']} distinct "
        f"patterns, {dedup['classification_calls']} classification calls "
        f"(ratio {dedup['dedup_ratio']}x) "
        f"[{'ok' if dedup['dedup_ok'] else 'FAIL'}]"
    )

    calibration = run_calibration(calibration_names, calibration_queries)
    print(
        f"  calibration: {calibration['samples']} samples, guard={calibration['guard']}, "
        f"shipped win-or-tie {calibration['win_or_tie_rate']:.0%} "
        f"(pre-guard fit: {calibration['fitted_win_or_tie_rate']:.0%})"
    )
    for name, entry in calibration["scenarios"].items():
        print(
            f"    {name:18s} shipped {entry['calibrated_seconds']:8.4f}s  "
            f"fitted {entry['fitted_seconds']:8.4f}s  "
            f"hand-set {entry['hand_set_seconds']:8.4f}s  "
            f"[{'ok' if entry['win_or_tie'] else 'LOSS'}]"
        )

    throughput = run_throughput(
        throughput_batches, 80 if args.quick else 160, args.workers, scale
    )
    print(
        f"  throughput: {throughput['queries']} queries in "
        f"{throughput['seconds']}s ({throughput['queries_per_second']} q/s) "
        f"at scale {scale}; calibration {throughput['calibration_source']}"
    )

    report = {
        "benchmark": "service",
        "quick": args.quick,
        "cpu_count": os.cpu_count() or 1,
        "workers": args.workers,
        "dedup": dedup,
        "calibration": calibration,
        "throughput": throughput,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"  report written to {args.output}")

    failures = []
    if not dedup["dedup_ok"]:
        failures.append(
            f"dedup: {dedup['classification_calls']} classification calls for "
            f"{dedup['distinct_patterns']} distinct patterns"
        )
    if not calibration["all_win_or_tie"]:
        failures.append(
            f"calibration win-or-tie rate {calibration['win_or_tie_rate']:.0%} < 100%"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
