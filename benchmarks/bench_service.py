"""Benchmark: the query-service layer (shared stores).

Two questions, answered with numbers written to ``BENCH_service.json``:

1. **Repeated-pattern dedup** — on a Zipf-skewed repeated-pattern
   workload served through :class:`repro.service.QueryService` (with a
   multi-worker pool and manager-backed stores), the shared profile
   store must cut total classification calls to **at most one per
   distinct pattern per service lifetime**, verified by the stats
   endpoint's counter.  The report records the dedup ratio
   (queries per classification).
2. **Sustained throughput** — repeated batches through one service
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
from typing import Dict

from hostinfo import host
from repro.eval import ExecutorConfig
from repro.service import QueryService
from repro.workloads import scenario_by_name

DEDUP_SCENARIO = "mixed_vocabulary"
FULL_DEDUP_QUERIES = 400
QUICK_DEDUP_QUERIES = 120
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
    config = ExecutorConfig(workers=workers, chunk_size=8)
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
# 2. sustained throughput through one service
# ---------------------------------------------------------------------------

def run_throughput(batches: int, count: int, workers: int, scale: int) -> Dict:
    scenario = scenario_by_name(
        "mixed_vocabulary", count=count, seed=SEED + 2, scale=scale
    )
    config = ExecutorConfig(workers=workers, chunk_size=16)
    with QueryService(scenario.database, executor=config, batch_size=128) as service:
        start = time.perf_counter()
        total = 0
        for _ in range(batches):
            total += len(service.evaluate(scenario.queries))
        elapsed = time.perf_counter() - start
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

    throughput = run_throughput(
        throughput_batches, 80 if args.quick else 160, args.workers, scale
    )
    print(
        f"  throughput: {throughput['queries']} queries in "
        f"{throughput['seconds']}s ({throughput['queries_per_second']} q/s) "
        f"at scale {scale}"
    )

    report = {
        "benchmark": "service",
        "host": host(),
        "quick": args.quick,
        "workers": args.workers,
        "dedup": dedup,
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
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
