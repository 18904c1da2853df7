"""Benchmark: the EVAL(Φ) execution service vs the sequential reference.

Two questions, answered with wall-clock numbers written to a
machine-readable ``BENCH_eval_service.json``:

1. **Correctness under parallelism** — on every workload scenario the
   chunked multi-process executor must return byte-identical
   ``(query, answer, solver)`` results to the sequential reference.
2. **Speedup** — the headline run evaluates a ≥500-query
   mixed-vocabulary batch sequentially and through the process pool;
   with ≥2 real cores the service should win by ≥2x, and on *every*
   scenario the service must at least break even.  The executor starts
   each batch in-process, times every query, and hands the rest to the
   pool only once the batch has spent the pool's start-up cost, a full
   chunk per worker remains, and the rest, extrapolated from the
   batch's own mean, finishes sooner on the pool after a new pool's
   start-up and the per-chunk overhead.  The report records each
   scenario's mode and the measured seconds behind it.

Run as a script for the full run, or with ``--quick`` for the CI smoke
run (same checks, smaller scales)::

    PYTHONPATH=src python benchmarks/bench_eval_service.py [--quick]

Both modes exit non-zero when any result differs from the sequential
reference, and when any scenario (or the headline) runs slower through
the service than sequentially: the never-lose gate applies to ``--quick``
too, on any CPU count, with no noise band.  The 2x headline speedup
assertion only applies to full (non-quick) runs on machines with at
least two CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Dict, List

from hostinfo import host
from repro.cq.evaluation import clear_profile_cache, evaluate_query_set_sequential
from repro.eval import EvalService, ExecutorConfig, clear_plan_cache
from repro.workloads import all_scenario_names, scenario_by_name

HEADLINE_SCENARIO = "mixed_vocabulary"
FULL_HEADLINE_QUERIES = 600
QUICK_HEADLINE_QUERIES = 120
FULL_SCENARIO_QUERIES = 60
QUICK_SCENARIO_QUERIES = 16
REQUIRED_SPEEDUP = 2.0
#: Every scenario must at least break even against the sequential
#: reference — the measured serial/parallel decision exists precisely so
#: the service never pays pool overhead it cannot recoup.
MIN_SPEEDUP = 1.0
SEED = 42


def triples(results) -> List[tuple]:
    return [(str(query), result.answer, result.solver) for query, result in results]


def default_workers() -> int:
    return max(2, min(4, os.cpu_count() or 1))


def run_scenario(name: str, count: int, workers: int, repeats: int = 3) -> Dict:
    """Time one scenario sequentially and through the service; verify identity.

    The service side runs unforced, so each batch starts in-process and
    moves to the pool only once the seconds it measured say the pool
    finishes the rest sooner (a batch of at most ``workers × chunk_size``
    queries, which the pool could never take, stays in-process
    untimed); the chosen mode and its reason are recorded in the report.

    Each repeat times one cold one-shot reference run (profile cache
    cleared first) against one evaluate() call on a *fresh* service, so
    the service never sees memoised answers for the batch — what it is
    allowed to exploit is what a single call exploits: worker fan-out,
    intra-batch result deduplication, and the module-level profile/plan
    caches any evaluation path shares.  Best of ``repeats`` on both sides.
    """
    scenario = scenario_by_name(name, count=count, seed=SEED)
    config = ExecutorConfig(workers=workers)
    sequential_seconds = float("inf")
    parallel_seconds = float("inf")
    mode = mode_reason = None
    for _ in range(repeats):
        clear_profile_cache()
        clear_plan_cache()
        start = time.perf_counter()
        sequential = evaluate_query_set_sequential(scenario.queries, scenario.database)
        sequential_seconds = min(sequential_seconds, time.perf_counter() - start)

        with EvalService(scenario.database, executor=config) as service:
            start = time.perf_counter()
            parallel = service.evaluate(scenario.queries)
            parallel_seconds = min(parallel_seconds, time.perf_counter() - start)
            mode = service.last_mode
            mode_reason = service.last_mode_reason

    identical = triples(sequential) == triples(parallel)
    return {
        "scenario": name,
        "queries": len(scenario.queries),
        "sequential_seconds": round(sequential_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(sequential_seconds / max(parallel_seconds, 1e-9), 3),
        "identical": identical,
        "mode": mode,
        "mode_reason": mode_reason,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller batches, no hard speedup requirement",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=default_workers(),
        help="worker processes for the parallel runs (default: min(4, cpus), at least 2)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_eval_service.json",
        help="where to write the machine-readable report",
    )
    args = parser.parse_args()

    scenario_queries = QUICK_SCENARIO_QUERIES if args.quick else FULL_SCENARIO_QUERIES
    headline_queries = QUICK_HEADLINE_QUERIES if args.quick else FULL_HEADLINE_QUERIES
    cpu_count = os.cpu_count() or 1

    print(f"EVAL(Φ) execution service benchmark ({cpu_count} CPUs, "
          f"{args.workers} workers, {'quick' if args.quick else 'full'} mode)")

    scenario_reports = []
    for name in all_scenario_names():
        count = scenario_queries
        report = run_scenario(name, count, args.workers)
        scenario_reports.append(report)
        flag = "ok " if report["identical"] else "MISMATCH"
        print(
            f"  {name:18s} {report['queries']:4d} queries  "
            f"seq {report['sequential_seconds']:7.2f}s  "
            f"svc {report['parallel_seconds']:7.2f}s  "
            f"x{report['speedup']:<6.2f} {report['mode']:10s} [{flag}]"
        )

    headline = run_scenario(HEADLINE_SCENARIO, headline_queries, args.workers)
    print(
        f"  headline ({HEADLINE_SCENARIO}, {headline['queries']} queries): "
        f"seq {headline['sequential_seconds']:.2f}s  "
        f"par {headline['parallel_seconds']:.2f}s  "
        f"speedup x{headline['speedup']:.2f}"
    )

    report = {
        "benchmark": "eval_service",
        "host": host(),
        "quick": args.quick,
        "workers": args.workers,
        "required_speedup": REQUIRED_SPEEDUP,
        "scenarios": scenario_reports,
        "headline": headline,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"  report written to {args.output}")

    if not all(r["identical"] for r in scenario_reports + [headline]):
        print("FAIL: parallel results differ from the sequential reference")
        return 1
    # The measured decision's contract: the service never loses to the
    # sequential reference, on any scenario.  A batch runs in-process
    # until the pool is worth it, so when fan-out cannot pay for itself
    # the service must have kept the whole batch in-process.
    losing = [
        r for r in scenario_reports + [headline] if r["speedup"] < MIN_SPEEDUP
    ]
    if losing:
        for entry in losing:
            print(
                f"FAIL: {entry['scenario']} ran x{entry['speedup']:.2f} "
                f"({entry['mode']}: {entry['mode_reason']}) — the service "
                f"must never lose to the sequential reference"
            )
        return 1
    if cpu_count < 2:
        print(
            f"NOTE: only {cpu_count} CPU visible — the executor ran every "
            f"batch in-process; no scenario lost to the sequential reference"
        )
        return 0
    if not args.quick and headline["speedup"] < REQUIRED_SPEEDUP:
        print(
            f"FAIL: headline speedup x{headline['speedup']:.2f} is below the "
            f"required x{REQUIRED_SPEEDUP:.1f}"
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
