"""Benchmark: the rigidity-certified core engine vs the seed ``core()``.

The seed computes cores by restarting a fresh backtracking search
``hom(A, A − {a})`` per element after every retraction — ROADMAP's
scaling wall (directed path ``P30`` ≈ 3 s, odd cycle ``C13`` ≈ 9 s just
to *confirm* core-ness).  The engine folds dominated elements, certifies
rigidity (degree / arc-consistency certificates), and otherwise runs one
non-surjective-endomorphism search.  This module quantifies the gap on
the acceptance pair (``P30``, ``C13``), on grids, and on random
graph/tree corpora, while checking that engine cores are isomorphic to
seed cores on every instance, and writes a machine-readable
``BENCH_core.json``.

Run as a script for the full demonstration (the seed needs ~20 s on the
acceptance pair — that slowness is the point)::

    PYTHONPATH=src:tests python benchmarks/bench_core.py

or with ``--quick`` for the CI smoke run (scaled-down instances, same
isomorphism checks and a softer speedup gate), or under pytest for the
fixture-based timings::

    PYTHONPATH=src python -m pytest benchmarks/bench_core.py
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, List, Tuple

import pytest

from hostinfo import host
from oracles.seeds import legacy_core
from repro.homomorphism.core_engine import compute_core
from repro.structures import are_isomorphic, grid
from repro.structures.builders import cycle, directed_path
from repro.structures.random_gen import random_graph_structure, random_tree_graph
from repro.structures.builders import graph_structure
from repro.structures.structure import Structure

#: Full mode: the ROADMAP scaling-wall pair plus structured/random spread.
FULL_HEADLINE = [("P30", lambda: directed_path(30)), ("C13", lambda: cycle(13))]
#: Quick mode keeps the same shapes at sizes the seed finishes in ~1 s.
QUICK_HEADLINE = [("P14", lambda: directed_path(14)), ("C9", lambda: cycle(9))]

REQUIRED_SPEEDUP = 5.0
QUICK_REQUIRED_SPEEDUP = 3.0
RANDOM_SEED = 20130625


def _timed(function, *args, repeats: int = 1):
    """Return ``(result, best_time)`` over ``repeats`` runs (min filters noise)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function(*args)
        best = min(best, time.perf_counter() - start)
    return result, best


def compare_core(name: str, structure: Structure) -> Dict:
    """Time seed vs engine on one structure; verify core isomorphism."""
    # The engine side finishes in microseconds to milliseconds, so a
    # single scheduler preemption could sink the ratio; best of three.
    # The seed side runs for (milli)seconds to seconds — one run is
    # representative.
    computation, engine_time = _timed(compute_core, structure, repeats=3)
    seed_core, seed_time = _timed(legacy_core, structure)
    isomorphic = are_isomorphic(computation.core, seed_core)
    speedup = seed_time / max(engine_time, 1e-9)
    return {
        "name": name,
        "elements": len(structure),
        "core_elements": len(computation.core),
        "certificate": computation.certificate,
        "folds": computation.folds,
        "searches": computation.searches,
        "seed_seconds": round(seed_time, 6),
        "engine_seconds": round(engine_time, 6),
        "speedup": round(speedup, 2),
        "isomorphic": isomorphic,
    }


def corpus(quick: bool) -> List[Tuple[str, Structure]]:
    """The structured + random corpus (headline instances excluded)."""
    instances: List[Tuple[str, Structure]] = [
        ("grid_3x4", grid(3, 4)),
        ("even_cycle_C10", cycle(10)),
    ]
    if not quick:
        instances.append(("grid_4x5", grid(4, 5)))
    count = 6 if quick else 12
    for i in range(count):
        instances.append(
            (
                f"random_graph_{i}",
                random_graph_structure(8 if quick else 9, 0.3, seed=RANDOM_SEED + i),
            )
        )
        instances.append(
            (
                f"random_tree_{i}",
                graph_structure(random_tree_graph(9 if quick else 12, seed=RANDOM_SEED + i)),
            )
        )
    return instances


def run(quick: bool, verbose: bool = False) -> Dict:
    headline_cases = QUICK_HEADLINE if quick else FULL_HEADLINE
    headline = []
    for name, build in headline_cases:
        report = compare_core(name, build())
        headline.append(report)
        if verbose:
            print(
                f"  {name:16s} seed {report['seed_seconds']:9.3f}s  "
                f"engine {report['engine_seconds']:9.6f}s  "
                f"x{report['speedup']:<10.1f} cert={report['certificate']} "
                f"[{'iso ok' if report['isomorphic'] else 'MISMATCH'}]"
            )
    corpus_reports = []
    for name, structure in corpus(quick):
        report = compare_core(name, structure)
        corpus_reports.append(report)
        if verbose:
            print(
                f"  {name:16s} seed {report['seed_seconds']:9.3f}s  "
                f"engine {report['engine_seconds']:9.6f}s  "
                f"x{report['speedup']:<10.1f} "
                f"[{'iso ok' if report['isomorphic'] else 'MISMATCH'}]"
            )
    return {
        "benchmark": "core_engine",
        "host": host(),
        "quick": quick,
        "required_speedup": QUICK_REQUIRED_SPEEDUP if quick else REQUIRED_SPEEDUP,
        "headline": headline,
        "corpus": corpus_reports,
    }


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

def test_engine_beats_seed_on_scaled_acceptance_pair():
    """The scaled-down acceptance pair: ≥ 3× over the seed, isomorphic cores."""
    for name, build in QUICK_HEADLINE:
        report = compare_core(name, build())
        assert report["isomorphic"], name
        assert report["speedup"] >= QUICK_REQUIRED_SPEEDUP, (
            f"{name}: speedup only {report['speedup']:.1f}x"
        )


def test_corpus_cores_isomorphic_to_seed():
    for name, structure in corpus(quick=True):
        report = compare_core(name, structure)
        assert report["isomorphic"], name


@pytest.mark.parametrize("size", [20, 40, 80])
def test_engine_core_scales_on_directed_paths(benchmark, size):
    structure = directed_path(size)
    computation = benchmark(compute_core, structure)
    assert len(computation.core) == size  # directed paths are rigid


# ---------------------------------------------------------------------------
# script entry point
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: P14/C9 instead of P30/C13 (the seed baseline "
        "restarts n searches per retraction — its super-linear growth is the point)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_core.json",
        help="where to write the machine-readable report",
    )
    args = parser.parse_args()

    print(f"core engine benchmark ({'quick' if args.quick else 'full'} mode)")
    report = run(args.quick, verbose=True)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"  report written to {args.output}")

    failures = [
        entry["name"]
        for entry in report["headline"] + report["corpus"]
        if not entry["isomorphic"]
    ]
    if failures:
        print(f"FAIL: engine core not isomorphic to seed core on {failures}")
        return 1
    required = report["required_speedup"]
    slow = [
        entry for entry in report["headline"] if entry["speedup"] < required
    ]
    if slow:
        for entry in slow:
            print(
                f"FAIL: {entry['name']} speedup x{entry['speedup']:.1f} below "
                f"the required x{required:.1f}"
            )
        return 1
    best = max(entry["speedup"] for entry in report["headline"])
    print(f"OK: all cores isomorphic; headline speedup up to x{best:.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
