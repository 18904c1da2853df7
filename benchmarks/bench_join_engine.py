"""Benchmark: the semiring join engine vs the seed decomposition DP.

Both are test oracles (``tests/oracles/``), kept with the tests as the
references the forest engine is checked against.  The seed
implementation of Lemma 3.4 enumerates every ``|B|^|bag|``
candidate assignment per bag; the join engine extends partial maps through
per-relation hash indexes.  This module quantifies the gap on the
acceptance scenario — a 4-clique query counted against a 50-element random
database — and on a spread of pattern shapes.

Run as a script for the full demonstration (the legacy DP needs a minute
or two on the 50-element database — that slowness is the point)::

    PYTHONPATH=src:tests python benchmarks/bench_join_engine.py

or with ``--quick`` for the CI smoke run (a scaled-down instance with the
same ≥ 5× assertion), or under pytest for the fixture-based timings::

    PYTHONPATH=src python -m pytest benchmarks/bench_join_engine.py
"""

from __future__ import annotations

import argparse
import time

import pytest

from oracles.decomposition_solver import legacy_count_homomorphisms_td
from oracles.join_engine import (
    COUNTING,
    count_homomorphisms_join,
    run_decomposition_dp,
)
from repro.decomposition.width import good_tree_decomposition
from repro.homomorphism.backtracking import count_homomorphisms
from repro.structures import clique, cycle, path, random_graph_structure

#: The acceptance scenario: 4-clique query, 50-element random database.
FULL_CLIQUE_SIZE = 4
FULL_TARGET_SIZE = 50
#: The smoke scenario keeps the same shape at a size the legacy DP can
#: finish in about a second.
QUICK_TARGET_SIZE = 18
EDGE_PROBABILITY = 0.3
SEED = 7
REQUIRED_SPEEDUP = 5.0


def _timed(function, *args, repeats: int = 1):
    """Return ``(result, best_time)`` over ``repeats`` runs (min filters noise)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function(*args)
        best = min(best, time.perf_counter() - start)
    return result, best


def compare_on_clique(target_size: int, verbose: bool = False):
    """Time legacy DP vs join engine on a 4-clique query; return (speedup, count)."""
    pattern = clique(FULL_CLIQUE_SIZE)
    target = random_graph_structure(target_size, EDGE_PROBABILITY, SEED)
    decomposition = good_tree_decomposition(pattern)
    # The engine's window is milliseconds, so a single scheduler preemption
    # could sink the measured ratio; take the best of three.  The legacy
    # side runs for seconds to minutes — one run is representative.
    engine_count, engine_time = _timed(
        run_decomposition_dp, pattern, target, decomposition, COUNTING, repeats=3
    )
    legacy_count, legacy_time = _timed(
        legacy_count_homomorphisms_td, pattern, target, decomposition
    )
    assert legacy_count == engine_count, (legacy_count, engine_count)
    speedup = legacy_time / max(engine_time, 1e-9)
    if verbose:
        print(
            f"K{FULL_CLIQUE_SIZE} query vs {target_size}-element random database "
            f"(p={EDGE_PROBABILITY}): count={engine_count}"
        )
        print(f"  seed decomposition DP : {legacy_time:8.3f} s")
        print(f"  semiring join engine  : {engine_time:8.3f} s")
        print(f"  speedup               : {speedup:8.1f}x")
    return speedup, engine_count


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

def test_join_engine_beats_legacy_dp_by_5x():
    """The scaled-down acceptance scenario: ≥ 5× over the seed DP."""
    speedup, count = compare_on_clique(QUICK_TARGET_SIZE)
    assert count >= 0
    assert speedup >= REQUIRED_SPEEDUP, f"speedup only {speedup:.1f}x"


@pytest.mark.parametrize("size", [20, 30, 40])
def test_engine_counting_scales(benchmark, size):
    pattern = clique(FULL_CLIQUE_SIZE)
    target = random_graph_structure(size, EDGE_PROBABILITY, SEED)
    decomposition = good_tree_decomposition(pattern)
    count = benchmark(run_decomposition_dp, pattern, target, decomposition, COUNTING)
    assert count >= 0


@pytest.mark.parametrize(
    "pattern_name", sorted(["cycle6", "path8", "clique3"])
)
def test_engine_on_varied_patterns(benchmark, pattern_name):
    pattern = {"cycle6": cycle(6), "path8": path(8), "clique3": clique(3)}[pattern_name]
    target = random_graph_structure(25, 0.4, SEED)
    count = benchmark(count_homomorphisms_join, pattern, target)
    # Brute-force cross-checking is infeasible at this scale (hundreds of
    # millions of homomorphisms); correctness is the equivalence harness's
    # job.  Spot-check against the brute force on a small target instead.
    assert count > 0
    small_target = random_graph_structure(6, 0.4, SEED)
    assert count_homomorphisms_join(pattern, small_target) == count_homomorphisms(
        pattern, small_target
    )


# ---------------------------------------------------------------------------
# script entry point
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"smoke mode: {QUICK_TARGET_SIZE}-element database instead of "
        f"{FULL_TARGET_SIZE} (the legacy baseline is quartic in the database size)",
    )
    args = parser.parse_args()
    target_size = QUICK_TARGET_SIZE if args.quick else FULL_TARGET_SIZE
    speedup, _ = compare_on_clique(target_size, verbose=True)
    if speedup < REQUIRED_SPEEDUP:
        print(f"FAIL: required {REQUIRED_SPEEDUP}x, measured {speedup:.1f}x")
        return 1
    print(f"OK: join engine is {speedup:.1f}x faster (required: {REQUIRED_SPEEDUP}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
