"""Benchmark: the branch-and-bound treedepth engine vs the seed solver.

The seed recursion (``tests/oracles/seeds.py``) is the reason the width facade
gave up on exactness beyond 12 vertices: its memo ranges over every
connected induced subgraph and every call rebuilds ``Graph`` objects, so
td(C13) was reported as the trivial DFS bound 13 and big rigid cores got
misrouted.  The engine (:mod:`repro.decomposition.treedepth_engine`)
replaces it with bitmask subgraphs, component splitting, dominance-pruned
branching, log-path/degeneracy lower bounds and greedy upper bounds.

This benchmark answers four questions and writes a machine-readable
``BENCH_treedepth.json``:

1. **Speedup** — on 13–15-element headline instances (odd cycles, grids,
   random graphs) the engine must beat ``legacy_exact_treedepth`` by ≥5x
   (≥3x in ``--quick`` CI mode on scaled-down instances).
2. **Agreement** — on a ≤12-element corpus (paths, cycles, cliques,
   trees, grids, random graphs) engine and seed values must be equal.
3. **Witnesses** — every engine run must return an elimination forest
   that ``EliminationForest.witnesses`` verifies, with height equal to
   the reported treedepth.
4. **End to end** — ``classify_structure(C13)`` must report core tree
   depth 5 (not the trivial 13), i.e. the engine is actually wired
   through the classification stack.

A scale section records engine-only timings at 16–25 elements (the seed
is hopeless there — that is the point of the engine).

Run as a script for the full demonstration::

    PYTHONPATH=src:tests python benchmarks/bench_treedepth.py

or with ``--quick`` for the CI smoke run, or under pytest for the
assertion-only entry points::

    PYTHONPATH=src python -m pytest benchmarks/bench_treedepth.py
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Callable, Dict, List, Tuple

from hostinfo import host
from oracles.seeds import legacy_exact_treedepth
from repro.classification.classifier import classify_structure
from repro.decomposition.treedepth_engine import compute_treedepth
from repro.graphlib.graph import Graph
from repro.structures.builders import (
    clique_graph,
    complete_binary_tree_graph,
    cycle,
    cycle_graph,
    graph_structure,
    grid_graph,
    path_graph,
)
from repro.structures.gaifman import gaifman_graph
from repro.structures.random_gen import random_graph_structure, random_tree_graph

REQUIRED_SPEEDUP = 5.0
QUICK_REQUIRED_SPEEDUP = 3.0
RANDOM_SEED = 20130625

#: Full mode: 13–15-element instances where the seed solver takes
#: 10–700 ms each (its connected-subgraph memo is the wall).
FULL_HEADLINE: List[Tuple[str, Callable[[], Graph]]] = [
    ("C13", lambda: cycle_graph(13)),
    ("C15", lambda: cycle_graph(15)),
    ("P14", lambda: path_graph(14)),
    ("grid_3x5", lambda: grid_graph(3, 5)),
    ("random_13", lambda: gaifman_graph(random_graph_structure(13, 0.3, seed=7))),
    ("random_15", lambda: gaifman_graph(random_graph_structure(15, 0.3, seed=10))),
]
#: Quick mode keeps the same shapes where the seed stays around ~100 ms.
QUICK_HEADLINE: List[Tuple[str, Callable[[], Graph]]] = [
    ("C13", lambda: cycle_graph(13)),
    ("grid_3x4", lambda: grid_graph(3, 4)),
    ("random_13", lambda: gaifman_graph(random_graph_structure(13, 0.3, seed=7))),
]

#: Engine-only scale instances (16–25 elements).
SCALE_INSTANCES: List[Tuple[str, Callable[[], Graph]]] = [
    ("C25", lambda: cycle_graph(25)),
    ("P25", lambda: path_graph(25)),
    ("K16", lambda: clique_graph(16)),
    ("binary_tree_15", lambda: complete_binary_tree_graph(3)),
    ("grid_4x5", lambda: grid_graph(4, 5)),
    ("grid_3x8", lambda: grid_graph(3, 8)),
    ("random_18", lambda: gaifman_graph(random_graph_structure(18, 0.25, seed=3))),
    ("random_20", lambda: gaifman_graph(random_graph_structure(20, 0.25, seed=3))),
    ("random_tree_25", lambda: gaifman_graph(graph_structure(random_tree_graph(25, seed=5)))),
]
QUICK_SCALE_NAMES = {"C25", "P25", "binary_tree_15", "random_18", "random_tree_25"}


def _timed(function, *args, repeats: int = 1):
    """Return ``(result, best_time)`` over ``repeats`` runs (min filters noise)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function(*args)
        best = min(best, time.perf_counter() - start)
    return result, best


def compare_treedepth(name: str, graph: Graph) -> Dict:
    """Time seed vs engine on one graph; verify value agreement + witness."""
    # The engine side finishes in micro- to milliseconds, so best of three
    # filters scheduler noise; the seed side runs long enough that one run
    # is representative.
    result, engine_time = _timed(compute_treedepth, graph, repeats=3)
    seed_value, seed_time = _timed(legacy_exact_treedepth, graph)
    return {
        "name": name,
        "vertices": len(graph),
        "treedepth": result.value,
        "seed_treedepth": seed_value,
        "agree": result.value == seed_value,
        "witness_ok": result.forest.witnesses(graph)
        and result.forest.height() == result.value,
        "subproblems": result.subproblems,
        "branched": result.branched,
        "seed_seconds": round(seed_time, 6),
        "engine_seconds": round(engine_time, 6),
        "speedup": round(seed_time / max(engine_time, 1e-9), 2),
    }


def engine_only(name: str, graph: Graph) -> Dict:
    """Engine timing + witness check on an instance the seed cannot reach."""
    result, engine_time = _timed(compute_treedepth, graph)
    return {
        "name": name,
        "vertices": len(graph),
        "treedepth": result.value,
        "witness_ok": result.forest.witnesses(graph)
        and result.forest.height() == result.value,
        "subproblems": result.subproblems,
        "branched": result.branched,
        "engine_seconds": round(engine_time, 6),
    }


def small_corpus(quick: bool) -> List[Tuple[str, Graph]]:
    """The ≤12-element agreement corpus."""
    instances: List[Tuple[str, Graph]] = [
        ("P8", path_graph(8)),
        ("C9", cycle_graph(9)),
        ("C12", cycle_graph(12)),
        ("K6", clique_graph(6)),
        ("binary_tree_7", complete_binary_tree_graph(2)),
        ("grid_3x4", grid_graph(3, 4)),
    ]
    count = 6 if quick else 14
    for i in range(count):
        instances.append(
            (
                f"random_graph_{i}",
                gaifman_graph(
                    random_graph_structure(
                        6 + (i % 7), 0.2 + 0.05 * (i % 5), seed=RANDOM_SEED + i
                    )
                ),
            )
        )
        instances.append(
            (
                f"random_tree_{i}",
                gaifman_graph(graph_structure(random_tree_graph(12, seed=RANDOM_SEED + i))),
            )
        )
    return instances


def classification_check() -> Dict:
    """td(C13) must reach classify_structure exactly (the acceptance case)."""
    profile = classify_structure(cycle(13))
    return {
        "structure": "C13",
        "core_treedepth": profile.core_treedepth,
        "expected": 5,
        "ok": profile.core_treedepth == 5,
        "witness_ok": profile.core_elimination_forest is not None
        and profile.core_elimination_forest.height() == profile.core_treedepth,
    }


def run(quick: bool, verbose: bool = False) -> Dict:
    headline_cases = QUICK_HEADLINE if quick else FULL_HEADLINE
    headline = []
    for name, build in headline_cases:
        report = compare_treedepth(name, build())
        headline.append(report)
        if verbose:
            print(
                f"  {name:16s} n={report['vertices']:3d} td={report['treedepth']:2d}  "
                f"seed {report['seed_seconds']:9.4f}s  "
                f"engine {report['engine_seconds']:9.6f}s  "
                f"x{report['speedup']:<9.1f}"
                f"[{'ok' if report['agree'] and report['witness_ok'] else 'FAIL'}]"
            )
    corpus_reports = []
    for name, graph in small_corpus(quick):
        report = compare_treedepth(name, graph)
        corpus_reports.append(report)
        if verbose and (not report["agree"] or not report["witness_ok"]):
            print(f"  {name}: MISMATCH {report}")
    scale_reports = []
    for name, build in SCALE_INSTANCES:
        if quick and name not in QUICK_SCALE_NAMES:
            continue
        report = engine_only(name, build())
        scale_reports.append(report)
        if verbose:
            print(
                f"  {name:16s} n={report['vertices']:3d} td={report['treedepth']:2d}  "
                f"engine {report['engine_seconds']:9.4f}s  "
                f"({report['subproblems']} subproblems)  "
                f"[{'ok' if report['witness_ok'] else 'FAIL'}]"
            )
    return {
        "benchmark": "treedepth_engine",
        "host": host(),
        "quick": quick,
        "required_speedup": QUICK_REQUIRED_SPEEDUP if quick else REQUIRED_SPEEDUP,
        "headline": headline,
        "corpus": corpus_reports,
        "scale": scale_reports,
        "classification": classification_check(),
    }


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

def test_engine_beats_seed_on_quick_headline():
    for name, build in QUICK_HEADLINE:
        report = compare_treedepth(name, build())
        assert report["agree"] and report["witness_ok"], name
        assert report["speedup"] >= QUICK_REQUIRED_SPEEDUP, (
            f"{name}: speedup only {report['speedup']:.1f}x"
        )


def test_corpus_agrees_with_seed():
    for name, graph in small_corpus(quick=True):
        report = compare_treedepth(name, graph)
        assert report["agree"], name
        assert report["witness_ok"], name


def test_c13_classifies_with_exact_depth():
    assert classification_check()["ok"]


# ---------------------------------------------------------------------------
# script entry point
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller headline/corpus/scale and a softer "
        "speedup gate (the seed's super-exponential growth is the point)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_treedepth.json",
        help="where to write the machine-readable report",
    )
    args = parser.parse_args()

    print(f"treedepth engine benchmark ({'quick' if args.quick else 'full'} mode)")
    report = run(args.quick, verbose=True)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"  report written to {args.output}")

    failures = [
        entry["name"]
        for entry in report["headline"] + report["corpus"]
        if not entry["agree"]
    ]
    if failures:
        print(f"FAIL: engine disagrees with the seed solver on {failures}")
        return 1
    bad_witness = [
        entry["name"]
        for entry in report["headline"] + report["corpus"] + report["scale"]
        if not entry["witness_ok"]
    ]
    if bad_witness:
        print(f"FAIL: elimination forest witness invalid on {bad_witness}")
        return 1
    if not report["classification"]["ok"]:
        print(
            f"FAIL: classify_structure(C13) reports core treedepth "
            f"{report['classification']['core_treedepth']}, expected 5"
        )
        return 1
    required = report["required_speedup"]
    slow = [entry for entry in report["headline"] if entry["speedup"] < required]
    if slow:
        for entry in slow:
            print(
                f"FAIL: {entry['name']} speedup x{entry['speedup']:.1f} below "
                f"the required x{required:.1f}"
            )
        return 1
    best = max(entry["speedup"] for entry in report["headline"])
    print(
        f"OK: values agree, witnesses verify, td(C13)=5 end to end; "
        f"headline speedup up to x{best:.0f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
