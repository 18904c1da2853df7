"""Benchmark: the treewidth/pathwidth branch-and-bound engines vs the seed DPs.

The seed subset DPs (`legacy_exact_treewidth` / `legacy_exact_pathwidth`,
kept with the tests in ``tests/oracles/seeds.py``) are why the width facade stopped being exact at 12 vertices: their memo
ranges over all 2^n vertex subsets with per-state graph traversals, so the
13–25-element cores the treedepth engine opened up were still routed on
min-fill/BFS upper bounds.  The engines
(:mod:`repro.decomposition.width_engine`) replace them with bitmask
subgraphs, component splitting, fill-graph/boundary canonical memo keys,
contraction-degeneracy lower bounds and min-fill/greedy upper seeds.

This benchmark answers four questions and writes a machine-readable
``BENCH_width.json``:

1. **Speedup** — on 13–15-element headline instances both engines must
   beat their seed DP by ≥5x (≥3x in ``--quick`` CI mode on scaled-down
   instances).
2. **Agreement** — on a ≤12-element corpus (paths, cycles, cliques,
   trees, grids, random graphs) engine and seed values must be equal for
   both measures.
3. **Witnesses** — every engine run must return a decomposition that
   validates against the original graph and achieves the reported width.
4. **Route flip, end to end** — a rigid 14-element core whose true
   pathwidth (2) sits below the PATH threshold while its BFS bound (4)
   sits above: the exact profile flips the planner route from
   TREE_COMPLETE to PATH_COMPLETE.  Both routes now run the memoised
   forest engine on one min-fill tree, so the flipped route is timed
   against the machinery the heuristic TREE route ran before that engine:
   the join engine's DP over ``good_tree_decomposition`` (now the test
   oracle ``tests/oracles/join_engine.py``).  Answers must
   agree, and at least one flip scenario must *win* on wall time.

A scale section records engine-only timings at 16–25 elements (the seeds
are hopeless there — that is the point of the engines).

Run as a script for the full demonstration::

    PYTHONPATH=src:tests python benchmarks/bench_width_engines.py

or with ``--quick`` for the CI smoke run, or under pytest for the
assertion-only entry points::

    PYTHONPATH=src python -m pytest benchmarks/bench_width_engines.py
"""

from __future__ import annotations

import argparse
import json
import random
import time
from itertools import combinations
from typing import Callable, Dict, List, Tuple

from hostinfo import host
from oracles.join_engine import BOOLEAN, run_decomposition_dp
from oracles.seeds import legacy_exact_pathwidth, legacy_exact_treewidth
from repro.classification.classifier import StructureProfile, classify_structure
from repro.classification.solver_dispatch import choose_degree, solve_with_degree
from repro.decomposition.width import good_tree_decomposition, width_profile_report
from repro.decomposition.width_engine import compute_pathwidth, compute_treewidth
from repro.graphlib.graph import Graph
from repro.structures.builders import (
    clique_graph,
    complete_binary_tree_graph,
    cycle_graph,
    graph_structure,
    grid_graph,
    path_graph,
)
from repro.structures.gaifman import gaifman_graph
from repro.structures.random_gen import random_graph_structure, random_tree_graph
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

REQUIRED_SPEEDUP = 5.0
QUICK_REQUIRED_SPEEDUP = 3.0
RANDOM_SEED = 20130625

#: Full mode: 13–15-element instances where each seed DP takes 0.1–2 s
#: (its 2^n-subset memo is the wall).
FULL_HEADLINE: List[Tuple[str, Callable[[], Graph]]] = [
    ("C13", lambda: cycle_graph(13)),
    ("C15", lambda: cycle_graph(15)),
    ("P14", lambda: path_graph(14)),
    ("grid_3x5", lambda: grid_graph(3, 5)),
    ("random_13", lambda: gaifman_graph(random_graph_structure(13, 0.3, seed=7))),
    ("random_14", lambda: gaifman_graph(random_graph_structure(14, 0.25, seed=5))),
    ("random_15", lambda: gaifman_graph(random_graph_structure(15, 0.2, seed=10))),
]
#: Quick mode keeps the same shapes where the seeds stay around ~100 ms.
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
    ("grid_5x5", lambda: grid_graph(5, 5)),
    ("random_16", lambda: gaifman_graph(random_graph_structure(16, 0.2, seed=10))),
    ("random_18", lambda: gaifman_graph(random_graph_structure(18, 0.15, seed=3))),
    ("random_tree_25", lambda: gaifman_graph(graph_structure(random_tree_graph(25, seed=5)))),
]
QUICK_SCALE_NAMES = {"C25", "P25", "binary_tree_15", "grid_5x5", "random_tree_25"}


def _timed(function, *args, repeats: int = 1):
    """Return ``(result, best_time)`` over ``repeats`` runs (min filters noise)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function(*args)
        best = min(best, time.perf_counter() - start)
    return result, best


def _tree_witness_ok(graph: Graph, result) -> bool:
    try:
        result.decomposition.validate(graph)
    except Exception:
        return False
    return result.decomposition.width() == result.value


def _path_witness_ok(graph: Graph, result) -> bool:
    try:
        result.decomposition.validate(graph)
    except Exception:
        return False
    return result.decomposition.width() == result.value


def compare_widths(name: str, graph: Graph) -> Dict:
    """Time seeds vs engines on one graph; verify agreement + witnesses."""
    # The engine side finishes in micro- to milliseconds, so best of three
    # filters scheduler noise; the seed side runs long enough that one run
    # is representative.
    tw_result, tw_engine_time = _timed(compute_treewidth, graph, repeats=3)
    tw_seed, tw_seed_time = _timed(legacy_exact_treewidth, graph)
    pw_result, pw_engine_time = _timed(compute_pathwidth, graph, repeats=3)
    pw_seed, pw_seed_time = _timed(legacy_exact_pathwidth, graph)
    return {
        "name": name,
        "vertices": len(graph),
        "treewidth": tw_result.value,
        "pathwidth": pw_result.value,
        "agree": tw_result.value == tw_seed and pw_result.value == pw_seed,
        "witness_ok": _tree_witness_ok(graph, tw_result)
        and _path_witness_ok(graph, pw_result),
        "tw_seed_seconds": round(tw_seed_time, 6),
        "tw_engine_seconds": round(tw_engine_time, 6),
        "tw_speedup": round(tw_seed_time / max(tw_engine_time, 1e-9), 2),
        "pw_seed_seconds": round(pw_seed_time, 6),
        "pw_engine_seconds": round(pw_engine_time, 6),
        "pw_speedup": round(pw_seed_time / max(pw_engine_time, 1e-9), 2),
    }


def engine_only(name: str, graph: Graph) -> Dict:
    """Engine timings + witness checks on an instance the seeds cannot reach."""
    tw_result, tw_time = _timed(compute_treewidth, graph)
    pw_result, pw_time = _timed(compute_pathwidth, graph)
    return {
        "name": name,
        "vertices": len(graph),
        "treewidth": tw_result.value,
        "pathwidth": pw_result.value,
        "witness_ok": _tree_witness_ok(graph, tw_result)
        and _path_witness_ok(graph, pw_result),
        "tw_engine_seconds": round(tw_time, 6),
        "pw_engine_seconds": round(pw_time, 6),
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
    count = 4 if quick else 12
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
                gaifman_graph(graph_structure(random_tree_graph(11, seed=RANDOM_SEED + i))),
            )
        )
    return instances


# ---------------------------------------------------------------------------
# route-flip scenarios
# ---------------------------------------------------------------------------

#: The flip core: random_graph(14, p=0.15, seed=5) has true pathwidth 2 but
#: BFS-layout bound 4, straddling the PATH threshold (3); its tree depth is
#: 5, so the exact profile routes PATH_COMPLETE where the heuristic one
#: routed TREE_COMPLETE.
FLIP_CORE_SEED = 5

#: (name, target size, edge probability, target seed) — measured stable
#: winners for the flipped route (one negative, one positive instance).
FLIP_SCENARIOS = [
    ("negative_60", 60, 0.15, 99),
    ("positive_150", 150, 0.1, 7),
]
QUICK_FLIP_NAMES = {"negative_60"}


def rigid_flip_pattern() -> Structure:
    """The flip core, colored rigid with distinct 2-subsets of six colors.

    Homomorphisms preserve color membership and no 2-subset contains
    another, so every endomorphism is the identity: the 14-element core
    survives ``classify_structure`` intact, keeping the widths above in
    charge of the route.
    """
    graph = gaifman_graph(random_graph_structure(14, 0.15, seed=FLIP_CORE_SEED))
    vertices = sorted(graph.vertices, key=repr)
    edges = set()
    for u, v in graph.edge_pairs():
        edges.add((u, v))
        edges.add((v, u))
    relations = {"E": edges, **{f"B{i}": set() for i in range(6)}}
    for vertex, pair in zip(vertices, combinations(range(6), 2)):
        for color in pair:
            relations[f"B{color}"].add((vertex,))
    vocabulary = Vocabulary({"E": 2, **{f"B{i}": 1 for i in range(6)}})
    return Structure(vocabulary, vertices, relations)


def colored_target(pattern: Structure, size: int, p: float, seed: int) -> Structure:
    """A random target over the pattern's colored vocabulary."""
    rng = random.Random(seed)
    universe = list(range(size))
    edges = {
        (i, j)
        for i in universe
        for j in universe
        if i != j and rng.random() < p
    }
    edges |= {(j, i) for (i, j) in edges}
    relations = {"E": edges}
    for name in pattern.vocabulary.names():
        if name != "E":
            relations[name] = {
                (rng.choice(universe),) for _ in range(max(1, size // 3))
            }
    return Structure(pattern.vocabulary, universe, relations)


def heuristic_profile_of(profile: StructureProfile) -> StructureProfile:
    """The pre-engine view of the same core: heuristic widths, no flags."""
    report = width_profile_report(profile.core, exact=False)
    return StructureProfile(
        profile.structure,
        profile.core,
        report.treewidth.value,
        report.pathwidth.value,
        report.treedepth.value,
        core_certificate=profile.core_certificate,
        core_elimination_forest=profile.core_elimination_forest,
        core_treewidth_exact=False,
        core_pathwidth_exact=False,
        core_treedepth_exact=False,
    )


def route_flip_check(quick: bool) -> Dict:
    """Exact widths must flip the route, keep answers, and beat the tree DP."""
    pattern = rigid_flip_pattern()
    profile = classify_structure(pattern)
    heuristic = heuristic_profile_of(profile)
    exact_degree = choose_degree(profile)
    heuristic_degree = choose_degree(heuristic)
    # Built once, as the TREE route kept it on the profile.
    decomposition = good_tree_decomposition(profile.core)
    scenarios = []
    for name, size, p, seed in FLIP_SCENARIOS:
        if quick and name not in QUICK_FLIP_NAMES:
            continue
        target = colored_target(pattern, size, p, seed)
        exact_result, exact_time = _timed(
            solve_with_degree, pattern, target, exact_degree, profile, repeats=3
        )
        tree_answer, tree_time = _timed(
            run_decomposition_dp, profile.core, target, decomposition, BOOLEAN, repeats=3
        )
        scenarios.append(
            {
                "name": name,
                "target_size": size,
                "answer": exact_result.answer,
                "answers_agree": exact_result.answer == bool(tree_answer),
                "exact_route_seconds": round(exact_time, 6),
                "tree_dp_seconds": round(tree_time, 6),
                "eval_speedup": round(tree_time / max(exact_time, 1e-9), 2),
            }
        )
    return {
        "core_size": profile.core_size,
        "exact_pathwidth": profile.core_pathwidth,
        "heuristic_pathwidth": heuristic.core_pathwidth,
        "exact_route": exact_degree.value,
        "heuristic_route": heuristic_degree.value,
        "route_flipped": exact_degree is not heuristic_degree,
        "scenarios": scenarios,
        "ok": exact_degree is not heuristic_degree
        and all(s["answers_agree"] for s in scenarios)
        and any(s["eval_speedup"] > 1.0 for s in scenarios),
    }


def run(quick: bool, verbose: bool = False) -> Dict:
    headline_cases = QUICK_HEADLINE if quick else FULL_HEADLINE
    headline = []
    for name, build in headline_cases:
        report = compare_widths(name, build())
        headline.append(report)
        if verbose:
            print(
                f"  {name:16s} n={report['vertices']:3d} "
                f"tw={report['treewidth']:2d} x{report['tw_speedup']:<9.1f}"
                f"pw={report['pathwidth']:2d} x{report['pw_speedup']:<9.1f}"
                f"[{'ok' if report['agree'] and report['witness_ok'] else 'FAIL'}]"
            )
    corpus_reports = []
    for name, graph in small_corpus(quick):
        report = compare_widths(name, graph)
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
                f"  {name:16s} n={report['vertices']:3d} "
                f"tw={report['treewidth']:2d} ({report['tw_engine_seconds']:9.6f}s)  "
                f"pw={report['pathwidth']:2d} ({report['pw_engine_seconds']:9.6f}s)  "
                f"[{'ok' if report['witness_ok'] else 'FAIL'}]"
            )
    flip = route_flip_check(quick)
    if verbose:
        print(
            f"  route flip: {flip['heuristic_route']} -> {flip['exact_route']} "
            f"(pw bound {flip['heuristic_pathwidth']} vs exact {flip['exact_pathwidth']}); "
            + ", ".join(
                f"{s['name']} x{s['eval_speedup']:.2f}" for s in flip["scenarios"]
            )
            + f" [{'ok' if flip['ok'] else 'FAIL'}]"
        )
    return {
        "benchmark": "width_engines",
        "host": host(),
        "quick": quick,
        "required_speedup": QUICK_REQUIRED_SPEEDUP if quick else REQUIRED_SPEEDUP,
        "headline": headline,
        "corpus": corpus_reports,
        "scale": scale_reports,
        "route_flip": flip,
    }


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

def test_engines_beat_seeds_on_quick_headline():
    for name, build in QUICK_HEADLINE:
        report = compare_widths(name, build())
        assert report["agree"] and report["witness_ok"], name
        assert report["tw_speedup"] >= QUICK_REQUIRED_SPEEDUP, (
            f"{name}: treewidth speedup only {report['tw_speedup']:.1f}x"
        )
        assert report["pw_speedup"] >= QUICK_REQUIRED_SPEEDUP, (
            f"{name}: pathwidth speedup only {report['pw_speedup']:.1f}x"
        )


def test_corpus_agrees_with_seeds():
    for name, graph in small_corpus(quick=True):
        report = compare_widths(name, graph)
        assert report["agree"], name
        assert report["witness_ok"], name


def test_route_flip_wins_end_to_end():
    assert route_flip_check(quick=True)["ok"]


# ---------------------------------------------------------------------------
# script entry point
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller headline/corpus/scale and a softer "
        "speedup gate (the seeds' 2^n growth is the point)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_width.json",
        help="where to write the machine-readable report",
    )
    args = parser.parse_args()

    print(f"width engines benchmark ({'quick' if args.quick else 'full'} mode)")
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
        print(f"FAIL: engines disagree with the seed DPs on {failures}")
        return 1
    bad_witness = [
        entry["name"]
        for entry in report["headline"] + report["corpus"] + report["scale"]
        if not entry["witness_ok"]
    ]
    if bad_witness:
        print(f"FAIL: decomposition witness invalid on {bad_witness}")
        return 1
    required = report["required_speedup"]
    slow = [
        entry
        for entry in report["headline"]
        if min(entry["tw_speedup"], entry["pw_speedup"]) < required
    ]
    if slow:
        for entry in slow:
            print(
                f"FAIL: {entry['name']} speedup tw x{entry['tw_speedup']:.1f} / "
                f"pw x{entry['pw_speedup']:.1f} below the required x{required:.1f}"
            )
        return 1
    if not report["route_flip"]["ok"]:
        print(f"FAIL: route flip check {report['route_flip']}")
        return 1
    best = max(
        max(entry["tw_speedup"], entry["pw_speedup"]) for entry in report["headline"]
    )
    flip_best = max(
        (s["eval_speedup"] for s in report["route_flip"]["scenarios"]), default=0.0
    )
    print(
        f"OK: values agree, witnesses verify, route flips "
        f"{report['route_flip']['heuristic_route']} -> "
        f"{report['route_flip']['exact_route']}, beating the tree DP x{flip_best:.2f}; "
        f"headline speedup up to x{best:.0f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
