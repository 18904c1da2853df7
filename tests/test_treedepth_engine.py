"""Tests for the branch-and-bound treedepth engine.

Three layers of evidence, mirroring how the engine is allowed to replace
the seed solver:

* **differential fuzz** — on 100+ random graphs of ≤ 12 vertices the
  engine's value must equal :func:`legacy_exact_treedepth` (the seed
  subset recursion, kept verbatim for exactly this purpose);
* **known closed forms** — paths, cycles, cliques and complete binary
  trees up to 25 vertices have textbook treedepths
  (``td(P_n) = ⌈log2(n+1)⌉``, ``td(C_n) = 1 + ⌈log2 n⌉``,
  ``td(K_n) = n``, ``td(T_h) = h``);
* **witnesses** — every engine run must return an elimination forest
  that :meth:`EliminationForest.witnesses` verifies and whose height
  equals the reported value, so an engine bug cannot silently report an
  infeasible depth.

Plus the facade/classifier wiring: the width facade must now be exact at
13–25 elements (and for recognised shapes beyond), which is what makes
td(C13) = 5 visible end to end; and the lazy greedy incumbent, held to
the search an eager one runs.
"""

import math
import random

import pytest

from oracles.seeds import legacy_exact_treedepth
from test_core_engine_oracle import graph_patterns
from repro.classification.classifier import classify_structure
from repro.decomposition.treedepth import dfs_elimination_forest
from repro.decomposition.treedepth_engine import (
    TreedepthEngine,
    compute_treedepth,
    engine_elimination_forest,
    engine_treedepth,
    recognized_treedepth,
)
from repro.decomposition.width import (
    TREEDEPTH_EXACT_SIZE_LIMIT,
    graph_elimination_forest,
    graph_treedepth,
    width_profile,
)
from repro.exceptions import DecompositionError
from repro.graphlib.graph import Graph
from repro.homomorphism.core_engine import compute_core
from repro.structures.builders import (
    clique_graph,
    complete_binary_tree_graph,
    cycle,
    cycle_graph,
    directed_path,
    graph_structure,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.structures.gaifman import gaifman_graph
from repro.structures.random_gen import random_graph_structure, random_tree_graph

FUZZ_SEED = 74207281


def random_small_graphs(count):
    """Yield (name, graph) pairs covering sizes 1–12 and densities 0.1–0.8."""
    rng = random.Random(FUZZ_SEED)
    for index in range(count):
        n = rng.randint(1, 12)
        p = rng.uniform(0.1, 0.8)
        structure = random_graph_structure(n, p, seed=FUZZ_SEED + index)
        yield f"G(n={n}, p={p:.2f}, #{index})", gaifman_graph(structure)


class TestDifferentialFuzz:
    def test_engine_matches_legacy_on_120_random_graphs(self):
        for name, graph in random_small_graphs(120):
            result = compute_treedepth(graph)
            assert result.value == legacy_exact_treedepth(graph), name
            assert result.forest.witnesses(graph), name
            assert result.forest.height() == result.value, name

    def test_engine_matches_legacy_on_random_trees(self):
        for index in range(20):
            graph = gaifman_graph(
                graph_structure(random_tree_graph(12, seed=FUZZ_SEED + index))
            )
            assert engine_treedepth(graph) == legacy_exact_treedepth(graph)


class TestKnownValues:
    @pytest.mark.parametrize("n", list(range(1, 26)))
    def test_paths(self, n):
        assert engine_treedepth(path_graph(n)) == math.ceil(math.log2(n + 1))

    @pytest.mark.parametrize("n", list(range(3, 26)))
    def test_cycles(self, n):
        assert engine_treedepth(cycle_graph(n)) == 1 + math.ceil(math.log2(n))

    @pytest.mark.parametrize("n", list(range(1, 17)))
    def test_cliques(self, n):
        assert engine_treedepth(clique_graph(n)) == n

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_complete_binary_trees(self, k):
        # complete_binary_tree_graph(k) has k+1 levels (strings of length ≤ k).
        assert engine_treedepth(complete_binary_tree_graph(k)) == k + 1

    def test_star(self):
        assert engine_treedepth(star_graph(10)) == 2

    def test_grids(self):
        # Exact values small enough to cross-check against the seed.
        assert engine_treedepth(grid_graph(2, 3)) == legacy_exact_treedepth(grid_graph(2, 3))
        assert engine_treedepth(grid_graph(3, 4)) == legacy_exact_treedepth(grid_graph(3, 4))

    def test_disconnected_graph_takes_component_maximum(self):
        graph = Graph(range(10), [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
        # Components: P3 (td 2), C3 (td 3), four isolated vertices (td 1).
        assert engine_treedepth(graph) == 3

    def test_empty_graph_rejected(self):
        with pytest.raises(DecompositionError):
            engine_treedepth(Graph())

    def test_edgeless_graph(self):
        assert engine_treedepth(Graph(range(5))) == 1


class TestWitnesses:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: cycle_graph(13),
            lambda: cycle_graph(25),
            lambda: path_graph(25),
            lambda: grid_graph(3, 5),
            lambda: grid_graph(4, 5),
            lambda: clique_graph(9),
            lambda: complete_binary_tree_graph(3),
            lambda: gaifman_graph(random_graph_structure(15, 0.3, seed=FUZZ_SEED)),
            lambda: gaifman_graph(random_graph_structure(18, 0.2, seed=FUZZ_SEED)),
        ],
    )
    def test_forest_witnesses_graph_and_value(self, build):
        graph = build()
        result = compute_treedepth(graph)
        assert result.forest.witnesses(graph)
        assert result.forest.height() == result.value

    def test_engine_elimination_forest_is_optimal(self):
        graph = cycle_graph(13)
        forest = engine_elimination_forest(graph)
        assert forest.witnesses(graph)
        assert forest.height() == 5
        # Strictly better than the DFS heuristic, which gives 13 here.
        assert forest.height() < dfs_elimination_forest(graph).height()

    def test_engine_reports_search_statistics(self):
        result = compute_treedepth(grid_graph(3, 4))
        assert result.subproblems > 0
        # Grids are not a recognised shape, so some branching happened.
        assert result.branched > 0

    def test_recognised_shapes_skip_branching(self):
        for build in (lambda: cycle_graph(21), lambda: path_graph(24)):
            graph = build()
            engine = TreedepthEngine(graph)
            engine.run()
            assert engine.branched == 0


class TestRecognizedShapes:
    def test_paths_cycles_cliques_at_any_size(self):
        assert recognized_treedepth(path_graph(40)) == math.ceil(math.log2(41))
        assert recognized_treedepth(cycle_graph(40)) == 1 + math.ceil(math.log2(40))
        assert recognized_treedepth(clique_graph(30)) == 30
        assert recognized_treedepth(grid_graph(3, 10)) is None

    def test_disconnected_recognition_takes_maximum(self):
        graph = Graph(range(8), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 7)])
        # C3 (td 3) plus P5 (td 3).
        assert recognized_treedepth(graph) == 3

    def test_unrecognised_component_defeats_recognition(self):
        graph = Graph(range(5), [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)])
        assert recognized_treedepth(graph) is None


class TestFacadeWiring:
    def test_facade_is_exact_in_the_13_to_25_window(self):
        assert TREEDEPTH_EXACT_SIZE_LIMIT == 25
        assert graph_treedepth(cycle_graph(13)) == 5
        assert graph_treedepth(cycle_graph(25)) == 6
        assert graph_treedepth(grid_graph(4, 5)) == 8

    def test_facade_is_exact_for_recognised_shapes_beyond_the_window(self):
        assert graph_treedepth(path_graph(30)) == 5
        assert graph_treedepth(cycle_graph(31)) == 6

    def test_facade_falls_back_to_heuristic_beyond_the_window(self):
        graph = grid_graph(5, 6)  # 30 vertices, not a recognised shape
        value = graph_treedepth(graph)
        exact = graph_treedepth(graph, exact=True)
        assert value >= exact

    def test_facade_forest_matches_facade_value(self):
        for build in (lambda: cycle_graph(13), lambda: path_graph(30), lambda: grid_graph(5, 6)):
            graph = build()
            forest = graph_elimination_forest(graph)
            assert forest.witnesses(graph)
            assert forest.height() == graph_treedepth(graph)

    def test_width_profile_uses_engine_treedepth(self):
        _, _, td = width_profile(cycle(13))
        assert td == 5

    def test_classify_structure_reports_exact_depth_for_big_rigid_cores(self):
        profile = classify_structure(cycle(13))
        assert profile.core_treedepth == 5
        assert profile.core_elimination_forest is not None
        assert profile.core_elimination_forest.height() == 5

        profile = classify_structure(directed_path(30))
        assert profile.core_treedepth == 5

    def test_profile_forest_witnesses_core_gaifman_graph(self):
        profile = classify_structure(cycle(15))
        assert profile.core_elimination_forest.witnesses(gaifman_graph(profile.core))


class EagerTreedepthEngine(TreedepthEngine):
    """Runs the greedy incumbent together with the lower bounds, the first
    time a subproblem is strengthened, whether or not it then branches."""

    def _strengthen(self, mask, entry, budget):
        super()._strengthen(mask, entry, budget)
        if not entry.greedy:
            super()._strengthen(mask, entry, budget)


class TestLazyIncumbent:
    """The greedy incumbent waits until a subproblem is about to branch;
    the search must be the one the eager incumbent runs."""

    @pytest.fixture(scope="class")
    def graphs(self):
        return [gaifman_graph(compute_core(pattern).core) for pattern in graph_patterns()]

    @staticmethod
    def outcome(engine, cap):
        value = engine.value(cap)
        forest = engine.forest() if cap is None or value <= cap else None
        return (
            value,
            None if forest is None else (forest.parent, forest.roots),
            engine.branched,
            {mask: entry.lb for mask, entry in engine._memo.items()},
        )

    @pytest.mark.parametrize("cap", [4, None])
    def test_same_search_as_the_eager_incumbent(self, graphs, cap):
        for graph in graphs:
            assert self.outcome(TreedepthEngine(graph), cap) == self.outcome(
                EagerTreedepthEngine(graph), cap
            )

    def test_capped_decisions_run_fewer_greedy_decompositions(self, graphs):
        lazy = eager = 0
        for graph in graphs:
            for cls in (TreedepthEngine, EagerTreedepthEngine):
                engine = cls(graph)
                if engine.value(4) <= 4:
                    engine.forest()
                if cls is TreedepthEngine:
                    lazy += len(engine._greedy_cache)
                else:
                    eager += len(engine._greedy_cache)
        assert lazy < eager
