"""Tests for the branch-and-bound treewidth and pathwidth engines.

Mirrors the treedepth-engine test layer, with the same three kinds of
evidence:

* **differential fuzz** — on 120+ random graphs of ≤ 12 vertices both
  engines must equal the seed subset DPs (kept verbatim as
  ``legacy_exact_treewidth`` / ``legacy_exact_pathwidth``);
* **known closed forms** — paths, cycles, cliques, grids and complete
  binary trees up to 25 vertices have textbook widths
  (``tw(P_n) = pw(P_n) = 1``, ``tw(C_n) = pw(C_n) = 2``,
  ``tw(K_n) = pw(K_n) = n − 1``, ``tw = pw = min(r, c)`` for r×c grids
  with both sides ≥ 2, ``tw(T) = 1`` for trees);
* **witnesses** — every engine run must return an elimination ordering /
  layout whose decomposition passes the conftest validators *and*
  achieves the reported width, so an engine bug cannot silently report
  an infeasible number.

Plus the facade/classifier/planner wiring: exactness at 13–25 elements,
recognised closed forms beyond, per-measure ``exact`` flags, and the
end-to-end route flip the exact widths buy; and the pathwidth search's
incremental boundaries, each held to a rescan of the placed vertices.
"""

import random

import pytest

from conftest import (
    assert_valid_path_decomposition,
    assert_valid_tree_decomposition,
)
from test_core_engine_oracle import graph_patterns
from oracles.seeds import (
    legacy_exact_pathwidth,
    legacy_exact_pathwidth_layout,
    legacy_exact_treewidth,
    legacy_exact_treewidth_ordering,
)
from repro.classification.classifier import classify_structure
from repro.classification.degrees import ComplexityDegree
from repro.classification.solver_dispatch import (
    DEFAULT_PLANNER_CONFIG,
    choose_degree,
    solve_with_degree,
)
from repro.decomposition.exact import exact_pathwidth, exact_treewidth
from repro.decomposition.path_decomposition import path_decomposition_from_ordering
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.decomposition.width import (
    PATHWIDTH_EXACT_SIZE_LIMIT,
    TREEWIDTH_EXACT_SIZE_LIMIT,
    good_path_decomposition,
    good_tree_decomposition,
    graph_pathwidth,
    graph_treewidth,
    width_profile,
    width_profile_report,
)
from repro.decomposition.width_engine import (
    PathwidthEngine,
    TreewidthEngine,
    compute_pathwidth,
    compute_treewidth,
    engine_pathwidth,
    engine_pathwidth_layout,
    engine_treewidth,
    engine_treewidth_ordering,
    recognized_pathwidth,
    recognized_treewidth,
)
from repro.eval.planner import route_certified
from repro.exceptions import DecompositionError
from repro.graphlib.graph import Graph
from repro.homomorphism.backtracking import has_homomorphism
from repro.homomorphism.core_engine import compute_core
from repro.structures.builders import (
    clique_graph,
    complete_binary_tree_graph,
    cycle,
    cycle_graph,
    graph_structure,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.structures.gaifman import gaifman_graph
from repro.structures.operations import star_expansion
from repro.structures.random_gen import (
    random_graph_structure,
    random_structure,
    random_tree_graph,
)
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

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
    def test_treewidth_engine_matches_legacy_on_120_random_graphs(self):
        for name, graph in random_small_graphs(120):
            result = compute_treewidth(graph)
            assert result.value == legacy_exact_treewidth(graph), name
            assert_valid_tree_decomposition(graph, result.decomposition, result.value)

    def test_pathwidth_engine_matches_legacy_on_120_random_graphs(self):
        for name, graph in random_small_graphs(120):
            result = compute_pathwidth(graph)
            assert result.value == legacy_exact_pathwidth(graph), name
            assert_valid_path_decomposition(graph, result.decomposition, result.value)

    def test_engines_match_legacy_on_random_trees(self):
        for index in range(15):
            graph = gaifman_graph(
                graph_structure(random_tree_graph(11, seed=FUZZ_SEED + index))
            )
            assert engine_treewidth(graph) == legacy_exact_treewidth(graph)
            assert engine_pathwidth(graph) == legacy_exact_pathwidth(graph)

    def test_engines_match_legacy_on_structured_families(self):
        for graph in (
            path_graph(9),
            cycle_graph(9),
            clique_graph(6),
            star_graph(8),
            grid_graph(2, 4),
            grid_graph(3, 3),
            complete_binary_tree_graph(2),
        ):
            assert engine_treewidth(graph) == legacy_exact_treewidth(graph)
            assert engine_pathwidth(graph) == legacy_exact_pathwidth(graph)

    def test_legacy_witnesses_agree_with_engine_values(self):
        # The seed DPs' own witnesses realise the same optimum the engines
        # report — both directions of the differential are pinned.
        graph = grid_graph(3, 3)
        width, ordering = legacy_exact_treewidth_ordering(graph)
        realised = TreeDecomposition.from_elimination_ordering(graph, ordering).width()
        assert realised == width == engine_treewidth(graph)
        width, layout = legacy_exact_pathwidth_layout(graph)
        realised = path_decomposition_from_ordering(graph, layout).width()
        assert realised == width == engine_pathwidth(graph)


class CheckedPathwidthEngine(PathwidthEngine):
    """Holds every boundary the search derives to a rescan of the placed
    vertices (:meth:`PathwidthEngine._boundary`)."""

    def __init__(self, graph, lower_hint=0):
        super().__init__(graph, lower_hint)
        self.derived = 0

    def _next_boundary(self, boundary, after, vertex):
        assert boundary == self._boundary(after | 1 << vertex)
        following = super()._next_boundary(boundary, after, vertex)
        assert following == self._boundary(after)
        self.derived += 1
        return following

    def _search(self, remaining, boundary, budget):
        assert boundary == self._boundary(remaining)
        return super()._search(remaining, boundary, budget)


class TestIncrementalBoundary:
    """Each placement derives its boundary from its parent's; every one the
    greedy layouts, the candidate scores and the search visit must equal
    the rescan the engine made before, so the search is unchanged."""

    @staticmethod
    def check(graph, caps):
        derived = 0
        for cap in caps:
            engine = CheckedPathwidthEngine(graph)
            value = engine.value(cap)
            reference = PathwidthEngine(graph)
            assert value == reference.value(cap)
            assert engine.branched == reference.branched
            if cap is None:
                assert engine.witness()[0] == reference.witness()[0]
            derived += engine.derived
        return derived

    def test_graph_pattern_cores(self):
        graphs = [gaifman_graph(compute_core(pattern).core) for pattern in graph_patterns()]
        assert sum(self.check(graph, (3, None)) for graph in graphs) > 100_000

    def test_random_graphs(self):
        graphs = [graph for _, graph in random_small_graphs(120)]
        assert sum(self.check(graph, (1, None)) for graph in graphs) > 100_000


class TestKnownValues:
    @pytest.mark.parametrize("n", list(range(2, 26)))
    def test_paths(self, n):
        assert engine_treewidth(path_graph(n)) == 1
        assert engine_pathwidth(path_graph(n)) == 1

    @pytest.mark.parametrize("n", list(range(3, 26)))
    def test_cycles(self, n):
        assert engine_treewidth(cycle_graph(n)) == 2
        assert engine_pathwidth(cycle_graph(n)) == 2

    @pytest.mark.parametrize("n", list(range(1, 17)))
    def test_cliques(self, n):
        assert engine_treewidth(clique_graph(n)) == max(0, n - 1)
        assert engine_pathwidth(clique_graph(n)) == max(0, n - 1)

    @pytest.mark.parametrize(
        "rows, cols", [(2, 2), (2, 3), (2, 12), (3, 3), (3, 5), (4, 5), (4, 6), (5, 5)]
    )
    def test_grids(self, rows, cols):
        assert engine_treewidth(grid_graph(rows, cols)) == min(rows, cols)
        assert engine_pathwidth(grid_graph(rows, cols)) == min(rows, cols)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_complete_binary_trees(self, k):
        # complete_binary_tree_graph(k) has k+1 levels and 2^(k+1)−1 vertices;
        # trees have treewidth 1 and pathwidth ⌈height/2⌉-ish: 1, 1, 2 here.
        assert engine_treewidth(complete_binary_tree_graph(k)) == 1
        assert engine_pathwidth(complete_binary_tree_graph(k)) == (2 if k == 3 else 1)

    def test_star(self):
        assert engine_treewidth(star_graph(10)) == 1
        assert engine_pathwidth(star_graph(10)) == 1

    def test_single_vertex(self):
        assert engine_treewidth(path_graph(1)) == 0
        assert engine_pathwidth(path_graph(1)) == 0

    def test_disconnected_graph_takes_component_maximum(self):
        graph = Graph(range(10), [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
        # Components: P3 (width 1), C3 (width 2), four isolated vertices (0).
        assert engine_treewidth(graph) == 2
        assert engine_pathwidth(graph) == 2

    def test_edgeless_graph(self):
        assert engine_treewidth(Graph(range(5))) == 0
        assert engine_pathwidth(Graph(range(5))) == 0

    def test_empty_graph_rejected(self):
        with pytest.raises(DecompositionError):
            engine_treewidth(Graph())
        with pytest.raises(DecompositionError):
            engine_pathwidth(Graph())

    def test_pathwidth_lower_hint_does_not_change_the_answer(self):
        graph = grid_graph(3, 4)
        assert engine_pathwidth(graph, lower_hint=3) == engine_pathwidth(graph)


WITNESS_GRAPHS = [
    lambda: cycle_graph(13),
    lambda: cycle_graph(25),
    lambda: path_graph(25),
    lambda: grid_graph(3, 5),
    lambda: grid_graph(4, 5),
    lambda: clique_graph(9),
    lambda: complete_binary_tree_graph(3),
    lambda: gaifman_graph(random_graph_structure(14, 0.3, seed=FUZZ_SEED)),
    lambda: gaifman_graph(random_graph_structure(16, 0.2, seed=FUZZ_SEED)),
    lambda: gaifman_graph(graph_structure(random_tree_graph(25, seed=FUZZ_SEED))),
]


class TestWitnesses:
    @pytest.mark.parametrize("build", WITNESS_GRAPHS)
    def test_tree_decomposition_witnesses_value(self, build):
        graph = build()
        result = compute_treewidth(graph)
        assert_valid_tree_decomposition(graph, result.decomposition, result.value)
        assert len(result.ordering) == len(graph)

    @pytest.mark.parametrize("build", WITNESS_GRAPHS)
    def test_path_decomposition_witnesses_value(self, build):
        graph = build()
        result = compute_pathwidth(graph)
        assert_valid_path_decomposition(graph, result.decomposition, result.value)
        assert len(result.layout) == len(graph)

    def test_ordering_and_layout_entry_points(self):
        graph = grid_graph(3, 4)
        width, ordering = engine_treewidth_ordering(graph)
        assert width == 3
        realised = TreeDecomposition.from_elimination_ordering(graph, ordering)
        assert realised.width() == width
        width, layout = engine_pathwidth_layout(graph)
        assert width == 3
        assert path_decomposition_from_ordering(graph, layout).width() == width

    def test_engines_report_search_statistics(self):
        result = compute_treewidth(
            gaifman_graph(random_graph_structure(12, 0.3, seed=FUZZ_SEED))
        )
        assert result.subproblems > 0

    def test_recognised_shapes_skip_branching(self):
        for build in (
            lambda: cycle_graph(21),
            lambda: path_graph(24),
            lambda: grid_graph(5, 5),
        ):
            graph = build()
            engine = TreewidthEngine(graph)
            engine.run()
            assert engine.branched == 0
            engine = PathwidthEngine(graph)
            engine.run()
            assert engine.branched == 0


class TestRecognizedShapes:
    def test_closed_forms_at_any_size(self):
        assert recognized_treewidth(path_graph(40)) == 1
        assert recognized_treewidth(cycle_graph(40)) == 2
        assert recognized_treewidth(clique_graph(30)) == 29
        assert recognized_treewidth(grid_graph(6, 9)) == 6
        assert recognized_pathwidth(path_graph(40)) == 1
        assert recognized_pathwidth(cycle_graph(40)) == 2
        assert recognized_pathwidth(clique_graph(30)) == 29
        assert recognized_pathwidth(grid_graph(6, 9)) == 6

    def test_trees_recognised_for_treewidth_only(self):
        tree = gaifman_graph(graph_structure(random_tree_graph(30, seed=FUZZ_SEED)))
        assert recognized_treewidth(tree) == 1
        # General trees have no pathwidth closed form (stars aside).
        assert recognized_pathwidth(tree) is None
        assert recognized_pathwidth(star_graph(30)) == 1

    def test_disconnected_recognition_takes_maximum(self):
        graph = Graph(range(8), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 7)])
        # C3 (width 2) plus P5 (width 1).
        assert recognized_treewidth(graph) == 2
        assert recognized_pathwidth(graph) == 2

    def test_unrecognised_component_defeats_recognition(self):
        graph = Graph(range(5), [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)])
        assert recognized_treewidth(graph) is None
        assert recognized_pathwidth(graph) is None


def _grid_plus_tadpole():
    """A 29-vertex graph outside the windows with one unrecognised component."""
    grid = grid_graph(5, 5)
    tadpole = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
    vertices = list(grid.vertices) + ["a", "b", "c", "d"]
    return Graph(vertices, list(grid.edge_pairs()) + tadpole)


class TestFacadeWiring:
    def test_window_constants(self):
        assert TREEWIDTH_EXACT_SIZE_LIMIT == 25
        assert PATHWIDTH_EXACT_SIZE_LIMIT == 25

    def test_facade_is_exact_in_the_13_to_25_window(self):
        assert graph_treewidth(grid_graph(3, 5)) == 3
        assert graph_pathwidth(grid_graph(3, 5)) == 3
        graph = gaifman_graph(random_graph_structure(15, 0.25, seed=FUZZ_SEED + 7))
        assert graph_treewidth(graph) == exact_treewidth(graph)
        assert graph_pathwidth(graph) == exact_pathwidth(graph)

    def test_facade_is_exact_for_recognised_shapes_beyond_the_window(self):
        assert graph_treewidth(grid_graph(6, 9)) == 6
        assert graph_pathwidth(grid_graph(6, 9)) == 6
        assert graph_treewidth(cycle_graph(40)) == 2
        assert graph_pathwidth(cycle_graph(40)) == 2

    def test_facade_falls_back_to_heuristic_beyond_the_window(self):
        graph = _grid_plus_tadpole()
        assert graph_treewidth(graph, exact=True) == 5
        assert graph_pathwidth(graph, exact=True) == 5
        # Default policy: unrecognised 29-vertex graph → heuristic bound.
        assert graph_treewidth(graph) >= 5
        assert graph_pathwidth(graph) >= 5

    def test_good_decompositions_are_optimal_in_the_window(self):
        structure = graph_structure(grid_graph(3, 5))
        graph = gaifman_graph(structure)
        tree = good_tree_decomposition(structure)
        assert_valid_tree_decomposition(graph, tree, 3)
        pathdec = good_path_decomposition(structure)
        assert_valid_path_decomposition(graph, pathdec, 3)

    def test_good_decompositions_optimal_for_recognised_shapes_beyond(self):
        structure = graph_structure(grid_graph(6, 9))
        graph = gaifman_graph(structure)
        assert_valid_tree_decomposition(graph, good_tree_decomposition(structure), 6)
        assert_valid_path_decomposition(graph, good_path_decomposition(structure), 6)

    def test_width_profile_uses_engines_in_the_window(self):
        tw, pw, td = width_profile(graph_structure(grid_graph(3, 5)))
        assert (tw, pw) == (3, 3)
        assert td > 3

    def test_path_route_runs_one_pathwidth_search_and_no_witness(self, monkeypatch):
        # Classifying, routing and solving a PATH core runs one pathwidth
        # search, the capped one that certifies pw ≤ threshold; the route
        # solves on a min-fill elimination tree, so no layout is laid out.
        constructed = []
        witnessed = []
        original_init = PathwidthEngine.__init__
        original_witness = PathwidthEngine.witness

        def counting_init(self, *args, **kwargs):
            constructed.append(self)
            original_init(self, *args, **kwargs)

        def counting_witness(self):
            witnessed.append(self)
            return original_witness(self)

        monkeypatch.setattr(PathwidthEngine, "__init__", counting_init)
        monkeypatch.setattr(PathwidthEngine, "witness", counting_witness)
        rng = random.Random(FUZZ_SEED + 11)
        patterns = [cycle(13), star_expansion(graph_structure(grid_graph(3, 4)))]
        for _ in range(16):
            # Oriented random trees plus chords: large rigid cores that the
            # engine solves by search rather than by a recognised shape.
            n = rng.randint(12, 16)
            arcs = {(rng.randrange(v), v) for v in range(1, n)}
            arcs |= {tuple(rng.sample(range(n), 2)) for _ in range(n // 3)}
            arcs = {(a, b) if rng.random() < 0.5 else (b, a) for a, b in arcs}
            patterns.append(Structure(Vocabulary({"E": 2}), range(n), {"E": arcs}))
        routed = 0
        for pattern in patterns:
            constructed.clear()
            witnessed.clear()
            profile = classify_structure(pattern)
            if choose_degree(profile) is not ComplexityDegree.PATH_COMPLETE:
                continue
            routed += 1
            target = random_structure(pattern.vocabulary, 6, 40, rng)
            result = solve_with_degree(
                pattern, target, ComplexityDegree.PATH_COMPLETE, profile
            )
            assert result.answer == has_homomorphism(pattern, target)
            assert profile.core_pathwidth_exact
            assert len(constructed) == 1
            assert witnessed == []
        assert routed >= 8


class TestExactnessFlags:
    def test_report_values_match_tuple_profile(self):
        structure = cycle(9)
        report = width_profile_report(structure)
        assert report.values() == width_profile(structure)

    def test_all_measures_exact_in_the_window(self):
        report = width_profile_report(graph_structure(grid_graph(3, 5)))
        assert report.treewidth == report.treewidth.__class__(3, True)
        assert report.pathwidth.value == 3 and report.pathwidth.exact
        assert report.treedepth.exact

    def test_treedepth_already_exact_in_the_13_to_25_window(self):
        # Regression for the satellite fix: the measure that was already
        # exact at 13–25 must say so.
        report = width_profile_report(cycle(13))
        assert report.treedepth.value == 5
        assert report.treedepth.exact

    def test_heuristic_bounds_are_flagged_beyond_the_window(self):
        structure = graph_structure(_grid_plus_tadpole())
        report = width_profile_report(structure)
        assert not report.treewidth.exact
        assert not report.pathwidth.exact
        assert report.treewidth.value >= 5
        assert report.pathwidth.value >= 5

    def test_recognised_shapes_stay_exact_beyond_the_window(self):
        report = width_profile_report(graph_structure(grid_graph(6, 9)))
        assert report.treewidth == report.treewidth.__class__(6, True)
        assert report.pathwidth == report.pathwidth.__class__(6, True)
        # Grids are not a recognised treedepth shape at this size.
        assert not report.treedepth.exact

    def test_forced_exactness_overrides_the_window(self):
        report = width_profile_report(graph_structure(_grid_plus_tadpole()), exact=True)
        assert report.treewidth == report.treewidth.__class__(5, True)
        assert report.pathwidth == report.pathwidth.__class__(5, True)

    def test_classify_structure_carries_the_flags(self):
        profile = classify_structure(cycle(14))
        assert profile.core_treewidth_exact
        assert profile.core_pathwidth_exact
        assert profile.core_treedepth_exact


def rigid_colored_tree():
    """A rigid 13-element colored tree pattern whose core is itself.

    The tree is ``random_tree_graph(13, seed=8)``, picked because its true
    pathwidth is 2 while the BFS-layout bound is 4 — exactly the
    above-threshold/below-threshold straddle the route-flip regression
    needs.  Unary relations B0..B5 color each vertex with a distinct
    2-subset of six colors (C(6,2) = 15 ≥ 13): homomorphisms preserve
    color *membership*, and no 2-subset contains another, so every
    endomorphism fixes every vertex and the core is the whole structure —
    a 13-element core squarely in the 13–25 window.
    """
    from itertools import combinations

    graph = random_tree_graph(13, seed=8)
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


class TestRouteFlip:
    """The end-to-end regression the exact widths were built for: a
    15-element core whose true pathwidth (2) sits below the PATH threshold
    while the BFS heuristic bound sits above it, so the exact profile flips
    the planner route from TREE_COMPLETE to PARA_L — with identical answers."""

    def test_exact_width_flips_the_route(self):
        pattern = rigid_colored_tree()
        profile = classify_structure(pattern)
        assert profile.core_size == 13  # rigid: the core is the pattern itself
        assert profile.core_pathwidth == 2
        assert profile.core_pathwidth_exact

        heuristic_report = width_profile_report(profile.core, exact=False)
        assert not heuristic_report.pathwidth.exact
        assert (
            heuristic_report.pathwidth.value
            > DEFAULT_PLANNER_CONFIG.pathwidth_threshold
        )
        heuristic_profile = StructureProfile_with(
            profile, heuristic_report
        )

        assert choose_degree(heuristic_profile) is ComplexityDegree.TREE_COMPLETE
        assert choose_degree(profile) is ComplexityDegree.PARA_L

    def test_flipped_route_preserves_answers(self):
        pattern = rigid_colored_tree()
        profile = classify_structure(pattern)
        heuristic_profile = StructureProfile_with(
            profile, width_profile_report(profile.core, exact=False)
        )
        positive = pattern
        edges = set(pattern.relation("E"))
        edge = next(iter(sorted(edges)))
        pruned = (edges - {edge, (edge[1], edge[0])})
        negative = Structure(
            pattern.vocabulary,
            pattern.universe,
            {**{name: pattern.relation(name) for name in pattern.vocabulary.names()},
             "E": pruned},
        )
        for target in (positive, negative):
            reference = has_homomorphism(pattern, target)
            exact_result = solve_with_degree(
                pattern, target, choose_degree(profile), profile
            )
            heuristic_result = solve_with_degree(
                pattern, target, choose_degree(heuristic_profile), heuristic_profile
            )
            assert exact_result.answer == reference
            assert heuristic_result.answer == reference

    def test_planner_marks_heuristic_routes_uncertified(self):
        pattern = rigid_colored_tree()
        profile = classify_structure(pattern)
        heuristic_profile = StructureProfile_with(
            profile, width_profile_report(profile.core, exact=False)
        )
        assert route_certified(profile, choose_degree(profile))
        assert not route_certified(
            heuristic_profile, choose_degree(heuristic_profile)
        )


def StructureProfile_with(profile, report):
    """Clone a profile with the widths/flags of another report (test helper
    standing in for the pre-engine classifier output)."""
    from repro.classification.classifier import StructureProfile

    return StructureProfile(
        profile.structure,
        profile.core,
        report.treewidth.value,
        report.pathwidth.value,
        report.treedepth.value,
        core_certificate=profile.core_certificate,
        core_elimination_forest=profile.core_elimination_forest,
        core_treewidth_exact=report.treewidth.exact,
        core_pathwidth_exact=report.pathwidth.exact,
        core_treedepth_exact=report.treedepth.exact,
    )
