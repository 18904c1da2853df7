"""Tests for the counting classification (Section 6)."""

import pytest

import repro.counting.classification as counting_module
from oracles.decomposition_solver import count_homomorphisms_td
from oracles.join_engine import count_homomorphisms_join
from repro.classification import ComplexityDegree
from repro.counting import (
    count_bijective_endomorphisms,
    count_hom,
    count_star_homomorphisms_via_oracle,
    counting_degree_for_family,
)
from repro.counting.classification import BRUTE_FORCE_COUNT_SOLVER, FOREST_COUNT_SOLVER
from repro.decomposition import optimal_tree_decomposition
from repro.decomposition.treedepth_engine import TreedepthEngine
from repro.decomposition.width_engine import PathwidthEngine, TreewidthEngine
from repro.homomorphism import count_homomorphisms
from repro.structures import (
    clique,
    cycle,
    grid,
    path,
    random_graph_structure,
    star,
    star_expansion,
)
from repro.structures.random_gen import random_colored_target
from repro.workloads.scenarios import path_query

#: ``(degree, treewidth, pathwidth, tree depth)`` of each pattern as
#: ``count_hom`` reported them when it computed them eagerly: this file's
#: patterns, P11 (the 11-variable path query) and one pattern per
#: remaining degree.
PARENT_DEGREES_AND_WIDTHS = {
    "star(3)": (star(3), ComplexityDegree.PARA_L, 1, 1, 2),
    "path(2)": (path(2), ComplexityDegree.PARA_L, 1, 1, 2),
    "path(4)": (path(4), ComplexityDegree.PARA_L, 1, 1, 3),
    "cycle(4)": (cycle(4), ComplexityDegree.PARA_L, 2, 2, 3),
    "cycle(6)": (cycle(6), ComplexityDegree.PARA_L, 2, 2, 4),
    "clique(3)": (clique(3), ComplexityDegree.PARA_L, 2, 2, 3),
    "star_expansion(cycle(3))": (star_expansion(cycle(3)), ComplexityDegree.PARA_L, 2, 2, 3),
    "star_expansion(path(3))": (star_expansion(path(3)), ComplexityDegree.PARA_L, 1, 1, 2),
    "P11": (path_query(10).canonical_structure(), ComplexityDegree.PARA_L, 1, 1, 4),
    "cycle(9)": (cycle(9), ComplexityDegree.PATH_COMPLETE, 2, 2, 5),
    "grid(3, 3)": (grid(3, 3), ComplexityDegree.PATH_COMPLETE, 3, 3, 5),
    "clique(5)": (clique(5), ComplexityDegree.TREE_COMPLETE, 4, 4, 5),
    "clique(6)": (clique(6), ComplexityDegree.W1_HARD, 5, 5, 6),
}


@pytest.fixture
def width_engine_starts(monkeypatch):
    """Count the exact width engines started and the width profiles computed."""
    starts = {"engines": 0, "profiles": 0}

    def counted(original, key):
        def wrapper(*args, **kwargs):
            starts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    for engine in (TreewidthEngine, PathwidthEngine, TreedepthEngine):
        monkeypatch.setattr(engine, "__init__", counted(engine.__init__, "engines"))
    monkeypatch.setattr(
        counting_module, "width_profile", counted(counting_module.width_profile, "profiles")
    )
    return starts


class TestCountingDispatch:
    @pytest.mark.parametrize("seed", range(3))
    def test_para_l_route_matches_bruteforce(self, seed):
        pattern = star(3)
        target = random_graph_structure(5, 0.5, seed)
        result = count_hom(pattern, target)
        assert result.degree is ComplexityDegree.PARA_L
        assert result.count == count_homomorphisms(pattern, target)

    @pytest.mark.parametrize("seed", range(3))
    def test_counts_match_on_paths_and_cycles(self, seed):
        for pattern in (path(4), cycle(4)):
            target = random_graph_structure(5, 0.5, seed)
            assert count_hom(pattern, target).count == count_homomorphisms(pattern, target)

    def test_uses_widths_of_structure_not_core(self):
        """Counting must not pass to the core: #hom(C6 → K3) ≠ #hom(K2 → K3)."""
        result = count_hom(cycle(6), clique(3))
        assert result.count == count_homomorphisms(cycle(6), clique(3))
        assert result.count != count_homomorphisms(path(2), clique(3))

    @pytest.mark.parametrize("name", sorted(PARENT_DEGREES_AND_WIDTHS))
    def test_counts_on_the_forest_engine_equal_brute_force_and_the_join_engine(self, name):
        pattern = PARENT_DEGREES_AND_WIDTHS[name][0]
        if name.startswith("star_expansion"):
            target = random_colored_target(pattern, 5, 0.5, 7)
        else:
            target = random_graph_structure(5, 0.4, 7)
        result = count_hom(pattern, target)
        expected = count_homomorphisms(pattern, target)
        assert result.count == expected == count_homomorphisms_join(pattern, target)
        assert result.solver == (
            BRUTE_FORCE_COUNT_SOLVER if name == "clique(6)" else FOREST_COUNT_SOLVER
        )

    @pytest.mark.parametrize("name", sorted(PARENT_DEGREES_AND_WIDTHS))
    def test_degree_and_widths_are_unchanged(self, name):
        pattern, degree, tw, pw, td = PARENT_DEGREES_AND_WIDTHS[name]
        result = count_hom(pattern, pattern)
        observed = (result.degree, result.treewidth, result.pathwidth, result.treedepth)
        assert observed == (degree, tw, pw, td)

    def test_reading_only_the_count_starts_no_width_engine(self, width_engine_starts):
        pattern, target = cycle(9), random_graph_structure(5, 0.5, 1)
        result = count_hom(pattern, target)
        assert result.count == count_homomorphisms(pattern, target)
        assert width_engine_starts == {"engines": 0, "profiles": 0}
        assert result.degree is ComplexityDegree.PATH_COMPLETE
        assert (result.treewidth, result.pathwidth, result.treedepth) == (2, 2, 5)
        assert width_engine_starts["profiles"] == 1
        assert width_engine_starts["engines"] > 0

    def test_pattern_wider_than_the_cap_counts_by_brute_force(self):
        # K6's min-fill tree is a path whose deepest vertex has all five
        # others on its boundary, one past COUNT_TREEWIDTH_THRESHOLD.
        result = count_hom(clique(6), clique(7))
        assert result.solver == BRUTE_FORCE_COUNT_SOLVER
        assert "wider than 4" in result.solver
        assert result.count == 7 * 6 * 5 * 4 * 3 * 2

    def test_counting_degree_for_family(self):
        # Paths: tw/pw bounded, td unbounded -> PATH degree for counting.
        degree = counting_degree_for_family(
            [1] * 8, [1] * 8, [2, 2, 3, 3, 3, 3, 4, 4]
        )
        assert degree is ComplexityDegree.PATH_COMPLETE
        # Binary trees: pw unbounded -> TREE degree.
        degree = counting_degree_for_family([1] * 6, [1, 1, 2, 2, 3, 3], [2, 3, 4, 5, 6, 7])
        assert degree is ComplexityDegree.TREE_COMPLETE


class TestInclusionExclusion:
    def test_automorphism_counts(self):
        assert count_bijective_endomorphisms(cycle(3)) == 6
        assert count_bijective_endomorphisms(path(2)) == 2
        assert count_bijective_endomorphisms(star_expansion(path(3))) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_lemma_62_matches_direct_count_on_cycles(self, seed):
        pattern_star = star_expansion(cycle(3))
        target = random_colored_target(pattern_star, 5, 0.5, seed)
        assert count_star_homomorphisms_via_oracle(pattern_star, target) == count_homomorphisms(
            pattern_star, target
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_lemma_62_matches_direct_count_on_paths(self, seed):
        pattern_star = star_expansion(path(3))
        target = random_colored_target(pattern_star, 4, 0.6, seed)
        assert count_star_homomorphisms_via_oracle(pattern_star, target) == count_homomorphisms(
            pattern_star, target
        )

    @pytest.mark.parametrize("seed", range(2))
    def test_lemma_62_with_dp_oracle(self, seed):
        """The oracle may be any #HOM(A) solver, e.g. the decomposition DP."""
        pattern_star = star_expansion(path(3))
        target = random_colored_target(pattern_star, 4, 0.5, seed + 10)

        def dp_oracle(pattern, block):
            return count_homomorphisms_td(pattern, block, optimal_tree_decomposition(pattern))

        assert count_star_homomorphisms_via_oracle(
            pattern_star, target, oracle=dp_oracle
        ) == count_homomorphisms(pattern_star, target)

    def test_zero_count_instance(self):
        pattern_star = star_expansion(cycle(3))
        # A target whose colour classes are all a single element with no edges.
        from repro.structures import Structure

        target = Structure(
            pattern_star.vocabulary,
            ["a"],
            {name: {("a",)} for name in pattern_star.vocabulary.names() if name != "E"},
        )
        assert count_star_homomorphisms_via_oracle(pattern_star, target) == 0
