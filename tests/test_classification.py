"""Tests for the Classification Theorem machinery (Theorem 3.1 as an API)."""

import pickle

import pytest

from repro.classification import (
    ComplexityDegree,
    classify_family,
    classify_structure,
    classify_with_bounds,
    choose_degree,
    degree_from_width_bounds,
    looks_bounded,
    solve_hom,
)
from repro.exceptions import ClassificationError
from repro.structures import (
    cycle,
    grid,
    path,
    random_graph_structure,
    star,
    star_expansion,
)
from repro.workloads import EXPECTED_DEGREES, family_by_name
from repro.homomorphism import has_homomorphism


class TestDegreeTable:
    def test_theorem_31_case_analysis(self):
        assert degree_from_width_bounds(True, True, True) is ComplexityDegree.PARA_L
        assert degree_from_width_bounds(True, True, False) is ComplexityDegree.PATH_COMPLETE
        assert degree_from_width_bounds(True, False, False) is ComplexityDegree.TREE_COMPLETE
        assert degree_from_width_bounds(False, False, False) is ComplexityDegree.W1_HARD

    def test_metadata(self):
        assert "Theorem 3.1" in ComplexityDegree.PATH_COMPLETE.paper_statement()
        assert ComplexityDegree.PARA_L.rank() < ComplexityDegree.W1_HARD.rank()
        assert "p-HOM(P*)" in ComplexityDegree.PATH_COMPLETE.complete_problem()


class TestStructureProfiles:
    def test_triangle(self):
        profile = classify_structure(cycle(3))
        assert (profile.core_treewidth, profile.core_pathwidth, profile.core_treedepth) == (2, 2, 3)
        assert profile.core_size == 3

    def test_even_cycle_profile_uses_core(self):
        profile = classify_structure(cycle(6))
        assert profile.core_size == 2
        assert profile.core_treewidth == 1

    def test_starred_path_is_its_own_core(self):
        profile = classify_structure(star_expansion(path(5)))
        assert profile.core_size == 5
        assert profile.core_treedepth == 3

    def test_profiles_compare_by_value(self):
        profile = classify_structure(cycle(5))
        again = classify_structure(cycle(5))
        assert again is not profile
        assert again.core_elimination_forest is not profile.core_elimination_forest
        assert again == profile
        assert pickle.loads(pickle.dumps(profile)) == profile
        assert profile != classify_structure(cycle(7))
        result = solve_hom(cycle(5), cycle(5), profile=profile)
        assert pickle.loads(pickle.dumps(result)) == result == solve_hom(cycle(5), cycle(5))


class TestLooksBounded:
    def test_constant_series(self):
        assert looks_bounded([2, 2, 2, 2, 2, 2])

    def test_growing_series(self):
        assert not looks_bounded([1, 2, 3, 4, 5, 6])

    def test_logarithmic_growth_detected_with_enough_scale(self):
        assert not looks_bounded([2, 2, 3, 3, 3, 3, 4, 4])

    def test_two_values_counts_as_bounded(self):
        assert looks_bounded([0, 1, 1, 1])

    def test_empty_series(self):
        assert looks_bounded([])


class TestFamilyClassification:
    @pytest.mark.parametrize(
        "name,count",
        [
            ("stars", 6),
            ("bounded_depth_trees", 5),
            ("grids", 4),
            ("directed_paths", 8),
            ("odd_cycles", 5),
            ("starred_paths", 7),
            ("b_structures", 4),
            ("directed_b_structures", 4),
            ("starred_binary_trees", 4),
            ("starred_grids", 4),
            ("cliques", 5),
        ],
    )
    def test_families_classified_as_expected(self, name, count):
        report = classify_family(family_by_name(name, count))
        assert report.degree == EXPECTED_DEGREES[name], report.summary()

    def test_empty_sample_rejected(self):
        with pytest.raises(ClassificationError):
            classify_family([])

    def test_arity_bound_enforced(self):
        from repro.structures import Structure, Vocabulary

        wide = Structure(Vocabulary({"R": 4}), [1, 2, 3, 4], {"R": [(1, 2, 3, 4)]})
        with pytest.raises(ClassificationError):
            classify_family([wide], max_arity_bound=3)

    def test_classify_with_asserted_bounds(self):
        report = classify_with_bounds(True, True, False, sample=family_by_name("directed_paths", 3))
        assert report.degree is ComplexityDegree.PATH_COMPLETE
        assert "asserted" in report.notes

    def test_report_summary_mentions_degree(self):
        report = classify_family(family_by_name("stars", 4))
        assert "para-L" in report.summary()


class TestSolverDispatch:
    @pytest.mark.parametrize("seed", range(3))
    def test_para_l_route(self, seed):
        pattern = star(3)
        target = random_graph_structure(6, 0.4, seed)
        result = solve_hom(pattern, target)
        assert result.degree is ComplexityDegree.PARA_L
        assert result.answer == has_homomorphism(pattern, target)

    @pytest.mark.parametrize("seed", range(3))
    def test_path_route(self, seed):
        # A starred path long enough that its (core) tree depth exceeds the
        # dispatcher's para-L threshold.
        pattern = star_expansion(path(16))
        from tests.conftest import colored_target_for

        target = colored_target_for(pattern, 6, 0.5, seed)
        result = solve_hom(pattern, target)
        assert result.degree is ComplexityDegree.PATH_COMPLETE
        assert result.answer == has_homomorphism(pattern, target)

    @pytest.mark.parametrize("seed", range(2))
    def test_generic_route_on_high_treewidth(self, seed):
        pattern = star_expansion(grid(5, 5))
        from tests.conftest import colored_target_for

        target = colored_target_for(pattern, 6, 0.6, seed)
        result = solve_hom(pattern, target)
        assert result.degree is ComplexityDegree.W1_HARD
        assert result.answer == has_homomorphism(pattern, target)

    def test_choose_degree_thresholds(self):
        assert choose_degree(classify_structure(star(3))) is ComplexityDegree.PARA_L
        assert (
            choose_degree(classify_structure(star_expansion(grid(5, 5))))
            is ComplexityDegree.W1_HARD
        )
