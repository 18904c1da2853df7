"""Planner and dispatch provenance: every solver route is reachable,
reported degrees match the configured thresholds (including the exact
boundary cases), and the cost-based planner behaves sanely."""

import pytest

from repro.classification import (
    ComplexityDegree,
    PlannerConfig,
    StructureProfile,
    choose_degree,
    classify_structure,
    solve_hom,
    solve_with_degree,
)
from repro.eval import DatabaseStatistics, estimate_route_costs, plan_query
from repro.homomorphism import has_homomorphism
from repro.structures import clique, cycle, path
from repro.structures.builders import directed_path
from repro.structures.random_gen import random_graph_structure


def profile_with_widths(tw: int, pw: int, td: int) -> StructureProfile:
    """A synthetic profile carrying exactly the requested core widths."""
    structure = path(2)
    return StructureProfile(
        structure=structure,
        core=structure,
        core_treewidth=tw,
        core_pathwidth=pw,
        core_treedepth=td,
    )


class TestChooseDegreeBoundaries:
    """The default thresholds are tw>4 → W1, pw>3 → TREE, td>4 → PATH."""

    @pytest.mark.parametrize(
        "tw, pw, td, expected",
        [
            # exactly at each threshold: still the lighter degree
            (4, 3, 4, ComplexityDegree.PARA_L),
            (1, 1, 4, ComplexityDegree.PARA_L),
            # one past the treedepth threshold only
            (1, 1, 5, ComplexityDegree.PATH_COMPLETE),
            (4, 3, 5, ComplexityDegree.PATH_COMPLETE),
            # one past the pathwidth threshold (treedepth then irrelevant)
            (4, 4, 5, ComplexityDegree.TREE_COMPLETE),
            (1, 4, 99, ComplexityDegree.TREE_COMPLETE),
            # one past the treewidth threshold dominates everything
            (5, 4, 5, ComplexityDegree.W1_HARD),
            (5, 99, 99, ComplexityDegree.W1_HARD),
        ],
    )
    def test_default_threshold_boundaries(self, tw, pw, td, expected):
        assert choose_degree(profile_with_widths(tw, pw, td)) is expected

    def test_custom_thresholds_move_the_boundary(self):
        profile = profile_with_widths(3, 3, 4)
        strict = PlannerConfig(
            treewidth_threshold=2, pathwidth_threshold=2, treedepth_threshold=2
        )
        assert choose_degree(profile) is ComplexityDegree.PARA_L
        assert choose_degree(profile, strict) is ComplexityDegree.W1_HARD

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            PlannerConfig(mode="oracle")


class TestSolverProvenance:
    """Each SolveResult.solver is reachable on a real structure of known
    widths, and the string matches the reported degree."""

    SOLVER_BY_DEGREE = {
        ComplexityDegree.PARA_L: "treedepth-recursion (Lemma 3.3)",
        ComplexityDegree.PATH_COMPLETE: (
            "memoised forest recursion, min-fill elimination tree (Theorem 4.6)"
        ),
        ComplexityDegree.TREE_COMPLETE: (
            "memoised forest recursion, min-fill elimination tree (Lemma 3.4)"
        ),
        ComplexityDegree.W1_HARD: "generic backtracking (W[1]-hard regime)",
    }

    # (pattern, expected degree, expected exact-or-heuristic core widths)
    CASES = [
        (path(4), ComplexityDegree.PARA_L, (1, 1, 2)),
        (directed_path(17), ComplexityDegree.PATH_COMPLETE, None),
        (clique(5), ComplexityDegree.TREE_COMPLETE, (4, 4, 5)),
        (clique(6), ComplexityDegree.W1_HARD, (5, 5, 6)),
    ]

    @pytest.mark.parametrize("pattern, degree, widths", CASES)
    def test_real_structures_reach_each_route(self, pattern, degree, widths):
        target = random_graph_structure(9, 0.6, seed=13)
        profile = classify_structure(pattern)
        if widths is not None:
            assert (
                profile.core_treewidth,
                profile.core_pathwidth,
                profile.core_treedepth,
            ) == widths
        result = solve_hom(pattern, target, profile=profile)
        assert result.degree is degree
        assert result.solver == self.SOLVER_BY_DEGREE[degree]
        assert result.answer == has_homomorphism(pattern, target)

    def test_all_four_solver_strings_distinct(self):
        assert len(set(self.SOLVER_BY_DEGREE.values())) == 4

    @pytest.mark.parametrize("degree", list(ComplexityDegree))
    def test_forced_route_keeps_answer_and_provenance(self, degree):
        # Every route is correct for every structure; forcing it must
        # change only the solver string, never the answer.
        pattern = cycle(5)
        target = random_graph_structure(8, 0.5, seed=3)
        profile = classify_structure(pattern)
        result = solve_with_degree(pattern, target, degree, profile)
        assert result.solver == self.SOLVER_BY_DEGREE[degree]
        assert result.degree is degree
        assert result.answer == has_homomorphism(pattern, target)


class TestCostPlanner:
    def test_threshold_mode_matches_choose_degree(self):
        target = random_graph_structure(10, 0.4, seed=5)
        stats = DatabaseStatistics.of(target)
        for pattern in (path(4), clique(5), clique(6), directed_path(17)):
            profile = classify_structure(pattern)
            plan = plan_query(profile, stats, PlannerConfig())
            assert plan.degree is choose_degree(profile)
            assert plan.mode == "threshold"
            # estimates are populated (advisory) when stats are available
            assert set(plan.estimates) == set(ComplexityDegree)

    def test_cost_mode_picks_a_cheapest_route(self):
        target = random_graph_structure(10, 0.4, seed=5)
        stats = DatabaseStatistics.of(target)
        config = PlannerConfig(mode="cost")
        profile = classify_structure(cycle(5))
        plan = plan_query(profile, stats, config)
        assert plan.mode == "cost"
        assert plan.cost == min(plan.estimates.values())

    def test_cost_mode_tracks_database_size(self):
        config = PlannerConfig(mode="cost")
        profile = classify_structure(path(4))
        small = DatabaseStatistics.of(random_graph_structure(5, 0.5, seed=1))
        large = DatabaseStatistics.of(random_graph_structure(40, 0.5, seed=1))
        cheap = estimate_route_costs(profile, small, config)
        costly = estimate_route_costs(profile, large, config)
        for degree in ComplexityDegree:
            assert costly[degree] > cheap[degree]

    def test_result_degree_is_the_route_but_classification_is_preserved(self):
        # A cost-mode plan may route a para-L query to backtracking; the
        # result's degree records that route, while .classification()
        # still reports the Theorem 3.1 degree from the core widths.
        pattern = path(4)
        target = random_graph_structure(6, 0.5, seed=9)
        profile = classify_structure(pattern)
        forced = solve_with_degree(pattern, target, ComplexityDegree.W1_HARD, profile)
        assert forced.degree is ComplexityDegree.W1_HARD
        assert forced.classification() is ComplexityDegree.PARA_L

    def test_cost_mode_without_stats_falls_back_to_thresholds(self):
        profile = classify_structure(clique(6))
        plan = plan_query(profile, None, PlannerConfig(mode="cost"))
        assert plan.degree is choose_degree(profile)
        assert plan.estimates == {}

    def test_plan_summary_mentions_route(self):
        stats = DatabaseStatistics.of(random_graph_structure(6, 0.5, seed=2))
        plan = plan_query(classify_structure(path(3)), stats)
        assert "route" in plan.summary()


class TestDatabaseStatistics:
    def test_fan_out_of_a_functional_relation_is_one(self):
        # A directed path: every vertex has exactly one out-neighbour.
        stats = DatabaseStatistics.of(directed_path(6))
        assert stats.fan_out["E"] == 1.0
        assert stats.universe_size == 6
        assert stats.relation_sizes["E"] == 5

    def test_fan_out_of_a_star_is_the_leaf_count(self):
        from repro.workloads import star_query

        pattern = star_query(7).canonical_structure()
        stats = DatabaseStatistics.of(pattern)
        assert stats.fan_out["E"] == 7.0
        assert stats.max_fan_out == 7.0

    def test_empty_relation_contributes_zero(self):
        from repro.structures import Structure, Vocabulary

        structure = Structure(Vocabulary({"E": 2}), [1, 2], {})
        stats = DatabaseStatistics.of(structure)
        assert stats.fan_out["E"] == 0.0
        assert stats.total_tuples == 0
        assert stats.max_fan_out == 1.0

    def test_empty_relations_do_not_deflate_mean_fan_out(self):
        # A sparse vocabulary: one populated table with fan-out 3, four
        # uninstantiated ones.  The mean must reflect the populated
        # relation only — averaging in the 0.0 entries used to report
        # 0.6 → floored to 1.0, hiding the real branching factor from
        # cost-mode planning.
        from repro.structures import Structure, Vocabulary

        vocabulary = Vocabulary({"E": 2, "L": 2, "R": 3, "C1": 1, "C2": 1})
        structure = Structure(
            vocabulary, [1, 2, 3, 4], {"E": [(1, 2), (1, 3), (1, 4)]}
        )
        stats = DatabaseStatistics.of(structure)
        assert stats.fan_out["E"] == 3.0
        assert stats.fan_out["L"] == 0.0
        assert stats.mean_fan_out == 3.0
        assert stats.max_fan_out == 3.0

    def test_all_relations_empty_mean_fan_out_floors_at_one(self):
        from repro.structures import Structure, Vocabulary

        structure = Structure(Vocabulary({"E": 2, "L": 2}), [1, 2], {})
        stats = DatabaseStatistics.of(structure)
        assert stats.mean_fan_out == 1.0


class TestPlanCache:
    def setup_method(self):
        from repro.eval import clear_plan_cache

        clear_plan_cache()

    def test_repeated_planning_hits_the_cache(self):
        from repro.eval import clear_plan_cache, plan_cache_info, plan_query_cached

        target = random_graph_structure(10, 0.4, seed=5)
        stats = DatabaseStatistics.of(target)
        profile = classify_structure(path(4))
        first = plan_query_cached(profile, stats, PlannerConfig(mode="cost"))
        second = plan_query_cached(profile, stats, PlannerConfig(mode="cost"))
        assert first is second
        info = plan_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        clear_plan_cache()
        assert plan_cache_info() == {"hits": 0, "misses": 0, "size": 0}

    def test_equal_statistics_fingerprints_share_a_plan(self):
        from repro.eval import plan_query_cached

        # Two value-identical databases produce distinct stats objects but
        # the same fingerprint — the cache must not care about identity.
        stats_a = DatabaseStatistics.of(random_graph_structure(10, 0.4, seed=5))
        stats_b = DatabaseStatistics.of(random_graph_structure(10, 0.4, seed=5))
        assert stats_a is not stats_b
        assert stats_a.fingerprint() == stats_b.fingerprint()
        profile = classify_structure(cycle(5))
        config = PlannerConfig(mode="cost")
        assert plan_query_cached(profile, stats_a, config) is plan_query_cached(
            profile, stats_b, config
        )

    def test_different_statistics_produce_fresh_plans(self):
        from repro.eval import plan_cache_info, plan_query_cached

        profile = classify_structure(path(4))
        config = PlannerConfig(mode="cost")
        small = DatabaseStatistics.of(random_graph_structure(5, 0.5, seed=1))
        large = DatabaseStatistics.of(random_graph_structure(40, 0.5, seed=1))
        plan_small = plan_query_cached(profile, small, config)
        plan_large = plan_query_cached(profile, large, config)
        assert plan_small is not plan_large
        assert plan_cache_info()["misses"] == 2

    def test_different_configs_do_not_collide(self):
        from repro.eval import plan_query_cached

        stats = DatabaseStatistics.of(random_graph_structure(10, 0.4, seed=5))
        profile = classify_structure(clique(5))
        threshold_plan = plan_query_cached(profile, stats, PlannerConfig())
        cost_plan = plan_query_cached(profile, stats, PlannerConfig(mode="cost"))
        assert threshold_plan.mode == "threshold"
        assert cost_plan.mode == "cost"

    def test_cache_is_bounded(self):
        from repro.eval import plan_cache_info, plan_query_cached
        from repro.eval.planner import _PLAN_CACHE_LIMIT

        profile = classify_structure(path(3))
        for size in range(2, _PLAN_CACHE_LIMIT + 30):
            stats = DatabaseStatistics(
                universe_size=size, total_tuples=size, relation_sizes={"E": size},
                fan_out={"E": 1.0},
            )
            plan_query_cached(profile, stats, PlannerConfig(mode="cost"))
        assert plan_cache_info()["size"] <= _PLAN_CACHE_LIMIT

    def test_cached_plans_match_uncached(self):
        from repro.eval import plan_query_cached

        stats = DatabaseStatistics.of(random_graph_structure(12, 0.3, seed=8))
        for pattern in (path(4), cycle(5), clique(5)):
            profile = classify_structure(pattern)
            for config in (PlannerConfig(), PlannerConfig(mode="cost")):
                cached = plan_query_cached(profile, stats, config)
                direct = plan_query(profile, stats, config)
                assert cached.degree is direct.degree
                assert cached.estimates == direct.estimates


class TestCertificateAwarePlanning:
    """The cost model reads StructureProfile.core_certificate: symmetric
    certificates ("clique", "odd-cycle") discount the branching base;
    identity-only rigidity ("ac-rigid") and search-proven cores do not."""

    def _stats(self):
        return DatabaseStatistics(
            universe_size=50,
            total_tuples=400,
            relation_sizes={"E": 400},
            fan_out={"E": 8.0},
        )

    def _profile(self, certificate):
        structure = cycle(5)
        return StructureProfile(
            structure=structure,
            core=structure,
            core_treewidth=2,
            core_pathwidth=2,
            core_treedepth=3,
            core_certificate=certificate,
        )

    @pytest.mark.parametrize("certificate", ["clique", "odd-cycle"])
    def test_symmetric_certificates_lower_every_estimate(self, certificate):
        stats = self._stats()
        plain = estimate_route_costs(self._profile(None), stats)
        discounted = estimate_route_costs(self._profile(certificate), stats)
        for degree in plain:
            assert discounted[degree] < plain[degree]

    @pytest.mark.parametrize("certificate", [None, "ac-rigid", "singleton"])
    def test_rigid_and_searched_cores_keep_full_branching(self, certificate):
        stats = self._stats()
        baseline = estimate_route_costs(self._profile(None), stats)
        assert estimate_route_costs(self._profile(certificate), stats) == baseline

    def test_discount_of_one_disables_the_adjustment(self):
        stats = self._stats()
        config = PlannerConfig(symmetry_discount=1.0)
        assert estimate_route_costs(
            self._profile("clique"), stats, config
        ) == estimate_route_costs(self._profile(None), stats, config)

    def test_invalid_discount_rejected(self):
        with pytest.raises(ValueError):
            PlannerConfig(symmetry_discount=0.0)
        with pytest.raises(ValueError):
            PlannerConfig(symmetry_discount=1.5)

    def test_real_odd_cycle_profile_carries_the_discount(self):
        profile = classify_structure(cycle(7))
        assert profile.core_certificate == "odd-cycle"
        stats = self._stats()
        rigid = classify_structure(directed_path(8))
        assert rigid.core_certificate == "ac-rigid"
        from repro.eval import route_raw_units

        # Same branching statistic, but only the odd cycle sees it discounted.
        discounted = route_raw_units(profile, stats)[ComplexityDegree.W1_HARD]
        config_off = PlannerConfig(symmetry_discount=1.0)
        full = route_raw_units(profile, stats, config_off)[ComplexityDegree.W1_HARD]
        assert discounted < full

    def test_threshold_routing_unaffected_by_certificates(self):
        # The discount shapes estimates only; threshold mode still routes
        # by the width thresholds.
        stats = self._stats()
        plan_plain = plan_query(self._profile(None), stats)
        plan_cert = plan_query(self._profile("odd-cycle"), stats)
        assert plan_plain.degree is plan_cert.degree
