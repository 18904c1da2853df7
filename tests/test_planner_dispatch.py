"""Planner and dispatch provenance: every solver route is reachable,
reported degrees match the configured thresholds (including the exact
boundary cases), and the planner routes by the degree alone."""

import dataclasses
import pickle

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
from repro.eval import DatabaseStatistics, EvalService, plan_query
from repro.eval.planner import route_certified
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

    @pytest.mark.parametrize("threshold", [1, 2, 3, 6])
    @pytest.mark.parametrize(
        "measure, heavier",
        [
            ("treewidth", ComplexityDegree.W1_HARD),
            ("pathwidth", ComplexityDegree.TREE_COMPLETE),
            ("treedepth", ComplexityDegree.PATH_COMPLETE),
        ],
    )
    def test_each_threshold_moves_only_its_own_boundary(self, measure, heavier, threshold):
        # The other two thresholds are out of reach, so only ``measure``
        # can move the degree: at its threshold the query stays para-L,
        # one past it takes the heavier route.  The other widths are the
        # least that keep tw <= pw <= td - 1.
        config = PlannerConfig(
            **{
                f"{name}_threshold": threshold if name == measure else 50
                for name in ("treedepth", "pathwidth", "treewidth")
            }
        )

        def widths(value):
            if measure == "treewidth":
                return value, value, value + 1
            if measure == "pathwidth":
                return 1, value, value + 1
            return min(1, value - 1), min(1, value - 1), value

        at = profile_with_widths(*widths(threshold))
        past = profile_with_widths(*widths(threshold + 1))
        assert choose_degree(at, config) is ComplexityDegree.PARA_L
        assert choose_degree(past, config) is heavier


class TestPlannerConfig:
    def test_defaults_are_the_module_thresholds(self):
        from repro.classification.solver_dispatch import (
            DEFAULT_PLANNER_CONFIG,
            PATHWIDTH_THRESHOLD,
            TREEDEPTH_THRESHOLD,
            TREEWIDTH_THRESHOLD,
        )

        assert PlannerConfig() == DEFAULT_PLANNER_CONFIG
        assert DEFAULT_PLANNER_CONFIG == PlannerConfig(
            treedepth_threshold=TREEDEPTH_THRESHOLD,
            pathwidth_threshold=PATHWIDTH_THRESHOLD,
            treewidth_threshold=TREEWIDTH_THRESHOLD,
        )
        assert (TREEDEPTH_THRESHOLD, PATHWIDTH_THRESHOLD, TREEWIDTH_THRESHOLD) == (4, 3, 4)

    def test_the_three_thresholds_are_the_whole_config(self):
        assert [field.name for field in dataclasses.fields(PlannerConfig)] == [
            "treedepth_threshold",
            "pathwidth_threshold",
            "treewidth_threshold",
        ]

    def test_configs_are_immutable_value_keys(self):
        # The plan cache keys on the config and pool workers receive a
        # pickled copy, so equal thresholds must mean an equal key.
        config = PlannerConfig(treedepth_threshold=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.treedepth_threshold = 3
        assert config == PlannerConfig(treedepth_threshold=2)
        assert hash(config) == hash(PlannerConfig(treedepth_threshold=2))
        assert config != PlannerConfig()
        assert pickle.loads(pickle.dumps(config)) == config


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


#: Thresholds under which ``clique(5)`` (tw 4, pw 4) routes to W[1]
#: instead of TREE.
STRICT = PlannerConfig(treedepth_threshold=2, pathwidth_threshold=2, treewidth_threshold=2)


class TestPlanQuery:
    def test_plan_is_the_threshold_degree(self):
        for pattern in (path(4), clique(5), clique(6), directed_path(17)):
            profile = classify_structure(pattern)
            for config in (PlannerConfig(), STRICT):
                plan = plan_query(profile, config)
                assert plan.degree is choose_degree(profile, config)
                assert plan.certified

    def test_result_degree_is_the_route_but_classification_is_preserved(self):
        # A caller may force another route onto a para-L query; the
        # result's degree records that route, while .classification()
        # still reports the Theorem 3.1 degree from the core widths.
        pattern = path(4)
        target = random_graph_structure(6, 0.5, seed=9)
        profile = classify_structure(pattern)
        forced = solve_with_degree(pattern, target, ComplexityDegree.W1_HARD, profile)
        assert forced.degree is ComplexityDegree.W1_HARD
        assert forced.classification() is ComplexityDegree.PARA_L

    def test_plan_summary_mentions_route(self):
        plan = plan_query(classify_structure(path(3)))
        assert plan.summary() == "route para-L"

    @pytest.mark.parametrize(
        "pattern, degree",
        [(case[0], case[1]) for case in TestSolverProvenance.CASES],
        ids=lambda value: value.name if isinstance(value, ComplexityDegree) else None,
    )
    def test_every_route_is_planned_on_a_real_pattern(self, pattern, degree):
        plan = plan_query(classify_structure(pattern))
        assert plan == plan_query(classify_structure(pattern))
        assert plan.degree is degree
        assert plan.summary() == f"route {degree.value}"

    def test_plan_carries_only_the_route_and_its_certification(self):
        plan = plan_query(classify_structure(path(3)))
        assert [field.name for field in dataclasses.fields(plan)] == ["degree", "certified"]


#: Core widths ``(tw, pw, td)`` the default thresholds route to each degree.
WIDTHS_BY_DEGREE = {
    ComplexityDegree.PARA_L: (1, 1, 2),
    ComplexityDegree.PATH_COMPLETE: (1, 1, 5),
    ComplexityDegree.TREE_COMPLETE: (2, 4, 5),
    ComplexityDegree.W1_HARD: (5, 5, 6),
}

#: The exactness flag of the width measure each bounded route rests on;
#: the backtracking route depends on the core size alone.
DRIVING_FLAG = {
    ComplexityDegree.PARA_L: "core_treedepth_exact",
    ComplexityDegree.PATH_COMPLETE: "core_pathwidth_exact",
    ComplexityDegree.TREE_COMPLETE: "core_treewidth_exact",
}


class TestRouteCertification:
    """A plan is uncertified exactly when the width behind its route is a
    heuristic upper bound; the other two measures' flags do not matter."""

    @pytest.mark.parametrize(
        "flag", ["core_treewidth_exact", "core_pathwidth_exact", "core_treedepth_exact"]
    )
    @pytest.mark.parametrize("degree", list(ComplexityDegree), ids=lambda d: d.name)
    def test_only_the_driving_measure_decides_certification(self, degree, flag):
        tw, pw, td = WIDTHS_BY_DEGREE[degree]
        structure = path(2)
        profile = StructureProfile(structure, structure, tw, pw, td, **{flag: False})
        plan = plan_query(profile)
        assert plan.degree is degree
        assert plan.certified is (DRIVING_FLAG.get(degree) != flag)
        assert route_certified(profile, degree) is plan.certified

    def test_summary_flags_a_heuristic_route(self):
        structure = path(2)
        profile = StructureProfile(
            structure, structure, 2, 4, 5, core_treewidth_exact=False
        )
        assert plan_query(profile).summary() == (
            f"route {ComplexityDegree.TREE_COMPLETE.value} (heuristic-width route)"
        )


class TestCertificateAwarePlanning:
    """The core engine's rigidity certificate is provenance only: the
    route follows from the core widths whatever certified the core."""

    CERTIFICATES = [None, "singleton", "clique", "odd-cycle", "ac-rigid"]

    def test_threshold_routing_unaffected_by_certificates(self):
        structure = cycle(5)
        for degree, (tw, pw, td) in WIDTHS_BY_DEGREE.items():
            for certificate in self.CERTIFICATES:
                profile = StructureProfile(
                    structure, structure, tw, pw, td, core_certificate=certificate
                )
                assert plan_query(profile).degree is degree
                assert plan_query(profile, STRICT).degree is choose_degree(
                    profile_with_widths(tw, pw, td), STRICT
                )

    @pytest.mark.parametrize(
        "pattern, certificate",
        [
            (cycle(7), "odd-cycle"),
            (clique(5), "clique"),
            (directed_path(8), "ac-rigid"),
            (path(1), "singleton"),
        ],
        ids=["odd-cycle", "clique", "ac-rigid", "singleton"],
    )
    def test_real_certified_cores_route_by_their_widths(self, pattern, certificate):
        profile = classify_structure(pattern)
        assert profile.core_certificate == certificate
        uncertified = StructureProfile(
            profile.structure,
            profile.core,
            profile.core_treewidth,
            profile.core_pathwidth,
            profile.core_treedepth,
        )
        for config in (PlannerConfig(), STRICT):
            assert plan_query(profile, config) == plan_query(uncertified, config)


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

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_counts_match_the_structure(self, seed):
        target = random_graph_structure(12, 0.35, seed=seed)
        edges = target.relation("E")
        stats = DatabaseStatistics.of(target)
        assert stats.universe_size == len(target)
        assert stats.relation_sizes == {"E": len(edges)}
        assert stats.total_tuples == target.total_tuples() == len(edges)
        assert stats.fan_out["E"] == len(edges) / len({edge[0] for edge in edges})

    def test_context_measures_each_vocabulary_once(self):
        target = random_graph_structure(10, 0.4, seed=5)
        with EvalService(target) as service:
            context = service.context()
            first = context.stats_for(target.vocabulary)
            assert context.stats_for(target.vocabulary) is first
        assert first == DatabaseStatistics.of(target)


class TestPlanCache:
    """The plan cache is keyed on ``(pattern structure, config)``."""

    def setup_method(self):
        from repro.eval import clear_plan_cache

        clear_plan_cache()

    def test_repeated_planning_hits_the_cache(self):
        from repro.eval import clear_plan_cache, plan_cache_info, plan_query_cached

        profile = classify_structure(path(4))
        first = plan_query_cached(profile)
        second = plan_query_cached(profile)
        assert first is second
        info = plan_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        clear_plan_cache()
        assert plan_cache_info() == {"hits": 0, "misses": 0, "size": 0}

    def test_equal_structures_share_a_plan(self):
        from repro.eval import plan_cache_info, plan_query_cached

        # Two profiles of equal structures are distinct objects; the
        # cache must not care about identity.
        first, second = classify_structure(cycle(5)), classify_structure(cycle(5))
        assert first is not second
        assert plan_query_cached(first) is plan_query_cached(second)
        assert plan_cache_info()["misses"] == 1

    def test_different_structures_produce_fresh_plans(self):
        from repro.eval import plan_cache_info, plan_query_cached

        light = plan_query_cached(classify_structure(path(4)))
        heavy = plan_query_cached(classify_structure(clique(6)))
        assert light.degree is ComplexityDegree.PARA_L
        assert heavy.degree is ComplexityDegree.W1_HARD
        assert plan_cache_info()["misses"] == 2

    def test_different_configs_do_not_collide(self):
        from repro.eval import plan_cache_info, plan_query_cached

        profile = classify_structure(clique(5))
        default_plan = plan_query_cached(profile, PlannerConfig())
        strict_plan = plan_query_cached(profile, STRICT)
        assert default_plan.degree is ComplexityDegree.TREE_COMPLETE
        assert strict_plan.degree is ComplexityDegree.W1_HARD
        assert plan_cache_info()["misses"] == 2

    def test_cache_is_bounded(self):
        from repro.eval import plan_cache_info, plan_query_cached
        from repro.eval.planner import _PLAN_CACHE_LIMIT

        profile = classify_structure(path(3))
        for threshold in range(_PLAN_CACHE_LIMIT + 30):
            plan_query_cached(profile, PlannerConfig(treedepth_threshold=threshold))
        assert plan_cache_info()["size"] <= _PLAN_CACHE_LIMIT

    def test_cached_plans_match_uncached(self):
        from repro.eval import plan_query_cached

        for pattern in (path(4), cycle(5), clique(5), directed_path(17)):
            profile = classify_structure(pattern)
            for config in (PlannerConfig(), STRICT):
                assert plan_query_cached(profile, config) == plan_query(profile, config)
