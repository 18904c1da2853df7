"""Lazy widths: a classified core computes only the widths something asks for.

:func:`classify_structure` computes the core eagerly but leaves the widths
of a core inside the exact engines' window unread.  :func:`choose_degree`
then decides the route with capped searches (tree depth first); the PATH
and TREE routes solve on a min-fill elimination tree, so no route reads
a decomposition.  Reading a width runs the same exact engine eager
classification ran.  These tests hold lazy profiles to the eager
reference, :func:`width_profile_report_with_forest` on the core, on four
corpora:

* 400 graph patterns on 12–16 variables (a spanning tree plus chords,
  half symmetric, half oriented);
* the 405 distinct ``mixed_vocabulary`` seed-1 patterns;
* cores above the window: the recognised shapes C31, P40 and directed
  P30, and a directed 27-cycle with a chord, which nothing recognises;
* random structures with ternary and repeated-variable atoms.

Engine constructions are counted to pin the work the lazy profile
avoids (a timed evaluation context included), and pickled profiles must
carry every width and no engine.
"""

from __future__ import annotations

import pickle
import sys
import threading
from typing import Callable, Dict, List, Tuple

import pytest

from test_core_engine_oracle import graph_patterns, mixed_patterns, random_structures

import repro.classification.classifier as classifier_module
from repro.classification.classifier import (
    LAZY_WIDTH_LIMIT,
    StructureProfile,
    classify_structure,
)
from repro.classification.degrees import ComplexityDegree
from repro.classification.solver_dispatch import (
    DEFAULT_PLANNER_CONFIG,
    PlannerConfig,
    choose_degree,
    solve_with_degree,
)
from repro.cq.evaluation import clear_profile_cache
from repro.cq.query import ConjunctiveQuery
from repro.decomposition.treedepth_engine import TreedepthEngine
from repro.decomposition.width import width_profile_report_with_forest
from repro.decomposition.width_engine import PathwidthEngine, TreewidthEngine
from repro.eval.executor import _EvaluationContext
from repro.eval.planner import clear_plan_cache
from repro.eval.stats import DatabaseStatistics
from repro.homomorphism.backtracking import has_homomorphism
from repro.homomorphism.core_engine import compute_core
from repro.structures import GRAPH_VOCABULARY, Structure, clique, cycle, path
from repro.structures.builders import directed_path

#: The default thresholds plus custom ones that send cores down every
#: branch of the decision: td within its threshold but td − 1 past another
#: one, tight tw or pw thresholds, and all-zero ones.
CONFIGS = (
    DEFAULT_PLANNER_CONFIG,
    PlannerConfig(treedepth_threshold=5, pathwidth_threshold=2, treewidth_threshold=3),
    PlannerConfig(treedepth_threshold=3, pathwidth_threshold=3, treewidth_threshold=2),
    PlannerConfig(treedepth_threshold=6, pathwidth_threshold=4, treewidth_threshold=4),
    PlannerConfig(treedepth_threshold=4, pathwidth_threshold=1, treewidth_threshold=1),
    PlannerConfig(treedepth_threshold=2, pathwidth_threshold=0, treewidth_threshold=0),
)

TRIANGLE = clique(3)


def chorded_directed_cycle(n: int = 27) -> Structure:
    """A directed n-cycle plus one chord: a core (a closed walk of length n
    must go round the cycle), and its Gaifman graph is no recognised shape."""
    arcs = [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)]
    return Structure(GRAPH_VOCABULARY, range(n), {"E": arcs})


def big_cores() -> List[Structure]:
    """Patterns of more than 25 elements; all but P40, which folds to an
    edge, are their own cores."""
    return [cycle(31), path(40), directed_path(30), chorded_directed_cycle()]


CORPORA: Dict[str, Callable[[], List[Structure]]] = {
    "graph_patterns": graph_patterns,
    "mixed_vocabulary": mixed_patterns,
    "big_cores": big_cores,
    "random_structures": random_structures,
}


class Case:
    """One pattern with its core and the eager reference report."""

    def __init__(self, pattern: Structure) -> None:
        self.pattern = pattern
        self.computation = compute_core(pattern)
        self.report, self.forest = width_profile_report_with_forest(self.computation.core)

    @property
    def lazy(self) -> bool:
        return len(self.computation.core) <= LAZY_WIDTH_LIMIT

    def fresh_profile(self) -> StructureProfile:
        """A profile as :func:`classify_structure` returns it, nothing read."""
        if not self.lazy:
            return classify_structure(self.pattern)
        return StructureProfile(
            self.pattern,
            self.computation.core,
            core_certificate=self.computation.certificate,
        )

    def reference_degree(self, config: PlannerConfig) -> ComplexityDegree:
        """Today's tw → pw → td comparison on the eager values."""
        tw, pw, td = self.report.values()
        if tw > config.treewidth_threshold:
            return ComplexityDegree.W1_HARD
        if pw > config.pathwidth_threshold:
            return ComplexityDegree.TREE_COMPLETE
        if td > config.treedepth_threshold:
            return ComplexityDegree.PATH_COMPLETE
        return ComplexityDegree.PARA_L


@pytest.fixture(scope="module", params=sorted(CORPORA))
def cases(request) -> List[Case]:
    return [Case(pattern) for pattern in CORPORA[request.param]()]


@pytest.fixture(scope="module")
def graph_cases() -> List[Case]:
    return [Case(pattern) for pattern in graph_patterns()]


def observed(profile: StructureProfile) -> Tuple:
    """Every width, flag and forest (parent map and roots) of a profile."""
    forest = profile.core_elimination_forest
    return (
        profile.core_treewidth,
        profile.core_pathwidth,
        profile.core_treedepth,
        profile.core_treewidth_exact,
        profile.core_pathwidth_exact,
        profile.core_treedepth_exact,
        forest.parent,
        forest.roots,
        profile.core_certificate,
    )


def expected(case: Case) -> Tuple:
    report = case.report
    return (
        report.treewidth.value,
        report.pathwidth.value,
        report.treedepth.value,
        report.treewidth.exact,
        report.pathwidth.exact,
        report.treedepth.exact,
        case.forest.parent,
        case.forest.roots,
        case.computation.certificate,
    )


def test_corpora_reach_both_sides_of_the_window():
    assert [Case(pattern).lazy for pattern in big_cores()] == [False, True, False, False]
    assert all(Case(pattern).lazy for pattern in random_structures())


def test_lazy_reads_equal_the_eager_report(cases):
    for case in cases:
        assert observed(classify_structure(case.pattern)) == expected(case)


def test_route_decisions_equal_the_eager_comparison(cases):
    for config in CONFIGS:
        for case in cases:
            profile = case.fresh_profile()
            assert choose_degree(profile, config) is case.reference_degree(config)
            # What the capped searches stored is the exact value and forest.
            assert observed(profile) == expected(case)


def test_explicit_widths_keep_the_comparison_order():
    # Synthetic widths need not satisfy tw ≤ pw ≤ td − 1, so a profile
    # given its widths is compared tw → pw → td, never depth first.
    structure = path(2)
    profile = StructureProfile(structure, structure, 5, 1, 1)
    assert choose_degree(profile) is ComplexityDegree.W1_HARD


def test_threads_racing_on_shared_profiles_see_finished_values(graph_cases):
    # Lazy fills take no lock: each computes into locals and stores only
    # finished values, so racing readers may compute twice but must never
    # see a width without its forest or a half-decided route.
    by_route: Dict[ComplexityDegree, List[Case]] = {}
    for case in graph_cases:
        by_route.setdefault(case.reference_degree(DEFAULT_PLANNER_CONFIG), []).append(case)
    picked = [case for cases in by_route.values() for case in cases[:6]]
    profiles = [case.fresh_profile() for case in picked]
    errors: List[BaseException] = []

    def race(offset: int) -> None:
        try:
            for step in range(len(picked)):
                index = (step + offset) % len(picked)
                case, profile = picked[index], profiles[index]
                if (step + offset) % 2:
                    assert observed(profile) == expected(case)
                degree = choose_degree(profile)
                assert degree is case.reference_degree(DEFAULT_PLANNER_CONFIG)
                assert observed(pickle.loads(pickle.dumps(profile))) == expected(case)
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=race, args=(offset,)) for offset in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


class TestWorkAvoided:
    """Engine constructions while classifying, routing and solving one core."""

    @pytest.fixture
    def calls(self, monkeypatch) -> Dict[str, List]:
        calls: Dict[str, List] = {
            "treedepth": [],
            "treewidth": [],
            "pathwidth": [],
            "depth_values": [],
            "forests": [],
            "tree_witnesses": [],
            "path_witnesses": [],
            "eager_reports": [],
        }

        def counted(owner, name, log, record=lambda args, result: args):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                calls[log].append(record(args + tuple(kwargs.values()), result))
                return result

            monkeypatch.setattr(owner, name, wrapper)

        counted(TreedepthEngine, "__init__", "treedepth")
        counted(TreewidthEngine, "__init__", "treewidth")
        counted(PathwidthEngine, "__init__", "pathwidth")
        counted(
            TreedepthEngine,
            "value",
            "depth_values",
            lambda args, result: (args[1] if len(args) > 1 else None, result),
        )
        counted(TreedepthEngine, "forest", "forests")
        counted(TreewidthEngine, "witness", "tree_witnesses")
        counted(PathwidthEngine, "witness", "path_witnesses")
        counted(classifier_module, "width_profile_report_with_forest", "eager_reports")
        return calls

    @staticmethod
    def route(case: Case, calls: Dict[str, List]) -> ComplexityDegree:
        for log in calls.values():
            log.clear()
        profile = classify_structure(case.pattern)
        degree = choose_degree(profile)
        result = solve_with_degree(case.pattern, TRIANGLE, degree, profile)
        assert result.degree is degree
        assert result.answer == has_homomorphism(case.computation.core, TRIANGLE)
        return degree

    def test_shallow_cores_build_no_width_engine(self, graph_cases, calls):
        shallow = 0
        for case in graph_cases:
            if case.report.treedepth.value > DEFAULT_PLANNER_CONFIG.treedepth_threshold:
                continue
            shallow += 1
            assert self.route(case, calls) is ComplexityDegree.PARA_L
            assert calls["treewidth"] == [] and calls["pathwidth"] == []
            assert len(calls["treedepth"]) == 1 and len(calls["forests"]) == 1
            assert calls["eager_reports"] == []
        assert shallow >= 100

    def test_path_cores_never_finish_a_treedepth_search(self, graph_cases, calls):
        routed = 0
        for case in graph_cases:
            if case.reference_degree(DEFAULT_PLANNER_CONFIG) is not ComplexityDegree.PATH_COMPLETE:
                continue
            routed += 1
            assert self.route(case, calls) is ComplexityDegree.PATH_COMPLETE
            assert calls["forests"] == []
            assert calls["depth_values"]
            for cap, value in calls["depth_values"]:
                assert cap is not None and value > cap
            assert len(calls["pathwidth"]) == 1
        assert routed >= 50

    def test_tree_cores_search_treewidth_once(self, graph_cases, calls):
        routed = 0
        for case in graph_cases:
            if case.reference_degree(DEFAULT_PLANNER_CONFIG) is not ComplexityDegree.TREE_COMPLETE:
                continue
            routed += 1
            assert self.route(case, calls) is ComplexityDegree.TREE_COMPLETE
            assert len(calls["treewidth"]) == 1
            assert calls["tree_witnesses"] == []
        assert routed >= 1

    def test_bounded_routes_replay_no_witness(self, graph_cases, calls):
        # The PATH and TREE routes solve on a min-fill elimination tree:
        # the capped search that certified the route's width is the only
        # one of its kind, and no engine lays out a decomposition.
        routes = {degree: 0 for degree in ComplexityDegree}
        certifying = {
            ComplexityDegree.PATH_COMPLETE: "pathwidth",
            ComplexityDegree.TREE_COMPLETE: "treewidth",
        }
        for case in graph_cases:
            degree = self.route(case, calls)
            routes[degree] += 1
            if degree in certifying:
                assert len(calls[certifying[degree]]) == 1
                assert calls["tree_witnesses"] == calls["path_witnesses"] == []
        assert routes[ComplexityDegree.PARA_L] and routes[ComplexityDegree.PATH_COMPLETE]
        assert routes[ComplexityDegree.TREE_COMPLETE]

    def test_timed_context_records_only_the_route_and_its_seconds(
        self, graph_cases, calls, monkeypatch
    ):
        # A timed solve samples the route it took and the seconds it ran:
        # it reads no database statistics, and a PATH core's capped tree
        # depth search stays the only one.
        case = next(
            case
            for case in graph_cases
            if case.reference_degree(DEFAULT_PLANNER_CONFIG) is ComplexityDegree.PATH_COMPLETE
        )
        measured = []
        original = DatabaseStatistics.of.__func__
        monkeypatch.setattr(
            DatabaseStatistics,
            "of",
            classmethod(lambda cls, target: measured.append(target) or original(cls, target)),
        )
        clear_plan_cache()
        clear_profile_cache()
        for log in calls.values():
            log.clear()
        context = _EvaluationContext(TRIANGLE, DEFAULT_PLANNER_CONFIG, timed=True)
        result = context.solve(ConjunctiveQuery.from_structure(case.pattern))
        assert result.degree is ComplexityDegree.PATH_COMPLETE
        assert measured == []
        assert calls["forests"] == []
        assert calls["depth_values"]
        for cap, value in calls["depth_values"]:
            assert cap is not None and value > cap
        (sample,) = context.take_samples()
        assert tuple(sample) == (result.degree.value, sample.seconds)
        assert sample.seconds >= 0.0

    def test_cores_past_the_window_stay_eager(self, calls):
        for pattern in big_cores():
            calls["eager_reports"].clear()
            classify_structure(pattern)
            eager = len(compute_core(pattern).core) > LAZY_WIDTH_LIMIT
            assert len(calls["eager_reports"]) == int(eager)


class TestPickling:
    """A pickled profile carries every width, whichever were read, and no engine."""

    READS = {
        "nothing": lambda profile: None,
        "treedepth": lambda profile: profile.core_treedepth,
        "everything": observed,
    }

    def test_payload_is_the_same_whatever_was_read(self, graph_cases):
        picked = {}
        for case in graph_cases:
            picked.setdefault(case.reference_degree(DEFAULT_PLANNER_CONFIG), case)
        assert len(picked) == 3
        for case in picked.values():
            payloads = []
            for read in self.READS.values():
                profile = case.fresh_profile()
                read(profile)
                payload = pickle.dumps(profile)
                assert b"Engine" not in payload
                assert b"Decomposition" not in payload
                clone = pickle.loads(payload)
                assert observed(clone) == expected(case)
                assert clone.structure == case.pattern
                assert clone.core == case.computation.core
                assert choose_degree(clone) is case.reference_degree(DEFAULT_PLANNER_CONFIG)
                payloads.append(payload)
            assert payloads[0] == payloads[1] == payloads[2]

    def test_solved_profile_pickles_without_its_route_state(self, graph_cases):
        for case in graph_cases:
            if case.reference_degree(DEFAULT_PLANNER_CONFIG) is ComplexityDegree.PATH_COMPLETE:
                break
        profile = case.fresh_profile()
        degree = choose_degree(profile)
        solve_with_degree(case.pattern, TRIANGLE, degree, profile)
        payload = pickle.dumps(profile)
        assert b"Decomposition" not in payload and b"Engine" not in payload
        assert b"Solver" not in payload
        assert observed(pickle.loads(payload)) == expected(case)
