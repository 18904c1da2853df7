"""Tests for telemetry-driven planner calibration (:mod:`repro.service.telemetry`)."""

import json
import math
import time

import pytest

from repro.classification import PlannerConfig, classify_structure
from repro.classification.degrees import ComplexityDegree
from repro.classification.solver_dispatch import (
    DEFAULT_PLANNER_CONFIG,
    solve_with_degree,
)
from repro.eval import DatabaseStatistics, ExecutorConfig, plan_query, route_raw_units
from repro.service import (
    CalibrationState,
    QueryService,
    RouteTimingCase,
    SolveSample,
    calibrate_planner,
    fit_route_weights,
    make_sample,
    routed_seconds,
    select_planner,
)
from repro.workloads import scenario_by_name

ROUTES = list(ComplexityDegree)


def synthetic_samples(weights, per_route=6, base_units=100.0):
    """Noise-free samples obeying ``t = w · x`` exactly, per route."""
    samples = []
    for degree, weight in weights.items():
        for i in range(per_route):
            units = base_units * (i + 1)
            samples.append(
                SolveSample(
                    route=degree.value,
                    raw_units=units,
                    seconds=weight * units,
                    core_size=3,
                    universe_size=20,
                    branching=2.0,
                )
            )
    return samples


class TestFitRouteWeights:
    def test_recovers_exact_weights_from_noiseless_samples(self):
        true_weights = {
            ComplexityDegree.PARA_L: 2e-6,
            ComplexityDegree.PATH_COMPLETE: 5e-6,
            ComplexityDegree.TREE_COMPLETE: 8e-6,
            ComplexityDegree.W1_HARD: 1e-6,
        }
        weights, report = fit_route_weights(synthetic_samples(true_weights))
        for degree, expected in true_weights.items():
            assert math.isclose(weights[degree], expected, rel_tol=1e-9)
            assert report[degree.value]["samples"] == 6

    def test_unfitted_routes_scale_with_the_fitted_median(self):
        # Only PARA_L observed, at exactly 10x its hand-set weight scale.
        true = {ComplexityDegree.PARA_L: DEFAULT_PLANNER_CONFIG.treedepth_cost_weight * 10}
        weights, report = fit_route_weights(synthetic_samples(true))
        # The other routes keep their hand-set ratios, rescaled by 10.
        assert math.isclose(
            weights[ComplexityDegree.PATH_COMPLETE],
            DEFAULT_PLANNER_CONFIG.path_cost_weight * 10,
            rel_tol=1e-9,
        )
        assert report[ComplexityDegree.TREE_COMPLETE.value]["samples"] == 0

    def test_no_samples_returns_hand_set_weights(self):
        weights, _ = fit_route_weights([])
        assert weights[ComplexityDegree.PATH_COMPLETE] == (
            DEFAULT_PLANNER_CONFIG.path_cost_weight
        )

    def test_degenerate_zero_timings_stay_positive(self):
        samples = [
            SolveSample("para-L", 100.0, 0.0, 2, 10, 1.5) for _ in range(4)
        ]
        weights, _ = fit_route_weights(samples)
        assert weights[ComplexityDegree.PARA_L] > 0.0


class TestCalibratePlanner:
    def test_insufficient_samples_keeps_hand_set_config(self):
        result = calibrate_planner([], min_samples=8)
        assert result.source == "insufficient-samples"
        assert result.planner is DEFAULT_PLANNER_CONFIG

    def test_fitted_config_is_cost_mode_with_seconds_weights(self):
        true = {degree: 1e-6 for degree in ROUTES}
        result = calibrate_planner(synthetic_samples(true))
        assert result.source == "fitted"
        assert result.planner.mode == "cost"
        assert math.isclose(
            result.planner.treedepth_cost_weight, 1e-6, rel_tol=1e-9
        )

    def test_make_sample_uses_route_raw_units(self):
        scenario = scenario_by_name("grid_walks", count=3, seed=1)
        query = scenario.queries[0]
        profile = classify_structure(query.canonical_structure())
        stats = DatabaseStatistics.of(
            scenario.database.to_structure(query.vocabulary())
        )
        sample = make_sample(ComplexityDegree.PARA_L, profile, stats, 0.5)
        assert sample.raw_units == route_raw_units(profile, stats)[
            ComplexityDegree.PARA_L
        ]
        assert sample.seconds == 0.5
        assert sample.universe_size == stats.universe_size


class _Case:
    """Build RouteTimingCases with controllable per-route timings."""

    @staticmethod
    def make(seconds_by_route):
        scenario = scenario_by_name("grid_walks", count=2, seed=5)
        query = scenario.queries[0]
        profile = classify_structure(query.canonical_structure())
        stats = DatabaseStatistics.of(
            scenario.database.to_structure(query.vocabulary())
        )
        return RouteTimingCase(profile, stats, seconds_by_route)


class TestSelectPlanner:
    def _uniform_times(self, value):
        return {degree: value for degree in ROUTES}

    def test_fitted_adopted_when_it_wins_everywhere(self):
        # All routes cost the same, so any route choice ties: win-or-tie.
        cases = {"s1": [_Case.make(self._uniform_times(1.0))]}
        fitted = PlannerConfig(mode="cost", treedepth_cost_weight=9.9)
        chosen, report = select_planner(fitted, DEFAULT_PLANNER_CONFIG, cases)
        assert chosen is fitted
        assert report["s1"]["win_or_tie"] is True

    def test_fallback_when_fitted_loses_any_workload(self):
        # Make the route the fitted config would pick catastrophically
        # slow, so the incumbent's choice wins and the guard must fire.
        case = _Case.make(self._uniform_times(1.0))
        incumbent_route = plan_query(
            case.profile, case.stats, DEFAULT_PLANNER_CONFIG
        ).degree
        fitted = PlannerConfig(
            mode="cost",
            treedepth_cost_weight=1e9,
            path_cost_weight=1e9,
            tree_cost_weight=1e9,
            backtracking_cost_weight=1e-9,
        )
        fitted_route = plan_query(case.profile, case.stats, fitted).degree
        times = self._uniform_times(1.0)
        if fitted_route is incumbent_route:
            pytest.skip("routes agree; cannot construct a loss")
        times[fitted_route] = 100.0
        cases = {"good": [_Case.make(self._uniform_times(1.0))],
                 "bad": [RouteTimingCase(case.profile, case.stats, times)]}
        chosen, report = select_planner(fitted, DEFAULT_PLANNER_CONFIG, cases)
        assert chosen is DEFAULT_PLANNER_CONFIG
        assert report["bad"]["win_or_tie"] is False

    def test_routed_seconds_respects_multiplicity(self):
        times = {degree: 2.0 for degree in ROUTES}
        case = _Case.make(times)
        weighted = RouteTimingCase(
            case.profile, case.stats, times, weight=5
        )
        assert routed_seconds([weighted], DEFAULT_PLANNER_CONFIG) == 10.0


class TestCalibrationNeverRegressesScenarios:
    """The satellite regression test: measured per-route timings from real
    scenarios, a calibration fitted from them, and the guard's guarantee
    that the shipped config never loses a scenario to the hand-set one."""

    SCENARIOS = ("grid_walks", "acyclic_random")

    def _measured_cases(self):
        cases = {}
        samples = []
        for name in self.SCENARIOS:
            scenario = scenario_by_name(name, count=8, seed=11)
            target_cache = {}
            entries = []
            seen = {}
            for query in scenario.queries:
                pattern = query.canonical_structure()
                if pattern in seen:
                    continue
                seen[pattern] = True
                vocabulary = query.vocabulary()
                target = target_cache.setdefault(
                    vocabulary, scenario.database.to_structure(vocabulary)
                )
                profile = classify_structure(pattern)
                stats = DatabaseStatistics.of(target)
                seconds = {}
                for degree in ROUTES:
                    solve_with_degree(pattern, target, degree, profile)  # warm-up
                    start = time.perf_counter()
                    solve_with_degree(pattern, target, degree, profile)
                    seconds[degree] = time.perf_counter() - start
                entries.append(RouteTimingCase(profile, stats, seconds))
                samples.append(
                    make_sample(
                        plan_query(profile, stats, DEFAULT_PLANNER_CONFIG).degree,
                        profile,
                        stats,
                        seconds[
                            plan_query(profile, stats, DEFAULT_PLANNER_CONFIG).degree
                        ],
                    )
                )
            cases[name] = entries
        return cases, samples

    def test_guarded_calibration_wins_or_ties_every_scenario(self):
        cases, samples = self._measured_cases()
        result = calibrate_planner(samples, min_samples=1)
        chosen, report = select_planner(
            result.planner, DEFAULT_PLANNER_CONFIG, cases
        )
        # Whatever the fit produced, the shipped config must win or tie
        # everywhere — by adoption or by fallback.
        for name in self.SCENARIOS:
            assert (
                routed_seconds(cases[name], chosen)
                <= routed_seconds(cases[name], DEFAULT_PLANNER_CONFIG) * (1 + 1e-12)
            ), report


class TestCalibrationState:
    def test_save_load_round_trip(self, tmp_path):
        true = {degree: 2e-6 for degree in ROUTES}
        result = calibrate_planner(synthetic_samples(true))
        path = str(tmp_path / "calibration.json")
        result.state().save(path)
        loaded = CalibrationState.load(path)
        assert loaded.planner == result.planner
        assert loaded.source == "fitted"
        assert loaded.sample_count == result.sample_count

    def test_file_saved_with_a_spawn_threshold_still_loads(self, tmp_path):
        # Files written before the executor measured its own pool
        # overhead carry a spawn_cost_threshold the state no longer has.
        planner = PlannerConfig(mode="cost", path_cost_weight=1.25)
        path = tmp_path / "calibration.json"
        path.write_text(
            json.dumps(
                {
                    "planner": planner.to_dict(),
                    "spawn_cost_threshold": 0.004,
                    "sample_count": 12,
                    "source": "fitted",
                    "per_route": {"para-L": {"samples": 3.0}},
                }
            )
        )
        loaded = CalibrationState.load_or_none(str(path))
        assert loaded == CalibrationState(
            planner=planner,
            sample_count=12,
            source="fitted",
            per_route={"para-L": {"samples": 3.0}},
        )
        scenario = scenario_by_name("grid_walks", count=3, seed=1)
        with QueryService(
            scenario.database,
            executor=ExecutorConfig(workers=1),
            calibration=str(path),
        ) as service:
            assert service.planner == planner
            assert service.stats()["calibration"]["sample_count"] == 12

    def test_only_the_legacy_threshold_key_is_dropped(self, tmp_path):
        # Any other field the state does not know still marks the file
        # unusable, as a wrong-shaped payload always has.
        path = tmp_path / "calibration.json"
        path.write_text(
            json.dumps(
                {
                    "planner": PlannerConfig(mode="cost").to_dict(),
                    "spawn_cost_threshold": 0.004,
                    "sample_count": 12,
                    "source": "fitted",
                    "per_route": {},
                    "warmup_queries": 8,
                }
            )
        )
        assert CalibrationState.load_or_none(str(path)) is None

    def test_planner_config_dict_round_trip(self):
        config = PlannerConfig(mode="cost", path_cost_weight=1.25)
        assert PlannerConfig.from_dict(config.to_dict()) == config
