"""Tests for the self-tuning loop (:mod:`repro.service.autotune`).

The gate that matters most here: the guard **never adopts a regressing
config** — a fitted planner that loses on measured probe timings must
be rejected with the incumbent left serving — and an adoption is an
atomic hot swap: same pool object before and after, version bumped,
the new config published to the workers' control slot.
"""

import json
import random
from dataclasses import replace

import pytest

from repro.classification.degrees import ComplexityDegree
from repro.eval import DEFAULT_PLANNER_CONFIG, ExecutorConfig
from repro.eval.planner import plan_query, route_raw_units, route_weights
from repro.service import (
    AutoTuneConfig,
    AutoTuner,
    QueryService,
    ResidualTracker,
)
from repro.service.telemetry import (
    CalibrationResult,
    CalibrationState,
    RouteTimingCase,
    SolveSample,
)
from repro.workloads import scenario_by_name


@pytest.fixture(scope="module")
def scenario():
    return scenario_by_name("mixed_vocabulary", count=30, seed=17)


def sample(route, raw_units, seconds):
    return SolveSample(
        route=route,
        raw_units=raw_units,
        seconds=seconds,
        core_size=2,
        universe_size=10,
        branching=1.5,
    )


class TestAutoTuneConfig:
    def test_defaults_validate(self):
        AutoTuneConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"every_n_solves": 0},
            {"residual_threshold": 1.0},
            {"residual_window": 1},
            {"probe_patterns": 0},
            {"cooldown_solves": -1},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AutoTuneConfig(**kwargs)


class TestResidualTracker:
    ROUTE = ComplexityDegree.PARA_L.value

    def weight(self):
        return route_weights(DEFAULT_PLANNER_CONFIG)[ComplexityDegree.PARA_L]

    def test_perfect_predictions_do_not_drift(self):
        tracker = ResidualTracker(window=8)
        w = self.weight()
        tracker.consume(
            [sample(self.ROUTE, 2.0, w * 2.0) for _ in range(8)],
            DEFAULT_PLANNER_CONFIG,
        )
        assert tracker.median_factors()[self.ROUTE] == pytest.approx(1.0)
        assert tracker.drifting_routes(threshold=3.0) == []

    def test_tenfold_error_drifts_in_either_direction(self):
        w = self.weight()
        for seconds_factor in (10.0, 0.1):
            tracker = ResidualTracker(window=8)
            tracker.consume(
                [sample(self.ROUTE, 2.0, w * 2.0 * seconds_factor) for _ in range(4)],
                DEFAULT_PLANNER_CONFIG,
            )
            assert tracker.median_factors()[self.ROUTE] == pytest.approx(10.0)
            assert tracker.drifting_routes(threshold=3.0, min_points=4) == [self.ROUTE]

    def test_min_points_withholds_thin_evidence(self):
        tracker = ResidualTracker(window=8)
        tracker.consume([sample(self.ROUTE, 1.0, 100.0)], DEFAULT_PLANNER_CONFIG)
        assert tracker.drifting_routes(threshold=3.0, min_points=2) == []

    def test_window_forgets_old_regime(self):
        tracker = ResidualTracker(window=4)
        w = self.weight()
        tracker.consume(
            [sample(self.ROUTE, 1.0, w * 100.0) for _ in range(4)],
            DEFAULT_PLANNER_CONFIG,
        )
        tracker.consume(
            [sample(self.ROUTE, 1.0, w * 1.0) for _ in range(4)],
            DEFAULT_PLANNER_CONFIG,
        )
        assert tracker.median_factors()[self.ROUTE] == pytest.approx(1.0)
        assert tracker.points(self.ROUTE) == 4

    def test_unusable_samples_skipped(self):
        tracker = ResidualTracker(window=4)
        tracker.consume(
            [
                sample(self.ROUTE, 0.0, 1.0),  # no scale information
                sample(self.ROUTE, 1.0, -1.0),  # negative time
                sample("no-such-route", 1.0, 1.0),
            ],
            DEFAULT_PLANNER_CONFIG,
        )
        assert tracker.median_factors() == {}

    def test_clear_forgets_everything(self):
        tracker = ResidualTracker(window=4)
        tracker.consume([sample(self.ROUTE, 1.0, 5.0)], DEFAULT_PLANNER_CONFIG)
        tracker.clear()
        assert tracker.median_factors() == {}


class TestGuardedRecalibration:
    """The recalibrate pass end to end, with deterministic probe timings."""

    def make_service(self, scenario, **autotune_kwargs):
        defaults = dict(
            every_n_solves=10_000,
            min_samples=1,
            cooldown_solves=0,
            probe_patterns=2,
            # The warm-up evaluate must not trip the drift trigger: the
            # manual recalibrate below has to be the only attempt.
            min_residual_points=10_000,
        )
        defaults.update(autotune_kwargs)
        return QueryService(
            scenario.database,
            executor=ExecutorConfig(workers=1),
            autotune=AutoTuneConfig(**defaults),
        )

    def probe_setup(self, service, make_fitted_pick_other_route):
        """Monkeypatch-free probe crafting: serve once, then compute a
        (cases, fitted_planner) pair from a real profile/stats pair."""
        tuner = service.autotuner
        entry = max(tuner._tracked.values(), key=lambda e: e.count)
        query = entry.query
        context = service.eval_context()
        profile = context.profile_for(query.canonical_structure())
        stats = context.stats_for(query.vocabulary())
        incumbent_degree = plan_query(profile, stats, service.planner).degree
        units = route_raw_units(profile, stats, DEFAULT_PLANNER_CONFIG)
        other = next(
            d
            for d in ComplexityDegree
            if d is not incumbent_degree and units[d] < 1e29
        )
        target = other if make_fitted_pick_other_route else incumbent_degree
        weights = {
            "treedepth_cost_weight": 1e9,
            "path_cost_weight": 1e9,
            "tree_cost_weight": 1e9,
            "backtracking_cost_weight": 1e9,
        }
        field_by_degree = {
            ComplexityDegree.PARA_L: "treedepth_cost_weight",
            ComplexityDegree.PATH_COMPLETE: "path_cost_weight",
            ComplexityDegree.TREE_COMPLETE: "tree_cost_weight",
            ComplexityDegree.W1_HARD: "backtracking_cost_weight",
        }
        weights[field_by_degree[target]] = 1e-9
        fitted = replace(DEFAULT_PLANNER_CONFIG, mode="cost", **weights)
        assert plan_query(profile, stats, fitted).degree is target
        seconds = {
            degree: (0.001 if degree is incumbent_degree else 5.0)
            for degree in ComplexityDegree
        }
        cases = [RouteTimingCase(profile, stats, seconds, weight=1)]
        return cases, fitted

    def run_recalibration(self, scenario, regressing, monkeypatch):
        import repro.service.autotune as autotune_mod

        service = self.make_service(scenario)
        with service:
            service.evaluate(scenario.queries[:10])
            tuner = service.autotuner
            cases, fitted = self.probe_setup(service, regressing)
            result = CalibrationResult(
                planner=fitted,
                sample_count=10,
                source="fitted",
            )
            monkeypatch.setattr(tuner, "_probe_cases", lambda: (cases, []))
            monkeypatch.setattr(
                autotune_mod, "calibrate_planner", lambda *a, **k: result
            )
            incumbent = service.planner
            event = tuner.recalibrate("test")
            return service.stats(), event, service.planner, incumbent, fitted

    def test_regressing_fit_is_rejected(self, scenario, monkeypatch):
        stats, event, planner, incumbent, fitted = self.run_recalibration(
            scenario, regressing=True, monkeypatch=monkeypatch
        )
        assert event["outcome"] == "rejected"
        assert not event["guard"]["probe"]["win_or_tie"]
        assert planner is incumbent
        assert stats["planner_version"] == 0
        assert stats["metrics"]["repro_recalibrations_total"]["samples"] == {
            '{outcome="rejected"}': 1.0
        }

    def test_winning_fit_is_adopted_by_hot_swap(self, scenario, monkeypatch):
        stats, event, planner, incumbent, fitted = self.run_recalibration(
            scenario, regressing=False, monkeypatch=monkeypatch
        )
        assert event["outcome"] == "adopted"
        assert event["version"] == 1
        assert planner is fitted
        assert stats["planner_version"] == 1
        assert stats["calibration"]["source"] == "fitted"

    def test_insufficient_samples_keeps_incumbent(self, scenario):
        service = self.make_service(scenario, min_samples=10_000)
        with service:
            service.evaluate(scenario.queries[:6])
            event = service.autotuner.recalibrate("test")
            assert event["outcome"] == "insufficient-samples"
            assert service.planner_version == 0


class TestTriggers:
    def test_every_n_solves_fires_end_to_end(self, scenario):
        config = AutoTuneConfig(
            every_n_solves=6,
            min_samples=1,
            cooldown_solves=0,
            probe_patterns=2,
            min_residual_points=100,
        )
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), autotune=config
        ) as service:
            service.evaluate(scenario.queries[:12])
            tuner = service.autotuner
            assert tuner.events, "the cadence trigger never fired"
            assert tuner.events[0]["trigger"] == "every-n-solves"
            stats = service.stats()
            json.dumps(stats)
            assert stats["autotune"]["attempts"] == len(tuner.events)

    def test_cooldown_suppresses_back_to_back_refits(self, scenario):
        config = AutoTuneConfig(
            every_n_solves=5,
            min_samples=10_000,  # recalibrations stay cheap no-ops
            cooldown_solves=10_000,
            probe_patterns=1,
        )
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), autotune=config
        ) as service:
            for _ in range(3):
                service.evaluate(scenario.queries[:10])
            assert len(service.autotuner.events) == 1

    def test_residual_drift_reason(self, scenario):
        config = AutoTuneConfig(
            every_n_solves=10_000,
            min_residual_points=4,
            residual_threshold=3.0,
            cooldown_solves=0,
        )
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), autotune=config
        ) as service:
            tuner = service.autotuner
            route = ComplexityDegree.PARA_L.value
            w = route_weights(service.planner)[ComplexityDegree.PARA_L]
            tuner.residuals.consume(
                [sample(route, 1.0, w * 50.0) for _ in range(4)], service.planner
            )
            assert tuner.trigger_reason() == f"residual-drift:{route}"

    def test_pattern_tracking_is_bounded(self, scenario):
        config = AutoTuneConfig(every_n_solves=10_000, max_tracked_patterns=3)
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), autotune=config
        ) as service:
            service.evaluate(scenario.queries)
            assert len(service.autotuner._tracked) <= 3


class TestHotSwap:
    def test_swap_does_not_restart_the_pool(self, scenario):
        from repro.cq import evaluate_query_set_sequential

        reference = evaluate_query_set_sequential(scenario.queries, scenario.database)
        config = ExecutorConfig(workers=2, chunk_size=5, min_parallel_batch=1)
        with QueryService(scenario.database, executor=config) as service:
            service.evaluate(scenario.queries, mode="parallel")
            pool = service._eval._pool
            assert pool is not None
            result = service.calibrate(min_samples=1, apply=True)
            assert result.source == "fitted"
            assert service.planner_version == 1
            assert service._eval._pool is pool, "hot swap must not rebuild the pool"
            # Workers learn about the swap through the control slot.
            version, published = service.stores.control["planner"]
            assert version == 1
            assert published == service.planner
            results = service.evaluate(scenario.queries, mode="parallel")
        assert [
            (str(q), r.answer) for q, r in results
        ] == [(str(q), r.answer) for q, r in reference]


class TestCalibrationPersistence:
    def make_state(self):
        planner = replace(DEFAULT_PLANNER_CONFIG, mode="cost", path_cost_weight=0.123)
        return CalibrationState(
            planner=planner,
            sample_count=12,
            source="fitted",
            per_route={"para-L": {"samples": 3.0}},
        )

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "state.json")
        state = self.make_state()
        state.save(path)
        assert CalibrationState.load_or_none(path) == state

    def test_missing_file_maps_to_none(self, tmp_path):
        assert CalibrationState.load_or_none(str(tmp_path / "absent.json")) is None

    def test_mutated_files_never_raise(self, tmp_path):
        """Property: any truncation, byte corruption or wrong-shaped JSON
        yields None (or a well-formed state), never an exception."""
        path = tmp_path / "state.json"
        good = path.with_name("good.json")
        state = self.make_state()
        state.save(str(good))
        text = good.read_text()
        rng = random.Random(20130625)
        printable = "abcdefghijklmnop{}[]\",:0123456789"
        wrong_shapes = [
            "", "null", "[]", '"a string"', "{}", "[1, 2, 3]",
            '{"planner": 5}', '{"planner": null}',
            '{"planner": {"mode": "bogus"}}',
            '{"planner": {"no_such_field": 1}}',
            json.dumps({**json.loads(text), "sample_count": "twelve"}),
        ]
        trials = []
        for _ in range(25):  # truncations
            trials.append(text[: rng.randrange(len(text))])
        for _ in range(25):  # byte flips
            index = rng.randrange(len(text))
            mutated = text[:index] + rng.choice(printable) + text[index + 1 :]
            trials.append(mutated)
        trials.extend(wrong_shapes)
        outcomes = {"none": 0, "state": 0}
        for trial in trials:
            path.write_text(trial)
            loaded = CalibrationState.load_or_none(str(path))
            if loaded is None:
                outcomes["none"] += 1
            else:
                assert isinstance(loaded, CalibrationState)
                assert isinstance(loaded.planner.mode, str)
                outcomes["state"] += 1
        assert outcomes["none"] > 0, "no mutation was actually corrupting"

    def test_service_starts_clean_on_corrupt_file(self, scenario, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text('{"planner": {"mode": "cost", truncated')
        with QueryService(
            scenario.database,
            executor=ExecutorConfig(workers=1),
            calibration=str(path),
        ) as service:
            assert service.planner.mode == "threshold"
            results = service.evaluate(scenario.queries[:4])
            assert len(results) == 4

    def test_service_starts_clean_on_missing_file(self, scenario, tmp_path):
        with QueryService(
            scenario.database,
            executor=ExecutorConfig(workers=1),
            calibration=str(tmp_path / "never-written.json"),
        ) as service:
            assert service.planner.mode == "threshold"
            assert service.stats()["calibration"] is None
