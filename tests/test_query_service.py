"""Tests for the query-service front-end (:mod:`repro.service.frontend`)."""

import multiprocessing
import pickle

import pytest

from repro.cq import evaluate_query_set_sequential, parse_query
from repro.eval import ExecutorConfig
from repro.service import AdaptiveController, QueryService
from repro.service.frontend import MODE_HISTORY_LIMIT
from repro.workloads import scenario_by_name


def triples(results):
    return [(str(query), result.answer, result.solver) for query, result in results]


@pytest.fixture(scope="module")
def scenario():
    return scenario_by_name("mixed_vocabulary", count=30, seed=17)


@pytest.fixture(scope="module")
def reference(scenario):
    return evaluate_query_set_sequential(scenario.queries, scenario.database)


class TestServing:
    def test_sequential_service_matches_reference(self, scenario, reference):
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            results = service.evaluate(scenario.queries)
        assert triples(results) == triples(reference)

    def test_parallel_service_matches_reference(self, scenario, reference):
        config = ExecutorConfig(workers=2, chunk_size=5, min_parallel_batch=1)
        with QueryService(scenario.database, executor=config) as service:
            results = service.evaluate(scenario.queries, mode="parallel")
        assert triples(results) == triples(reference)

    def test_submit_flush_preserves_submission_order(self, scenario, reference):
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            for query in scenario.queries:
                service.submit(query)
            assert service.stats()["pending"] == len(scenario.queries)
            results = service.flush()
            assert service.stats()["pending"] == 0
        assert triples(results) == triples(reference)

    def test_flush_splits_oversized_batches(self, scenario, reference):
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), batch_size=7
        ) as service:
            results = service.evaluate(scenario.queries)
            stats = service.stats()
        assert triples(results) == triples(reference)
        # 30 queries at batch_size 7 → 5 batches, each recorded.
        assert stats["batches_served"] == 5
        assert [h["queries"] for h in stats["mode_history"]] == [7, 7, 7, 7, 2]

    def test_mode_history_keeps_the_most_recent_batches(self, scenario):
        batches = MODE_HISTORY_LIMIT + 5
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), batch_size=1
        ) as service:
            for _ in range(batches):
                service.submit(scenario.queries[0])
            service.flush()
            stats = service.stats()
        assert stats["batches_served"] == batches
        assert len(stats["mode_history"]) == MODE_HISTORY_LIMIT
        assert stats["mode_history"][-1]["batch"] == stats["batches_served"]

    def test_invalid_batch_size_rejected(self, scenario):
        with pytest.raises(ValueError):
            QueryService(scenario.database, batch_size=0)


class TestClassificationDedup:
    def test_one_classification_per_distinct_pattern_sequential(self, scenario):
        duplicated = list(scenario.queries) * 3
        distinct = len({q.canonical_structure() for q in duplicated})
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(duplicated)
            service.evaluate(duplicated)  # a second wave changes nothing
            stats = service.stats()
        assert stats["classification_calls"] == distinct
        assert stats["queries_served"] == 2 * len(duplicated)

    def test_one_classification_per_distinct_pattern_across_workers(self, scenario):
        duplicated = list(scenario.queries) * 2
        distinct = len({q.canonical_structure() for q in duplicated})
        config = ExecutorConfig(workers=2, chunk_size=4, min_parallel_batch=1)
        with QueryService(scenario.database, executor=config) as service:
            service.evaluate(duplicated, mode="parallel")
            stats = service.stats()
        assert stats["shared_stores"] is True
        assert stats["classification_calls"] <= distinct

    def test_answer_store_shares_solves_across_batches(self, scenario):
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(scenario.queries)
            first = len(service.telemetry_samples())
            service.evaluate(scenario.queries)
            second = len(service.telemetry_samples())
        # The second wave hit the answer store / memo: no new solves.
        assert first > 0
        assert second == first


def distinct_patterns(queries):
    """One query per distinct (canonical pattern, vocabulary) key."""
    return list(
        {(query.canonical_structure(), query.vocabulary()): query for query in queries}.values()
    )


class TestTelemetryFromWorkers:
    def test_parallel_flush_records_worker_samples_in_the_parent(self, scenario):
        distinct = distinct_patterns(scenario.queries)
        config = ExecutorConfig(workers=2, chunk_size=4, min_parallel_batch=1)
        with QueryService(scenario.database, executor=config) as service:
            for query in distinct:
                service.submit(query)
            service.flush(mode="parallel")
            # Every unseen pattern is solved once, by one worker, and its
            # sample comes back with the chunk into the parent's sink.
            assert len(service.stores.telemetry) == len(distinct)
            assert service.stats()["stores"]["telemetry_samples"] == len(distinct)
            # The workers' bundle leaves the sink (and its thread lock)
            # behind, so the pool can start under spawn as well.
            pickle.dumps(service._eval._pool._initargs)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="in-process stores reach pool workers only by fork",
    )
    def test_in_process_stores_lose_no_forked_worker_sample(self, scenario):
        # Forked workers hold copies of in-process stores; their samples
        # must still reach the parent's sink, not a copy of it.
        distinct = distinct_patterns(scenario.queries)
        config = ExecutorConfig(workers=2, chunk_size=4, min_parallel_batch=1)
        with QueryService(scenario.database, executor=config, shared=False) as service:
            service.evaluate(distinct, mode="parallel")
            assert len(service.stores.telemetry) == len(distinct)


class TestContentMemoInWorkers:
    def test_parallel_wave_of_fresh_copies_solves_nothing(self, scenario, reference):
        config = ExecutorConfig(workers=2, chunk_size=4, min_parallel_batch=1)
        with QueryService(scenario.database, executor=config) as service:
            for query in scenario.queries:
                service.submit(query)
            service.flush(mode="parallel")
            solved = len(service.telemetry_samples())
            for query in scenario.queries:
                service.submit(parse_query(str(query)))
            results = service.flush(mode="parallel")
            assert len(service.telemetry_samples()) == solved
        assert [(r.answer, r.solver) for _, r in results] == [
            (r.answer, r.solver) for _, r in reference
        ]


class TestUseCacheContract:
    def test_use_cache_false_bypasses_shared_stores(self, scenario):
        from repro.eval import EvalService
        from repro.service import ServiceStores, SharedStore

        stores = ServiceStores(
            profiles=SharedStore.local(), answers=SharedStore.local()
        )
        with EvalService(
            scenario.database, executor=ExecutorConfig(workers=1), stores=stores
        ) as service:
            service.evaluate(scenario.queries[:6], use_cache=False)
        # The promise of use_cache=False is batch-scoped sharing only:
        # nothing may touch (or be served from) the cross-call stores.
        assert stores.profiles.info()["computes"] == 0
        assert len(stores.answers) == 0


class TestStatsEndpoint:
    def test_stats_shape(self, scenario):
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(scenario.queries[:5])
            stats = service.stats()
        for key in (
            "queries_served",
            "batches_served",
            "classification_calls",
            "stores",
            "controller",
            "mode_history",
            "calibration",
            "planner_mode",
        ):
            assert key in stats
        assert stats["calibration"] is None
        assert stats["planner_mode"] == "threshold"
        assert stats["controller"]["queries_observed"] == 5
        assert stats["mode_history"][0]["mode"] == "sequential"


class TestCalibrationLifecycle:
    def test_calibrate_applies_cost_mode_and_survives_restart(self, scenario, reference, tmp_path):
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(scenario.queries)
            result = service.calibrate(min_samples=1)
            assert result.source == "fitted"
            assert service.planner.mode == "cost"
            assert service.stats()["calibration"]["source"] == "fitted"
            # Answers are unchanged under the calibrated planner.
            results = service.evaluate(scenario.queries)
            assert [r.answer for _, r in results] == [
                r.answer for _, r in reference
            ]
            path = str(tmp_path / "calibration.json")
            service.save_calibration(path)
        # A fresh service restarts straight into the calibrated state.
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), calibration=path
        ) as restarted:
            assert restarted.planner.mode == "cost"
            results = restarted.evaluate(scenario.queries[:8])
            assert [r.answer for _, r in results] == [
                r.answer for _, r in reference[:8]
            ]

    def test_save_without_calibration_raises(self, scenario, tmp_path):
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            with pytest.raises(ValueError):
                service.save_calibration(str(tmp_path / "nope.json"))

    def test_insufficient_samples_does_not_apply(self, scenario):
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), telemetry=False
        ) as service:
            service.evaluate(scenario.queries[:3])
            result = service.calibrate()
            assert result.source == "insufficient-samples"
            assert service.planner.mode == "threshold"


class TestAdaptiveController:
    def make(self, **kwargs):
        defaults = dict(
            workers=4,
            chunk_size=10,
            spawn_overhead_seconds=0.01,
            min_parallel_batch=4,
            warmup_queries=8,
            drift_window=4,
            drift_factor=4.0,
        )
        defaults.update(kwargs)
        return AdaptiveController(**defaults)

    def test_warmup_batches_stay_sequential(self, monkeypatch):
        import repro.service.frontend as frontend

        monkeypatch.setattr(frontend.os, "cpu_count", lambda: 8)
        controller = self.make()
        mode, reason = controller.decide(100)
        assert mode == "sequential" and "warm-up" in reason

    def test_single_cpu_guard(self, monkeypatch):
        import repro.service.frontend as frontend

        monkeypatch.setattr(frontend.os, "cpu_count", lambda: 1)
        controller = self.make()
        controller.observe(1.0, 10, "sequential")
        mode, reason = controller.decide(100)
        assert mode == "sequential" and reason == "single CPU"

    def test_cheap_queries_stay_sequential_after_warmup(self, monkeypatch):
        import repro.service.frontend as frontend

        monkeypatch.setattr(frontend.os, "cpu_count", lambda: 8)
        controller = self.make()
        controller.observe(0.0001 * 20, 20, "sequential")  # 0.1ms/query
        mode, reason = controller.decide(100)
        assert mode == "sequential" and "below spawn overhead" in reason

    def test_expensive_queries_go_parallel(self, monkeypatch):
        import repro.service.frontend as frontend

        monkeypatch.setattr(frontend.os, "cpu_count", lambda: 8)
        controller = self.make()
        controller.observe(0.01 * 20, 20, "sequential")  # 10ms/query
        mode, reason = controller.decide(100)
        assert mode == "parallel" and "above spawn overhead" in reason

    def test_single_worker_always_sequential(self):
        controller = self.make(workers=1)
        controller.observe(1.0, 10, "sequential")
        assert controller.decide(100)[0] == "sequential"

    def test_small_batches_stay_sequential(self, monkeypatch):
        import repro.service.frontend as frontend

        monkeypatch.setattr(frontend.os, "cpu_count", lambda: 8)
        controller = self.make()
        controller.observe(0.01 * 20, 20, "sequential")
        mode, reason = controller.decide(2)
        assert mode == "sequential" and "min_parallel_batch" in reason

    def test_parallel_observations_convert_to_serial_equivalent(self):
        controller = self.make()
        controller.observe(1.0, 10, "parallel")  # 4 workers → 0.4 s/query
        assert controller.mean_seconds == pytest.approx(0.4)

    def test_drift_resets_lifetime_statistics(self):
        controller = self.make(drift_window=4, drift_factor=4.0, warmup_queries=1)
        # A long cheap regime...
        for _ in range(20):
            controller.observe(0.001 * 10, 10, "sequential")
        cheap_mean = controller.mean_seconds
        # ...then the workload shifts to 100x slower queries.
        for _ in range(4):
            controller.observe(0.1 * 10, 10, "sequential")
        assert controller.drift_events, "drift was not detected"
        assert controller.mean_seconds > cheap_mean * 10
        event = controller.drift_events[0]
        assert event["window_mean_seconds"] > event["lifetime_mean_seconds"]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            self.make(drift_window=1)
        with pytest.raises(ValueError):
            self.make(drift_factor=1.0)
