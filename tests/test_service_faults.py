"""Fault-injection tests: the service under killed, wedged and flaky workers.

Every recovery path is differentially verified: whatever faults fire,
the served ``(query, answer, solver)`` triples must be byte-identical
to the sequential reference evaluation — recovery may cost time, never
correctness.  The injections themselves are deterministic one-shots
(see :mod:`faultinject`), so these tests neither flake nor depend on
scheduling luck for the fault to fire.
"""

import json
import multiprocessing

import pytest

import faultinject
from conftest import restated
from repro.classification import classify_structure
from repro.cq import evaluate_query_set_sequential
from repro.eval import ExecutorConfig
from repro.service import QueryService, ServiceMonitor
from repro.service.monitor import beat
from repro.workloads import scenario_by_name

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="deterministic fault injection requires the fork start method",
)


def triples(results):
    return [(str(query), result.answer, result.solver) for query, result in results]


@pytest.fixture(scope="module")
def scenario():
    return scenario_by_name("mixed_vocabulary", count=32, seed=17)


@pytest.fixture(scope="module")
def reference(scenario):
    return evaluate_query_set_sequential(scenario.queries, scenario.database)


def parallel_config(**overrides):
    defaults = dict(workers=2, chunk_size=4)
    defaults.update(overrides)
    return ExecutorConfig(**defaults)


class TestKilledWorker:
    def test_recovers_with_identical_answers(self, scenario, reference):
        with faultinject.chunk_fault(faultinject.kill_worker) as flags:
            with QueryService(scenario.database, executor=parallel_config()) as service:
                results = service.evaluate(scenario.queries, mode="parallel")
                stats = service.stats()
            assert "armed" not in flags, "the kill never fired"
        assert triples(results) == triples(reference)
        monitor = stats["monitor"]
        assert monitor["recycles"] == 1
        assert monitor["recycle_events"][0]["reason"] == "broken-pool"
        assert monitor["redispatched_chunks"] >= 1
        # The mirrored metric agrees with the event record.
        assert stats["metrics"]["repro_recycles_total"]["samples"] == {
            '{reason="broken-pool"}': 1.0
        }

    def test_store_dedup_survives_the_recycle(self, scenario):
        """Exactly-once semantics: a re-dispatched chunk must not recompute.

        The first (sequential, fault-free) wave warms the shared
        profile store; the killed-worker wave re-dispatches chunks but
        every pattern is already cached, so the global compute counter
        must not move — re-dispatch re-*serves*, it never re-*solves*
        classifications.  The parent holds the first wave's answers by
        content key, so the second wave is restated to reach the pool.
        """
        again = restated(scenario.queries)
        with faultinject.chunk_fault(faultinject.kill_worker):
            with QueryService(scenario.database, executor=parallel_config()) as service:
                service.evaluate(scenario.queries, mode="sequential")
                computes_before = service.stats()["classification_calls"]
                results = service.evaluate(again, mode="parallel")
                stats = service.stats()
        assert triples(results) == triples(
            evaluate_query_set_sequential(again, scenario.database)
        )
        assert stats["monitor"]["recycles"] == 1
        assert stats["classification_calls"] == computes_before

    def test_recycle_limit_bounds_repeated_breakage(self, scenario):
        """A pool that breaks more often than ``max_recycles`` must raise,
        not loop forever."""
        config = parallel_config(max_recycles=0)
        with faultinject.chunk_fault(faultinject.kill_worker):
            with QueryService(scenario.database, executor=config) as service:
                with pytest.raises(Exception):
                    service.evaluate(scenario.queries, mode="parallel")


class TestWedgedWorker:
    def test_deadline_detects_and_recovers(self, scenario, reference):
        config = parallel_config(chunk_deadline_seconds=1.5)
        with faultinject.chunk_fault(faultinject.wedge_worker) as flags:
            with QueryService(scenario.database, executor=config) as service:
                results = service.evaluate(scenario.queries, mode="parallel")
                stats = service.stats()
            assert "armed" not in flags, "the wedge never fired"
        assert triples(results) == triples(reference)
        monitor = stats["monitor"]
        assert monitor["deadline_expiries"] >= 1
        assert monitor["recycles"] == 1
        assert monitor["recycle_events"][0]["reason"] == "chunk-deadline"
        assert monitor["deadline_seconds"] == 1.5

    def test_wedge_past_recycle_limit_raises(self, scenario):
        config = parallel_config(chunk_deadline_seconds=0.5, max_recycles=0)
        with faultinject.chunk_fault(faultinject.wedge_worker):
            with QueryService(scenario.database, executor=config) as service:
                with pytest.raises(RuntimeError, match="deadline"):
                    service.evaluate(scenario.queries, mode="parallel")


class TestManagerStoreTimeout:
    def test_control_plane_hiccup_is_survived(self, scenario, reference):
        """One injected ConnectionError on the control plane (the
        heartbeat board) must be swallowed by the guarded worker paths:
        answers identical, no recycle, no crash."""
        with multiprocessing.Manager() as manager:
            flags = manager.dict()
            flags["armed"] = True
            with QueryService(scenario.database, executor=parallel_config()) as service:
                stores = service.stores
                # Wrap before the first parallel batch — the lazily
                # created pool then pickles the flaky wrappers into its
                # workers via the initializer.
                stores.heartbeats = faultinject.FlakyMapping(stores.heartbeats, flags)
                results = service.evaluate(scenario.queries, mode="parallel")
                stats = service.stats()
            assert "armed" not in flags, "the injected timeout never fired"
        assert triples(results) == triples(reference)
        assert stats["monitor"]["recycles"] == 0


def routed_solves(service):
    """The total of the ``route_solves_total`` counter over its routes."""
    counter = service.metrics.get("route_solves_total")
    return sum(counter.collect().values())


class TestTelemetryFlood:
    def test_flood_never_breaks_sample_accounting(self, scenario):
        """A telemetry flood beyond the sink bound drops oldest batches;
        later batches must keep serving, and the front-end must keep
        counting every new solve once the full sink drops a batch per
        record.  A query counts as new when its core is: patterns that
        fold to a core solved before share its solve."""

        def core(query):
            return classify_structure(query.canonical_structure()).core

        seen = {core(q) for q in scenario.queries[:16]}
        unseen = []
        for query in scenario.queries[16:]:
            key = core(query)
            if key not in seen:
                seen.add(key)
                unseen.append(query)
        assert len(unseen) >= 8
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(scenario.queries[:8])
            recorded = faultinject.flood_telemetry(
                service.stores.telemetry, batches=1200, per_batch=3
            )
            retained = len(service.stores.telemetry)
            assert retained < recorded, "the sink bound did not drop anything"
            results = service.evaluate(scenario.queries[8:16])  # consumes the flood
            stats = service.stats()
            json.dumps(stats)  # the endpoint stays serialisable mid-flood
            half = len(unseen) // 2
            for batch in (unseen[:half], unseen[half:]):
                before = routed_solves(service)
                service.evaluate(batch)
                assert routed_solves(service) - before == len(batch)
        assert len(results) == 8
        assert stats["queries_served"] == 16


class TestServiceMonitor:
    """Unit tests for the grading logic, no processes involved."""

    def test_beat_and_board_snapshot(self):
        board = {}
        beat(board, 11, "chunk-start", now=100.0)
        beat(board, 12, "chunk-done", now=101.0)
        monitor = ServiceMonitor(heartbeats=board, deadline_seconds=5.0)
        snapshot = monitor.board_snapshot()
        assert snapshot[11] == (100.0, "chunk-start")
        assert snapshot[12] == (101.0, "chunk-done")

    def test_mid_chunk_silence_grades_unhealthy(self):
        board = {}
        beat(board, 1, "chunk-start", now=100.0)
        beat(board, 2, "chunk-done", now=100.0)
        monitor = ServiceMonitor(heartbeats=board, deadline_seconds=5.0)
        # Well past the deadline: the worker stuck mid-chunk is graded
        # unhealthy, the idle one (chunk finished, waiting for work) is
        # not — idle workers do not beat.
        health = {w.worker_id: w.healthy for w in monitor.worker_health(now=200.0)}
        assert health == {1: False, 2: True}
        assert [w.worker_id for w in monitor.unhealthy_workers(now=200.0)] == [1]

    def test_within_deadline_is_healthy(self):
        board = {}
        beat(board, 1, "chunk-start", now=100.0)
        monitor = ServiceMonitor(heartbeats=board, deadline_seconds=5.0)
        assert monitor.unhealthy_workers(now=103.0) == []

    def test_no_deadline_disables_grading(self):
        board = {}
        beat(board, 1, "chunk-start", now=0.0)
        monitor = ServiceMonitor(heartbeats=board, deadline_seconds=None)
        assert monitor.unhealthy_workers(now=1e9) == []

    def test_forget_worker_drops_board_entry(self):
        board = {}
        beat(board, 1, "chunk-start", now=100.0)
        monitor = ServiceMonitor(heartbeats=board, deadline_seconds=1.0)
        monitor.forget_worker(1)
        monitor.forget_worker(999)  # absent: a no-op, not an error
        assert monitor.board_snapshot() == {}

    def test_recycle_events_accumulate(self):
        monitor = ServiceMonitor()
        monitor.observe_recycle("broken-pool", redispatched=3)
        monitor.observe_recycle("chunk-deadline", redispatched=2)
        monitor.observe_deadline_expiry()
        assert monitor.recycles == 2
        assert monitor.redispatched_chunks == 5
        assert monitor.deadline_expiries == 1
        info = monitor.info()
        assert [e["reason"] for e in info["recycle_events"]] == [
            "broken-pool",
            "chunk-deadline",
        ]

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ValueError):
            ServiceMonitor(deadline_seconds=0.0)
