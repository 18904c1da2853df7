"""Tests for the query-service front-end (:mod:`repro.service.frontend`)."""

import math
import multiprocessing
import pickle
from collections import Counter

import pytest

from conftest import restated, sent_to_pool
from repro.classification import ComplexityDegree, PlannerConfig, classify_structure
from repro.cq import evaluate_query_set_sequential, parse_query
from repro.eval import ExecutorConfig
from repro.service import QueryService, SolveSample
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
        config = ExecutorConfig(workers=2, chunk_size=5)
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


class TestFailedFlush:
    """A batch that raises a retryable error stays queued with every later
    batch for one retry; one whose retry raises too, or that raises
    anything else, leaves the queue and goes with the exception, and the
    next flush serves the batches behind it."""

    def test_a_blown_deadline_is_retried_once_then_handed_back(self, scenario):
        from repro.exceptions import DeadlineExceededError

        with QueryService(
            scenario.database,
            executor=ExecutorConfig(workers=1),
            batch_size=7,
            batch_deadline_seconds=1e-9,
        ) as service:
            for query in scenario.queries:
                service.submit(query)
            with pytest.raises(DeadlineExceededError) as raised:
                service.flush()
            assert not hasattr(raised.value, "failed_batch")
            stats = service.stats()
            assert (stats["pending"], stats["queries_served"]) == (30, 0)
            # The retry raises too: the batch goes with the exception.
            with pytest.raises(DeadlineExceededError) as raised:
                service.flush()
            assert raised.value.failed_batch == list(scenario.queries[:7])
            assert service.stats()["pending"] == 23
            # The next batch gets its own retry.
            with pytest.raises(DeadlineExceededError) as raised:
                service.flush()
            assert not hasattr(raised.value, "failed_batch")
            stats = service.stats()
            assert (stats["pending"], stats["queries_served"]) == (23, 0)
            blown = stats["metrics"]["repro_deadline_exceeded_total"]["samples"]
            assert blown[""] == 3

    @pytest.mark.parametrize("retryable", ["deadline", "store"])
    def test_a_retryable_second_batch_stays_queued(
        self, scenario, reference, monkeypatch, retryable
    ):
        from repro.eval import EvalService
        from repro.exceptions import DeadlineExceededError, StoreUnavailableError

        error = {"deadline": DeadlineExceededError, "store": StoreUnavailableError}
        original = EvalService.evaluate
        calls = []

        def failing_second_and_third(service, *args, **kwargs):
            calls.append(1)
            if len(calls) in (2, 4):  # batch 2, then batch 3 after batch 2's retry
                raise error[retryable]("batch failed")
            return original(service, *args, **kwargs)

        monkeypatch.setattr(EvalService, "evaluate", failing_second_and_third)
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), batch_size=7
        ) as service:
            for query in scenario.queries:
                service.submit(query)
            with pytest.raises(error[retryable], match="batch failed") as raised:
                service.flush()
            assert not hasattr(raised.value, "failed_batch")
            stats = service.stats()
            assert (stats["pending"], stats["queries_served"]) == (23, 7)
            # Batch 2's retry is answered; batch 3 gets a retry of its own.
            with pytest.raises(error[retryable], match="batch failed") as raised:
                service.flush()
            assert not hasattr(raised.value, "failed_batch")
            stats = service.stats()
            assert (stats["pending"], stats["queries_served"]) == (16, 14)
            results = service.flush()
            assert service.stats()["pending"] == 0
        assert triples(results) == triples(reference[14:])

    def test_a_failed_second_batch_goes_with_the_exception(
        self, scenario, reference, monkeypatch
    ):
        from repro.eval import EvalService

        original = EvalService.evaluate
        calls = []

        def failing_second(service, *args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("batch failed")
            return original(service, *args, **kwargs)

        monkeypatch.setattr(EvalService, "evaluate", failing_second)
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), batch_size=7
        ) as service:
            for query in scenario.queries:
                service.submit(query)
            with pytest.raises(RuntimeError, match="batch failed") as raised:
                service.flush()
            assert raised.value.failed_batch == list(scenario.queries[7:14])
            stats = service.stats()
            assert (stats["pending"], stats["queries_served"]) == (16, 7)
            later = service.flush()
            resubmitted = service.evaluate(raised.value.failed_batch)
        assert triples(later) == triples(reference[14:])
        assert triples(resubmitted) == triples(reference[7:14])

    def test_a_malformed_query_does_not_block_the_queue(self, scenario, reference):
        from repro.exceptions import VocabularyError

        malformed = parse_query("E(x, y, z)")  # E is binary in the database
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), batch_size=1
        ) as service:
            service.submit(malformed)
            service.submit(scenario.queries[0])
            with pytest.raises(VocabularyError) as raised:
                service.flush()
            assert raised.value.failed_batch == [malformed]
            assert service.stats()["pending"] == 1
            results = service.flush()
            assert service.stats()["pending"] == 0
        assert triples(results) == triples(reference[:1])


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
        config = ExecutorConfig(workers=2, chunk_size=4)
        with QueryService(scenario.database, executor=config) as service:
            service.evaluate(duplicated, mode="parallel")
            stats = service.stats()
        assert stats["shared_stores"] is True
        assert stats["classification_calls"] <= distinct

    @pytest.mark.parametrize("shared", [False, True])
    def test_workers_classifications_count_with_and_without_shared_stores(
        self, shared
    ):
        """Pool workers count where they classify; each pattern of a
        forced-parallel batch of distinct patterns is classified once."""
        scenario = scenario_by_name("mixed_vocabulary", count=60, seed=1)
        queries = distinct_patterns(scenario.queries)
        distinct = len({query.canonical_structure() for query in queries})
        config = ExecutorConfig(workers=2, chunk_size=4)
        with QueryService(scenario.database, executor=config, shared=shared) as service:
            service.evaluate(queries, mode="parallel")
            stats = service.stats()
        assert stats["shared_stores"] is shared
        assert stats["classification_calls"] == distinct

    def test_a_repeated_parallel_batch_is_answered_in_the_parent(self, monkeypatch):
        """Without the shared stores only the parent's content memo keeps
        a repeated forced-parallel batch from being classified again on
        whichever worker takes each chunk."""
        scenario = scenario_by_name("mixed_vocabulary", count=60, seed=1)
        reference = evaluate_query_set_sequential(scenario.queries, scenario.database)
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=2), shared=False
        ) as service:
            service.evaluate(scenario.queries, mode="parallel")
            calls = service.stats()["classification_calls"]
            sent = sent_to_pool(monkeypatch)
            results = service.evaluate(scenario.queries, mode="parallel")
            stats = service.stats()
        assert sent == []
        assert stats["classification_calls"] == calls
        assert triples(results) == triples(reference)

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


def distinct_cores(queries):
    """The distinct cores of the queries' patterns (a core carries its
    pattern's vocabulary)."""
    return {classify_structure(query.canonical_structure()).core for query in queries}


class TestTelemetryFromWorkers:
    def test_parallel_flush_records_worker_samples_in_the_parent(self, scenario):
        distinct = distinct_patterns(scenario.queries)
        cores = distinct_cores(distinct)
        assert len(cores) < len(distinct)
        config = ExecutorConfig(workers=2, chunk_size=4)
        with QueryService(scenario.database, executor=config) as service:
            for query in distinct:
                service.submit(query)
            service.flush(mode="parallel")
            # Every unseen pattern is solved at most once, by one worker,
            # and its sample comes back with the chunk into the parent's
            # sink.  A worker solves each core once, so how many patterns
            # that share a core are solved twice depends on which worker
            # took which chunk.
            samples = len(service.stores.telemetry)
            assert len(cores) <= samples <= len(distinct)
            assert service.stats()["stores"]["telemetry_samples"] == samples
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
        cores = distinct_cores(distinct)
        config = ExecutorConfig(workers=2, chunk_size=4)
        with QueryService(scenario.database, executor=config, shared=False) as service:
            service.evaluate(distinct, mode="parallel")
            assert len(cores) <= len(service.stores.telemetry) <= len(distinct)


def route_counts(service):
    """The ``route_solves_total`` counter, per route label value."""
    counter = service.metrics.get("route_solves_total")
    return {
        degree.value: counter.value(route=degree.value)
        for degree in ComplexityDegree
        if counter.value(route=degree.value)
    }


class TestTelemetrySamples:
    """One ``(route, seconds)`` sample per solve that ran, counted per route."""

    def test_one_sample_per_distinct_core_solved(self, scenario):
        # In one process, patterns that fold to an equal core share one
        # solve, so the samples count cores, not patterns.
        cores = distinct_cores(scenario.queries)
        assert len(cores) < len(distinct_patterns(scenario.queries))
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(scenario.queries)
            assert len(service.telemetry_samples()) == len(cores)
            assert service.stats()["stores"]["telemetry_samples"] == len(cores)

    def test_samples_carry_the_route_taken_and_its_seconds(self, scenario):
        distinct = distinct_patterns(scenario.queries)
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            results = service.evaluate(distinct)
            samples = service.telemetry_samples()
        solved = {result.profile.core: result for _, result in results}
        assert SolveSample._fields == ("route", "seconds")
        assert Counter(sample.route for sample in samples) == Counter(
            result.degree.value for result in solved.values()
        )
        for sample in samples:
            assert math.isfinite(sample.seconds) and sample.seconds >= 0.0

    def test_route_counter_counts_every_sample_once(self, scenario):
        half = len(scenario.queries) // 2
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(scenario.queries[:half])
            service.evaluate(scenario.queries)
            service.evaluate(scenario.queries)
            samples = service.telemetry_samples()
            counted = route_counts(service)
        assert counted == dict(Counter(sample.route for sample in samples))

    def test_manager_backed_stores_keep_a_sink_too(self, scenario, reference):
        # The sink is part of every store bundle, shared or local.
        cores = distinct_cores(scenario.queries)
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), shared=True
        ) as service:
            results = service.evaluate(scenario.queries)
            samples = service.telemetry_samples()
            assert len(samples) == len(cores)
            assert service.stats()["stores"]["telemetry_samples"] == len(cores)
            assert route_counts(service) == dict(Counter(s.route for s in samples))
        assert triples(results) == triples(reference)


#: Thresholds that send every core with an edge (tw, pw >= 1, td >= 2)
#: down one route.  An edgeless core (tw = pw = 0) cannot pass a
#: non-negative threshold, so the test leaves those out.
FORCING = {
    ComplexityDegree.PARA_L: PlannerConfig(50, 50, 50),
    ComplexityDegree.PATH_COMPLETE: PlannerConfig(1, 50, 50),
    ComplexityDegree.TREE_COMPLETE: PlannerConfig(1, 0, 50),
    ComplexityDegree.W1_HARD: PlannerConfig(1, 0, 0),
}


class TestForcedRoutes:
    @pytest.mark.parametrize("degree", list(ComplexityDegree), ids=lambda d: d.name)
    def test_every_route_answers_like_the_reference(self, scenario, reference, degree):
        # Every route is correct for every pattern; the thresholds only
        # pick which machinery runs.
        chosen = [
            (query, expected)
            for query, expected in reference
            if classify_structure(query.canonical_structure()).core_treewidth >= 1
        ]
        assert len(chosen) >= 10
        queries = [query for query, _ in chosen]
        with QueryService(
            scenario.database, planner=FORCING[degree], executor=ExecutorConfig(workers=1)
        ) as service:
            results = service.evaluate(queries)
            samples = service.telemetry_samples()
            counted = route_counts(service)
        assert [r.answer for _, r in results] == [e.answer for _, e in chosen]
        assert {r.degree for _, r in results} == {degree}
        assert samples and {sample.route for sample in samples} == {degree.value}
        assert counted == {degree.value: len(samples)}


class TestContentMemoInWorkers:
    def test_parallel_wave_of_fresh_copies_solves_nothing(self, scenario, reference):
        config = ExecutorConfig(workers=2, chunk_size=4)
        with QueryService(scenario.database, executor=config) as service:
            for query in scenario.queries:
                service.submit(query)
            service.flush(mode="parallel")
            solved = len(service.telemetry_samples())
            copies = [parse_query(str(query)) for query in scenario.queries]
            # The parent answers a chunk of copies by content key; one
            # restated query per chunk sends each chunk to a worker.
            copies[::4] = restated(copies[::4])
            for query in copies:
                service.submit(query)
            results = service.flush(mode="parallel")
            assert len(service.telemetry_samples()) == solved
        assert [(r.answer, r.solver) for _, r in results] == [
            (r.answer, r.solver) for _, r in reference
        ]


class TestSharedStoresContract:
    def test_a_new_service_answers_from_the_shared_stores(self, scenario):
        from repro.eval import EvalService
        from repro.service import ServiceStores, SharedStore

        stores = ServiceStores(
            profiles=SharedStore.local(), answers=SharedStore.local()
        )
        batch = scenario.queries[:6]
        config = ExecutorConfig(workers=1)
        with EvalService(scenario.database, executor=config, stores=stores) as service:
            first = service.evaluate(batch)
        computes = stores.profiles.info()["computes"]
        assert computes == service.classification_calls > 0
        assert len(stores.answers) == len({q.canonical_structure() for q in batch})
        # Every batch reads and writes the cross-call stores: a service
        # with a new context of its own classifies and solves nothing.
        with EvalService(scenario.database, executor=config, stores=stores) as service:
            second = service.evaluate(batch)
            assert service.classification_calls == 0
        assert stores.profiles.info()["computes"] == computes
        assert all(b is a for (_, a), (_, b) in zip(first, second))
        assert triples(second) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )


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
            "cutover",
            "mode_history",
            "monitor",
            "metrics",
        ):
            assert key in stats
        # One worker never starts a pool, so neither input is measured.
        assert stats["cutover"] == {
            "pool_startup_seconds": None,
            "chunk_overhead_seconds": None,
        }
        assert stats["mode_history"][0]["mode"] == "sequential"
        assert stats["mode_history"][0]["reason"] == "workers <= 1"


def modes(service):
    return [(h["mode"], h["reason"]) for h in service.stats()["mode_history"]]


class TestServingModes:
    """The front-end forces no mode of its own: the executor decides per batch."""

    def test_single_cpu_batches_run_in_process(self, scenario, reference, monkeypatch):
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 1)
        config = ExecutorConfig(workers=2, chunk_size=4)
        with QueryService(scenario.database, executor=config, shared=False) as service:
            results = service.evaluate(scenario.queries)
            assert modes(service) == [("sequential", "single CPU")]
        assert triples(results) == triples(reference)

    def test_small_batches_run_in_process(self, scenario, reference, monkeypatch):
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        config = ExecutorConfig(workers=2)
        with QueryService(scenario.database, executor=config, shared=False) as service:
            results = service.evaluate(scenario.queries)
            assert modes(service) == [
                ("sequential", "batch below 33 queries (workers × chunk_size + 1)")
            ]
        assert triples(results) == triples(reference)

    def test_cheap_batches_run_in_process_without_a_pool(self, scenario, monkeypatch):
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        config = ExecutorConfig(workers=2, chunk_size=4)
        # Three distinct queries asked ten times each: far less work
        # than a new pool costs to start.
        batch = list(scenario.queries[:3]) * 10
        with QueryService(scenario.database, executor=config, shared=False) as service:
            results = service.evaluate(batch)
            [(mode, reason)] = modes(service)
            assert mode == "sequential"
            assert reason.startswith("30 queries took")
            assert service._eval._pool is None
            assert service.stats()["cutover"] == {
                "pool_startup_seconds": None,
                "chunk_overhead_seconds": None,
            }
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )

    def test_a_forced_mode_reaches_the_executor(self, scenario, reference, monkeypatch):
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        config = ExecutorConfig(workers=2)
        with QueryService(scenario.database, executor=config, shared=False) as service:
            results = service.evaluate(scenario.queries, mode="sequential")
            assert modes(service) == [("sequential", "forced by caller")]
            assert service._eval._pool is None
        assert triples(results) == triples(reference)
