"""Tests for the EVAL(Φ) execution service (:mod:`repro.eval.executor`)."""

import itertools
import multiprocessing
import os
import pickle
import time
from types import SimpleNamespace

import pytest

from conftest import restated, sent_to_pool
from repro.classification import ComplexityDegree, PlannerConfig, classify_structure
from repro.classification.solver_dispatch import DEFAULT_PLANNER_CONFIG, SolveResult
from repro.cq import (
    ConjunctiveQuery,
    Database,
    QueryAtom,
    evaluate_query_set,
    evaluate_query_set_sequential,
    evaluate_query_set_stream,
    parse_query,
)
from repro.cq.evaluation import clear_profile_cache
from repro.decomposition.treedepth_engine import TreedepthEngine
from repro.decomposition.width_engine import PathwidthEngine, TreewidthEngine
from repro.eval import EvalService, ExecutorConfig
from repro.eval.executor import INFLIGHT_FACTOR, POOL_STARTUP_PRIOR_SECONDS, _chunks
from repro.exceptions import DeadlineExceededError, VocabularyError
from repro.service import DeadlineBudget, ServiceStores, SharedStore, TelemetrySink
from repro.structures import Structure, clique
from repro.structures.indexes import RelationIndex, structure_index
from repro.workloads import scenario_by_name


def triples(results):
    """The byte-comparable projection: (query text, answer, solver)."""
    return [(str(query), result.answer, result.solver) for query, result in results]


@pytest.fixture(scope="module")
def scenario():
    return scenario_by_name("mixed_vocabulary", count=40, seed=17)


class TestExecutorConfig:
    def test_defaults_resolve_to_at_least_one_worker(self):
        assert ExecutorConfig().effective_workers() >= 1

    def test_zero_workers_resolve_to_one(self):
        assert ExecutorConfig(workers=0).effective_workers() == 1

    @pytest.mark.parametrize(
        "kwargs", [{"workers": -1}, {"chunk_size": 0}, {"max_recycles": -1}]
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutorConfig(**kwargs)

    def test_chunks_cover_input_in_order(self):
        chunks = list(_chunks(range(10), 3))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert list(itertools.chain.from_iterable(chunks)) == list(range(10))


class TestParallelEquivalence:
    def test_parallel_results_byte_identical_to_sequential(self, scenario):
        sequential = evaluate_query_set_sequential(scenario.queries, scenario.database)
        config = ExecutorConfig(workers=2, chunk_size=5)
        with EvalService(scenario.database, executor=config) as service:
            parallel = service.evaluate(scenario.queries, mode="parallel")
            assert service.last_mode == "parallel"
            # Pool reuse: a second batch over the same service still
            # matches.  Restated, it reaches the running pool rather than
            # the parent's memo.
            again = service.evaluate(restated(scenario.queries[:10]), mode="parallel")
            assert service.last_mode == "parallel"
        assert triples(parallel) == triples(sequential)
        assert triples(again) == triples(
            evaluate_query_set_sequential(
                restated(scenario.queries[:10]), scenario.database
            )
        )

    def test_evaluate_query_set_routes_through_the_service(self, scenario):
        sequential = evaluate_query_set(scenario.queries, scenario.database)
        parallel = evaluate_query_set(scenario.queries, scenario.database, workers=2)
        assert triples(parallel) == triples(sequential)

    def test_small_batches_stay_in_process(self, scenario):
        # A batch the pool could never take must not pay for a pool.
        config = ExecutorConfig(workers=2)
        with EvalService(scenario.database, executor=config) as service:
            results = service.evaluate(scenario.queries[:5])
            assert service._pool is None  # no pool was created
        assert triples(results) == triples(
            evaluate_query_set_sequential(scenario.queries[:5], scenario.database)
        )

    def test_workers_and_conflicting_executor_config_rejected(self, scenario):
        with pytest.raises(ValueError):
            evaluate_query_set(
                scenario.queries,
                scenario.database,
                workers=3,
                executor=ExecutorConfig(workers=2),
            )


class TestStreaming:
    def test_stream_preserves_input_order(self, scenario):
        config = ExecutorConfig(workers=2, chunk_size=4)
        with EvalService(scenario.database, executor=config) as service:
            streamed = list(
                service.evaluate_stream(iter(scenario.queries), mode="parallel")
            )
            assert service.last_mode == "parallel"
        assert triples(streamed) == triples(
            evaluate_query_set_sequential(scenario.queries, scenario.database)
        )

    def test_stream_is_lazy_on_the_sequential_path(self, scenario):
        consumed = []

        def tracking():
            for query in scenario.queries:
                consumed.append(query)
                yield query

        stream = evaluate_query_set_stream(tracking(), scenario.database)
        first = next(stream)
        assert first[0] is scenario.queries[0]
        # Only a prefix of the input has been pulled, not the whole batch.
        assert len(consumed) < len(scenario.queries)
        stream.close()

    def test_stream_window_bounds_inflight_chunks(self, scenario):
        # With more chunks than the window holds the stream still
        # terminates and stays ordered.
        config = ExecutorConfig(workers=2, chunk_size=2)
        assert len(scenario.queries) > config.workers * INFLIGHT_FACTOR * config.chunk_size
        with EvalService(scenario.database, executor=config) as service:
            streamed = list(service.evaluate_stream(scenario.queries, mode="parallel"))
            assert service.last_mode == "parallel"
        assert triples(streamed) == triples(
            evaluate_query_set_sequential(scenario.queries, scenario.database)
        )


class TestIntrospection:
    def test_service_plan_is_the_route_taken(self, scenario):
        reference = evaluate_query_set_sequential(scenario.queries, scenario.database)
        strict = PlannerConfig(
            treedepth_threshold=1, pathwidth_threshold=1, treewidth_threshold=1
        )
        with EvalService(
            scenario.database, planner=strict, executor=ExecutorConfig(workers=1)
        ) as service:
            planned = [service.plan(query).degree for query in scenario.queries]
            results = service.evaluate(scenario.queries)
        assert planned == [result.degree for _, result in results]
        assert planned != [result.degree for _, result in reference]
        assert [r.answer for _, r in results] == [r.answer for _, r in reference]

    def test_statistics_reflect_query_vocabulary(self):
        scenario = scenario_by_name("grid_walks", count=3, seed=1)
        service = EvalService(scenario.database)
        stats = service.statistics(parse_query("E(x, y)"))
        assert stats.universe_size == 36
        assert stats.relation_sizes["E"] == 120

    @pytest.mark.parametrize("mode", ["sequential", "parallel"])
    def test_batches_run_in_the_context_it_hands_out(self, scenario, mode):
        batch = scenario.queries[:12]
        config = ExecutorConfig(workers=2, chunk_size=4)
        with EvalService(scenario.database, executor=config) as service:
            context = service.context()
            results = service.evaluate(batch, mode=mode)
            assert service.context() is context
            held = context.by_content.get_many([query.content_key() for query in batch])
        assert all(result is memo for (_, result), memo in zip(results, held))
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )

    def test_a_planned_query_is_classified_once(self, scenario):
        query = scenario.queries[0]
        clear_profile_cache()
        with EvalService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            plan = service.plan(query)
            assert service.classification_calls == 1
            ((_, result),) = service.evaluate([query])
            assert service.classification_calls == 1
        assert result.degree is plan.degree

    def test_a_handed_over_batch_is_held_whole_in_the_context(
        self, scenario, monkeypatch
    ):
        # The head's results and the pool's land in the same context.
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        original = executor_module.solve_with_degree

        def slow(*args, **kwargs):
            time.sleep(0.025)
            return original(*args, **kwargs)

        monkeypatch.setattr(executor_module, "solve_with_degree", slow)
        batch = list(scenario.queries[: 2 * 4 + 4])
        with EvalService(
            scenario.database, executor=ExecutorConfig(workers=2, chunk_size=4)
        ) as service:
            results = service.evaluate(batch)
            assert service.last_mode == "parallel"
            held = service.context().by_content.get_many(keys_of(batch))
        assert all(result is memo for (_, result), memo in zip(results, held))
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )


class TestMeasuredCutover:
    """Unforced batches start in-process and hand over once the pool pays."""

    def test_single_cpu_cuts_over_to_sequential(self, scenario, monkeypatch):
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 1)
        config = ExecutorConfig(workers=2)
        with EvalService(scenario.database, executor=config) as service:
            results = service.evaluate(scenario.queries)
            assert service.last_mode == "sequential"
            assert "single CPU" in service.last_mode_reason
        assert triples(results) == triples(
            evaluate_query_set_sequential(scenario.queries, scenario.database)
        )

    def test_cheap_batch_never_starts_a_pool(self, scenario, monkeypatch):
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        config = ExecutorConfig(workers=2)
        # Three distinct queries, each asked twenty times: a few
        # milliseconds of work, below what a new pool costs to start.
        batch = list(scenario.queries[:3]) * 20
        with EvalService(scenario.database, executor=config) as service:
            results = service.evaluate(batch)
            assert service._pool is None
            assert service.last_mode == "sequential"
            assert "in-process" in service.last_mode_reason
            assert service.pool_startup_seconds is None
            assert service.chunk_overhead_seconds is None
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the slowed solver reaches pool workers only by fork",
    )
    def test_slow_batch_hands_the_rest_to_the_pool(self, scenario, monkeypatch):
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        parent = os.getpid()
        parent_solves = []
        original = executor_module.solve_with_degree

        def slow(*args, **kwargs):
            if os.getpid() == parent:
                parent_solves.append(1)
            time.sleep(0.025)
            return original(*args, **kwargs)

        monkeypatch.setattr(executor_module, "solve_with_degree", slow)
        config = ExecutorConfig(workers=2, chunk_size=4)
        batch = list(scenario.queries[: 2 * 4 + 4])
        later = list(scenario.queries[12:24])
        with EvalService(scenario.database, executor=config) as service:
            results = service.evaluate(batch)
            assert service.last_mode == "parallel"
            assert "in-process" in service.last_mode_reason
            assert 1 <= len(parent_solves) < len(batch)
            assert service.pool_startup_seconds >= 0.0
            # A second batch on the running pool measures the chunk overhead.
            more = service.evaluate(later)
            assert service.last_mode == "parallel"
            assert service.chunk_overhead_seconds >= 0.0
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )
        assert triples(more) == triples(
            evaluate_query_set_sequential(later, scenario.database)
        )

    def test_stream_is_pulled_at_most_a_chunk_per_worker_ahead(
        self, scenario, monkeypatch
    ):
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        config = ExecutorConfig(workers=2, chunk_size=4)
        queries = list(scenario.queries[:3]) * 20
        pulled = []

        def tracking():
            for query in queries:
                pulled.append(query)
                yield query

        with EvalService(scenario.database, executor=config) as service:
            yielded = 0
            for _ in service.evaluate_stream(tracking()):
                yielded += 1
                assert len(pulled) - yielded <= 2 * 4
            assert service.last_mode == "sequential"
            assert service._pool is None
        assert yielded == len(queries)

    def test_a_single_worker_stream_is_pulled_less_than_a_chunk_ahead(
        self, scenario
    ):
        from repro.cq.evaluation import evaluate_query_set_stream

        chunk_size = ExecutorConfig().chunk_size
        queries = list(scenario.queries[:3]) * 20
        pulled = []

        def tracking():
            for query in queries:
                pulled.append(query)
                yield query

        results = []
        for pair in evaluate_query_set_stream(tracking(), scenario.database):
            results.append(pair)
            assert len(pulled) - len(results) < chunk_size
        assert triples(results) == triples(
            evaluate_query_set_sequential(queries, scenario.database)
        )

    def test_small_batches_record_sequential_mode(self, scenario):
        config = ExecutorConfig(workers=2)
        with EvalService(scenario.database, executor=config) as service:
            service.evaluate(scenario.queries[:4])
            assert service.last_mode == "sequential"
            assert service.last_mode_reason == (
                "batch below 33 queries (workers × chunk_size + 1)"
            )

    def test_single_cpu_stream_matches_reference(self, scenario, monkeypatch):
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 1)
        config = ExecutorConfig(workers=4)
        with EvalService(scenario.database, executor=config) as service:
            streamed = list(service.evaluate_stream(iter(scenario.queries)))
        assert triples(streamed) == triples(
            evaluate_query_set_sequential(scenario.queries, scenario.database)
        )


class HandoverProbe:
    """Drives the serial/parallel decision on a clock the test controls.

    Every in-process solve takes :attr:`seconds_per_query` on the clock
    the executor reads.  A service passed to :meth:`attach` records its
    hand-over instead of starting a pool: :attr:`handovers` gets the
    number of solves made before it and the remainder it was given, and
    the remainder is then solved in-process, so answers stay comparable.
    """

    def __init__(self, seconds_per_query):
        self.seconds_per_query = seconds_per_query
        #: Prices of the next solves, in order, before the default applies.
        self.costs = []
        self.now = 0.0
        self.solves = 0
        self.handovers = []
        #: Called at the hand-over, before the remainder is pulled.
        self.on_handover = None

    def perf_counter(self):
        return self.now

    def next_cost(self):
        return self.costs.pop(0) if self.costs else self.seconds_per_query

    def attach(self, service):
        def parallel(queries, deadline=None):
            if self.on_handover is not None:
                self.on_handover()
            rest = list(queries)
            self.handovers.append((self.solves, rest))
            return service._evaluate_sequential(rest, deadline)

        service._evaluate_parallel = parallel
        return service


@pytest.fixture
def probe(monkeypatch):
    """Eight visible CPUs, and in-process solves priced on a fake clock.

    The default price puts the pool start-up prior between the third
    and the fourth query of a batch.
    """
    import repro.eval.executor as executor_module

    probe = HandoverProbe(POOL_STARTUP_PRIOR_SECONDS / 3.5)
    monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(
        executor_module,
        "time",
        SimpleNamespace(perf_counter=probe.perf_counter, monotonic=time.monotonic),
    )
    original = executor_module._EvaluationContext.solve

    def solve(context, query, deadline=None):
        probe.now += probe.next_cost()
        probe.solves += 1
        return original(context, query, deadline)

    monkeypatch.setattr(executor_module._EvaluationContext, "solve", solve)
    return probe


#: Two workers of four-query chunks: a hand-over needs eight queries left.
HANDOVER_CONFIG = ExecutorConfig(workers=2, chunk_size=4)


class TestHandoverDecision:
    """The three conditions of the hand-over, on a fake clock and a stub pool."""

    def test_head_runs_until_it_has_paid_the_pool_startup_price(
        self, scenario, probe
    ):
        batch = list(scenario.queries)
        with EvalService(scenario.database, executor=HANDOVER_CONFIG) as service:
            results = probe.attach(service).evaluate(batch)
            assert service.last_mode == "parallel"
            assert service._pool is None
        # 3 queries cost 3/3.5 of the start-up prior, 4 cost more than it.
        assert [head for head, _ in probe.handovers] == [4]
        assert probe.handovers[0][1] == batch[4:]
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )

    @pytest.mark.parametrize("measured, head", [(8.5, 9), (0.5, 4)])
    def test_a_measured_startup_raises_the_price_but_never_lowers_it(
        self, scenario, probe, measured, head
    ):
        with EvalService(scenario.database, executor=HANDOVER_CONFIG) as service:
            service.pool_startup_seconds = measured * probe.seconds_per_query
            probe.attach(service).evaluate(scenario.queries)
        assert [h for h, _ in probe.handovers] == [head]

    def test_a_restarted_pool_hands_over_no_earlier_than_a_fresh_service(
        self, scenario, probe
    ):
        # Three cheap queries, a slow one, then cheap ones again: right
        # after the slow query the batch mean overprices the rest, and a
        # start-up priced at what the last pool measured would hand over
        # there.  Priced at the prior, the head runs on to 9 queries.
        prior = POOL_STARTUP_PRIOR_SECONDS
        costs = [0.07 * prior] * 3 + [0.5 * prior] + [0.07 * prior] * 36
        batch = list(scenario.queries)
        with EvalService(scenario.database, executor=HANDOVER_CONFIG) as fresh:
            probe.costs = list(costs)
            probe.attach(fresh).evaluate(batch)
        with EvalService(scenario.database, executor=HANDOVER_CONFIG) as service:
            service.evaluate(batch[:8], mode="parallel")
            service.restart_pool()
            assert service._pool is None
            service.pool_startup_seconds = 0.25 * prior
            probe.solves = 0
            probe.costs = list(costs)
            results = probe.attach(service).evaluate(batch)
            assert service.last_mode == "parallel"
        assert [head for head, _ in probe.handovers] == [9, 9]
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )

    def test_a_running_pool_makes_the_startup_free(self, scenario, probe):
        batch = list(scenario.queries)
        with EvalService(scenario.database, executor=HANDOVER_CONFIG) as service:
            service.evaluate(batch[:8], mode="parallel")
            assert service._pool is not None
            service.pool_startup_seconds = 3.5 * probe.seconds_per_query
            probe.solves = 0
            results = probe.attach(service).evaluate(batch)
            assert service.last_mode == "parallel"
        assert [head for head, _ in probe.handovers] == [1]
        assert probe.handovers[0][1] == batch[1:]
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )

    def test_a_new_pool_prices_its_startup_into_the_rest(self, scenario, probe):
        # With 1.8 queries of overhead per four-query chunk, two workers
        # finish any rest of fewer than 70 queries sooner only while the
        # pool is already running: a new pool's start-up, paid after the
        # hand-over, tips the balance back to in-process.
        batch = list(scenario.queries)
        overhead = 1.8 * probe.seconds_per_query
        with EvalService(scenario.database, executor=HANDOVER_CONFIG) as fresh:
            fresh.chunk_overhead_seconds = overhead
            results = probe.attach(fresh).evaluate(batch)
            assert fresh.last_mode == "sequential"
        assert probe.handovers == []
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )
        with EvalService(scenario.database, executor=HANDOVER_CONFIG) as service:
            service.evaluate(batch[:8], mode="parallel")
            assert service._pool is not None
            service.chunk_overhead_seconds = overhead
            probe.solves = 0
            results = probe.attach(service).evaluate(batch)
            assert service.last_mode == "parallel"
        assert [head for head, _ in probe.handovers] == [1]
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )

    @pytest.mark.parametrize("size, head", [(11, None), (12, 4)])
    def test_a_full_chunk_per_worker_must_remain(self, scenario, probe, size, head):
        # After the four-query head, 12 queries leave 8 (a chunk for each
        # of the two workers) and 11 leave 7, which stay in-process.
        batch = list(scenario.queries[:size])
        with EvalService(scenario.database, executor=HANDOVER_CONFIG) as service:
            results = probe.attach(service).evaluate(batch)
            assert service.last_mode == ("sequential" if head is None else "parallel")
        assert [h for h, _ in probe.handovers] == ([] if head is None else [head])
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )

    @pytest.mark.parametrize("overhead_queries, head", [(1.5, 4), (2.5, None)])
    def test_the_pool_must_finish_the_rest_sooner(
        self, scenario, probe, overhead_queries, head
    ):
        # Two workers halve the rest; four-query chunks add the overhead
        # once per four queries.  That saves time only while one chunk's
        # overhead costs less than two queries.
        with EvalService(scenario.database, executor=HANDOVER_CONFIG) as service:
            service.chunk_overhead_seconds = overhead_queries * probe.seconds_per_query
            probe.attach(service).evaluate(scenario.queries)
            assert service.last_mode == ("sequential" if head is None else "parallel")
        assert [h for h, _ in probe.handovers] == ([] if head is None else [head])

    def test_handover_reason_names_the_measured_seconds(self, scenario, probe):
        probe.seconds_per_query = 0.006
        with EvalService(scenario.database, executor=HANDOVER_CONFIG) as service:
            service.pool_startup_seconds = 0.020
            service.chunk_overhead_seconds = 0.001
            probe.attach(service).evaluate(scenario.queries)
            assert service.last_mode_reason == (
                "4 queries took 24.0 ms in-process (pool start-up 20.0 ms); "
                "the other 36 need ~216.0 ms here, ~137.0 ms on the pool with "
                "its start-up and 1.00 ms per chunk"
            )

    def test_in_process_reason_names_the_measured_seconds(self, scenario, probe):
        probe.seconds_per_query = 0.006
        with EvalService(scenario.database, executor=HANDOVER_CONFIG) as service:
            service.pool_startup_seconds = 0.020
            service.chunk_overhead_seconds = 0.001
            probe.attach(service).evaluate(scenario.queries[:11])
            assert service.last_mode == "sequential"
            assert service.last_mode_reason == (
                "11 queries took 66.0 ms in-process; pool start-up 20.0 ms, "
                "1.00 ms per chunk"
            )

    def test_an_unsized_stream_is_pulled_a_chunk_per_worker_ahead(
        self, scenario, probe
    ):
        batch = list(scenario.queries)
        pulled = []

        def tracking():
            for query in batch:
                pulled.append(query)
                yield query

        pulled_at_handover = []
        probe.on_handover = lambda: pulled_at_handover.append(len(pulled))
        with EvalService(scenario.database, executor=HANDOVER_CONFIG) as service:
            streamed = list(probe.attach(service).evaluate_stream(tracking()))
        # The same head as the list; the remainder holds the 8 queries
        # looked ahead plus the untouched rest of the stream.
        assert pulled_at_handover == [4 + 8]
        assert [head for head, _ in probe.handovers] == [4]
        assert probe.handovers[0][1] == batch[4:]
        assert triples(streamed) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )

    def test_head_results_are_yielded_before_the_handover(self, scenario, probe):
        received = []
        received_at_handover = []
        probe.on_handover = lambda: received_at_handover.append(list(received))
        with EvalService(scenario.database, executor=HANDOVER_CONFIG) as service:
            for query, _ in probe.attach(service).evaluate_stream(scenario.queries):
                received.append(query)
        assert received_at_handover == [list(scenario.queries[:4])]
        assert received == list(scenario.queries)

    def test_head_telemetry_reaches_the_sink_before_the_handover(
        self, scenario, probe, solve_calls
    ):
        stores = ServiceStores(telemetry=TelemetrySink())
        at_handover = []
        probe.on_handover = lambda: at_handover.append(
            (len(stores.telemetry), len(solve_calls))
        )
        with EvalService(
            scenario.database, executor=HANDOVER_CONFIG, stores=stores
        ) as service:
            probe.attach(service).evaluate(scenario.queries)
        # One sample per solve the head ran, recorded before the pool starts.
        [(samples, solves)] = at_handover
        assert samples == solves >= 1

    def test_a_batch_the_pool_could_not_take_is_not_timed(self, scenario, probe):
        # With the pool running its start-up is free, so one timed query
        # with a full chunk per worker behind it hands over: workers ×
        # chunk_size + 1 queries is the least batch the pool can take.
        full = HANDOVER_CONFIG.workers * HANDOVER_CONFIG.chunk_size
        batch = list(scenario.queries[8 : 8 + full + 1])
        with EvalService(scenario.database, executor=HANDOVER_CONFIG) as service:
            service.evaluate(scenario.queries[:8], mode="parallel")
            probe.attach(service)
            service.evaluate(batch[:full])
            assert service.last_mode == "sequential"
            assert service.last_mode_reason == (
                f"batch below {full + 1} queries (workers × chunk_size + 1)"
            )
            assert probe.solves == 0 and probe.handovers == []
            results = service.evaluate(batch)
            assert service.last_mode == "parallel"
        assert [(head, rest) for head, rest in probe.handovers] == [(1, batch[1:])]
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )

    def test_empty_stream_starts_no_pool(self, scenario, probe):
        with EvalService(scenario.database, executor=HANDOVER_CONFIG) as service:
            assert list(probe.attach(service).evaluate_stream(iter([]))) == []
            assert service.last_mode == "sequential"
            assert service.last_mode_reason == "empty batch"
            assert service._pool is None
        assert probe.handovers == []

    def test_expired_deadline_stops_the_head(self, scenario, probe):
        expired = DeadlineBudget(expires_at=time.monotonic() - 1.0)
        with EvalService(scenario.database, executor=HANDOVER_CONFIG) as service:
            with pytest.raises(DeadlineExceededError):
                probe.attach(service).evaluate(scenario.queries, deadline=expired)
        assert probe.solves == 0
        assert probe.handovers == []


class TestPoolMeasurements:
    """The two measured inputs, taken from real pool batches."""

    def test_a_fresh_pool_measures_startup_and_a_running_one_overhead(
        self, scenario
    ):
        config = ExecutorConfig(workers=2, chunk_size=4)
        with EvalService(scenario.database, executor=config) as service:
            service.evaluate(scenario.queries[:16], mode="parallel")
            assert service.pool_startup_seconds >= 0.0
            assert service.chunk_overhead_seconds is None
            service.evaluate(scenario.queries[16:], mode="parallel")
            overhead = service.chunk_overhead_seconds
            assert overhead >= 0.0
            # A new pool measures its start-up again and leaves the
            # per-chunk overhead as the running pool measured it.  The
            # parent holds the first batch, so it goes restated.
            service.restart_pool()
            service.pool_startup_seconds = None
            service.evaluate(restated(scenario.queries[:16]), mode="parallel")
            assert service.pool_startup_seconds >= 0.0
            assert service.chunk_overhead_seconds == overhead

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the slowed solver reaches pool workers only by fork",
    )
    def test_one_slow_chunk_does_not_keep_the_next_batch_off_the_pool(
        self, scenario, monkeypatch
    ):
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        batch = list(scenario.queries)
        slow = str(batch[16])

        def slowed(name):
            original = getattr(executor_module._EvaluationContext, name)

            def solve(context, query, deadline=None):
                time.sleep(0.165 if str(query) == slow else 0.004)
                return original(context, query, deadline)

            monkeypatch.setattr(executor_module._EvaluationContext, name, solve)

        # The in-process head times ``solve`` per query; a worker solves
        # each miss through ``solve_miss`` (forked workers inherit both).
        slowed("solve")
        slowed("solve_miss")
        config = ExecutorConfig(workers=2, chunk_size=4)
        later = [query for query in batch[:16] + batch[32:] if str(query) != slow]
        with EvalService(scenario.database, executor=config) as service:
            service.evaluate(batch[:8], mode="parallel")
            # Four chunks on the running pool; the first holds a 165 ms
            # query, so one worker idles while it finishes.  Charged as
            # overhead, that idling would read ~16 ms per chunk; the next
            # batch hands over only below ~9 ms per chunk.
            service.evaluate(batch[16:32], mode="parallel")
            assert service.chunk_overhead_seconds < 0.008
            results = service.evaluate(later)
            assert service.last_mode == "parallel"
        assert triples(results) == triples(
            evaluate_query_set_sequential(later, scenario.database)
        )

    def test_the_consumers_time_between_results_is_not_pool_overhead(
        self, scenario
    ):
        config = ExecutorConfig(workers=2, chunk_size=4)
        with EvalService(scenario.database, executor=config) as service:
            service.evaluate(scenario.queries[:8], mode="parallel")
            stream = service.evaluate_stream(scenario.queries[8:24], mode="parallel")
            for _ in stream:
                time.sleep(0.025)
            # The consumer held each of the four chunks for 100 ms.
            assert 0.0 <= service.chunk_overhead_seconds < 0.025

    def test_chunk_returns_the_seconds_its_worker_spent_solving(
        self, scenario, monkeypatch
    ):
        import repro.eval.executor as executor_module

        original = executor_module.solve_with_degree
        solves = []

        def slow(*args, **kwargs):
            solves.append(1)
            time.sleep(0.005)
            return original(*args, **kwargs)

        monkeypatch.setattr(executor_module, "solve_with_degree", slow)
        monkeypatch.setattr(executor_module, "_WORKER_CONTEXT", None)
        executor_module._initialize_worker(scenario.database, DEFAULT_PLANNER_CONFIG)
        chunk = tuple(scenario.queries[:4])
        payload = executor_module._evaluate_chunk(
            tuple(query.content_key() for query in chunk)
        )
        # Untimed workers return no samples, but always their busy seconds.
        assert payload.samples == []
        assert len(solves) >= 1
        assert payload.busy >= 0.005 * len(solves)
        # A worker's first chunk ships every result object it answers with.
        results = [payload.fresh[number] for number in payload.numbers]
        assert triples(zip(chunk, results)) == triples(
            evaluate_query_set_sequential(list(chunk), scenario.database)
        )


class TestWireFormat:
    """A chunk travels to the pool as plain content keys, not query objects."""

    def test_a_pickled_query_names_its_module(self, scenario):
        # What the checks below look for when a query object is sent.
        assert b"repro.cq.query" in pickle.dumps(scenario.queries[0])

    def test_first_dispatch_sends_no_query_objects(self, scenario, monkeypatch):
        sent = sent_to_pool(monkeypatch)
        config = ExecutorConfig(workers=2, chunk_size=4)
        with EvalService(scenario.database, executor=config) as service:
            results = service.evaluate(scenario.queries, mode="parallel")
        assert len(sent) == len(scenario.queries) // 4
        assert all(b"repro.cq.query" not in arguments for arguments in sent)
        assert triples(results) == triples(
            evaluate_query_set_sequential(scenario.queries, scenario.database)
        )

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the injected fault reaches pool workers only by fork",
    )
    def test_a_redispatch_after_a_killed_worker_sends_no_query_objects(
        self, scenario, monkeypatch
    ):
        import faultinject

        config = ExecutorConfig(workers=2, chunk_size=4)
        with faultinject.chunk_fault(faultinject.kill_worker) as flags:
            sent = sent_to_pool(monkeypatch)
            with EvalService(scenario.database, executor=config) as service:
                results = service.evaluate(scenario.queries, mode="parallel")
            assert "armed" not in flags, "the kill never fired"
        assert len(sent) > len(scenario.queries) // 4
        assert all(b"repro.cq.query" not in arguments for arguments in sent)
        assert triples(results) == triples(
            evaluate_query_set_sequential(scenario.queries, scenario.database)
        )


class TestBrokenPoolAtSubmission:
    """A pool that broke while idle refuses ``submit``; the batch recycles it."""

    def test_a_worker_killed_between_batches_costs_a_recycle_not_the_batch(
        self, scenario
    ):
        import signal

        from repro.service import ServiceMonitor

        monitor = ServiceMonitor()
        config = ExecutorConfig(workers=2, chunk_size=4)
        with EvalService(scenario.database, executor=config, monitor=monitor) as service:
            service.evaluate(scenario.queries[:8], mode="parallel")
            pool = service._pool
            os.kill(next(iter(pool._processes)), signal.SIGKILL)
            waited = time.monotonic() + 10.0
            while not pool._broken and time.monotonic() < waited:
                time.sleep(0.01)
            # The pool now refuses every submission of the next batch.
            assert pool._broken
            results = service.evaluate(scenario.queries, mode="parallel")
        assert monitor.recycles == 1
        assert monitor.recycle_events[0]["reason"] == "broken-pool"
        assert triples(results) == triples(
            evaluate_query_set_sequential(scenario.queries, scenario.database)
        )


class RecordingBoard(dict):
    """A heartbeat board that also lists every event written to it."""

    def __init__(self):
        super().__init__()
        self.events = []

    def __setitem__(self, worker, entry):
        self.events.append(entry[1])
        super().__setitem__(worker, entry)


class TestHeartbeats:
    """A worker stamps the board only around chunks that compute."""

    @pytest.fixture
    def board(self, scenario, monkeypatch):
        import repro.eval.executor as executor_module

        board = RecordingBoard()
        monkeypatch.setattr(executor_module, "_WORKER_CONTEXT", None)
        executor_module._initialize_worker(
            scenario.database, DEFAULT_PLANNER_CONFIG, ServiceStores(heartbeats=board)
        )
        return board

    def test_a_chunk_of_memo_hits_writes_nothing(self, scenario, board):
        from repro.eval.executor import _evaluate_chunk

        keys = tuple(query.content_key() for query in scenario.queries[:4])
        _evaluate_chunk(keys)
        assert board.events == ["chunk-start", "chunk-done"]
        assert list(board) == [os.getpid()]
        _evaluate_chunk(keys)
        assert board.events == ["chunk-start", "chunk-done"]
        # One miss after the hits stamps both again.
        _evaluate_chunk(keys + (scenario.queries[4].content_key(),))
        assert board.events == ["chunk-start", "chunk-done"] * 2

    def test_a_worker_that_fails_mid_solve_is_left_at_chunk_start(
        self, scenario, board, monkeypatch
    ):
        import repro.eval.executor as executor_module
        from repro.service import ServiceMonitor

        def failing(*args, **kwargs):
            raise RuntimeError("solver failed")

        monkeypatch.setattr(executor_module, "solve_with_degree", failing)
        keys = tuple(query.content_key() for query in scenario.queries[:4])
        with pytest.raises(RuntimeError, match="solver failed"):
            executor_module._evaluate_chunk(keys)
        assert board.events == ["chunk-start"]
        monitor = ServiceMonitor(heartbeats=board, deadline_seconds=1.0)
        stale = [worker.worker_id for worker in monitor.unhealthy_workers(time.time() + 5)]
        assert stale == [os.getpid()]


def rebuilt(query):
    """An equal query made of new atom objects and new strings."""

    def copy(name):
        return "".join(list(name))

    return ConjunctiveQuery(
        [
            QueryAtom(copy(atom.relation), tuple(copy(v) for v in atom.variables))
            for atom in query.atoms
        ],
        extra_variables=[copy(v) for v in query.variables],
    )


def parsed(query):
    """An equal query parsed afresh from the query's text."""
    return parse_query(str(query))


class CallCount:
    """A call count that processes forked after it was made add to as well."""

    def __init__(self):
        self._value = multiprocessing.Value("i", 0)

    def add(self):
        with self._value.get_lock():
            self._value.value += 1

    def __len__(self):
        return self._value.value


@pytest.fixture
def solve_calls(monkeypatch):
    """Counts the executor's ``solve_with_degree`` calls, in this process
    and in pool workers forked while the fixture is active."""
    import repro.eval.executor as executor_module

    calls = CallCount()
    original = executor_module.solve_with_degree

    def counting(*args, **kwargs):
        calls.add()
        return original(*args, **kwargs)

    monkeypatch.setattr(executor_module, "solve_with_degree", counting)
    return calls


def two_atom_query(scenario):
    return next(q for q in scenario.queries if len(set(q.atoms)) >= 2)


class TestMemoisedResults:
    def test_duplicate_queries_share_one_solve(self, scenario, solve_calls):
        with EvalService(scenario.database) as service:
            duplicated = [scenario.queries[0]] * 5 + [scenario.queries[1]] * 5
            results = service.evaluate(duplicated)
        assert len(solve_calls) <= 2
        assert len(results) == 10
        assert triples(results) == triples(
            evaluate_query_set_sequential(duplicated, scenario.database)
        )


class TestContentMemo:
    """The context answers repeated queries by content before canonicalising."""

    @pytest.mark.parametrize("fresh", [rebuilt, parsed])
    def test_fresh_equal_query_is_served_without_canonicalising(
        self, scenario, fresh, monkeypatch
    ):
        queries = scenario.queries[:12]
        reference = evaluate_query_set_sequential(queries, scenario.database)
        copies = [fresh(query) for query in queries]
        assert [(c.atoms, c.variables) for c in copies] == [
            (q.atoms, q.variables) for q in queries
        ]
        assert all(c.atoms[0] is not q.atoms[0] for c, q in zip(copies, queries))
        with EvalService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(queries)
            calls = []
            original = ConjunctiveQuery.canonical_structure

            def counting(query):
                calls.append(1)
                return original(query)

            monkeypatch.setattr(ConjunctiveQuery, "canonical_structure", counting)
            results = service.evaluate(copies)
        assert calls == []
        assert triples(results) == triples(reference)

    def test_reordered_and_repeated_atoms_share_the_canonical_solve(
        self, scenario, solve_calls
    ):
        query = two_atom_query(scenario)
        reordered = ConjunctiveQuery(
            tuple(reversed(query.atoms)), extra_variables=query.variables
        )
        repeated = ConjunctiveQuery(
            query.atoms + query.atoms[:1], extra_variables=query.variables
        )
        for variant in (reordered, repeated):
            assert variant.content_key() != query.content_key()
            assert variant.canonical_structure() == query.canonical_structure()
        batch = [query, reordered, repeated]
        with EvalService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            (_, first), = service.evaluate([query])
            results = service.evaluate([reordered, repeated])
        assert len(solve_calls) == 1
        assert all(result is first for _, result in results)
        assert triples([(query, first)] + results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )

    def test_renamed_variables_get_their_own_result(self, scenario, solve_calls):
        query = two_atom_query(scenario)
        renamed = ConjunctiveQuery(
            [
                QueryAtom(atom.relation, tuple(f"{v}_r" for v in atom.variables))
                for atom in query.atoms
            ],
            extra_variables=[f"{v}_r" for v in query.variables],
        )
        assert renamed.canonical_structure() != query.canonical_structure()
        with EvalService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            results = service.evaluate([query, renamed])
        assert len(solve_calls) == 2
        (_, original), (_, result) = results
        assert result is not original
        assert result.profile.structure == renamed.canonical_structure()
        assert triples(results) == triples(
            evaluate_query_set_sequential([query, renamed], scenario.database)
        )

    def test_an_extra_isolated_variable_gets_its_own_result(self, scenario, solve_calls):
        query = two_atom_query(scenario)
        padded = ConjunctiveQuery(
            query.atoms, extra_variables=query.variables + ("isolated",)
        )
        assert padded.atoms == query.atoms
        with EvalService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            results = service.evaluate([query, padded])
        assert len(solve_calls) == 2
        (_, result) = results[1]
        assert result.profile.structure == padded.canonical_structure()
        assert len(result.profile.structure) == len(query.variables) + 1
        assert triples(results) == triples(
            evaluate_query_set_sequential([query, padded], scenario.database)
        )


class TestFullResults:
    """Every path returns the whole :class:`SolveResult`, profile included:
    a pool worker ships each result object once and repeats as numbers,
    so a slimmer form would save no IPC."""

    @pytest.mark.parametrize("mode", ["sequential", "parallel"])
    def test_results_equal_the_references_profiles_included(self, scenario, mode):
        clear_profile_cache()
        reference = evaluate_query_set_sequential(scenario.queries, scenario.database)
        clear_profile_cache()
        config = ExecutorConfig(workers=2, chunk_size=4)
        with EvalService(scenario.database, executor=config) as service:
            results = service.evaluate(scenario.queries, mode=mode)
            assert service.last_mode == mode
        assert all(type(result) is SolveResult for _, result in results)
        assert all(
            result.profile is not expected.profile
            for (_, result), (_, expected) in zip(results, reference)
        )
        assert [result for _, result in results] == [result for _, result in reference]
        assert [result.core_certificate for _, result in results] == [
            result.core_certificate for _, result in reference
        ]


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the slowed solver and the injected fault reach pool workers only by fork",
)


def one_per_pattern(queries):
    """The first query of each distinct canonical pattern, in input order."""
    first = {}
    for query in queries:
        first.setdefault(query.canonical_structure(), query)
    return list(first.values())


@pytest.fixture
def payloads(monkeypatch):
    """Every chunk payload the parent resolves, in the order it reads them."""
    received = []
    original = EvalService._receive

    def recording(service, payload, *args, **kwargs):
        received.append(payload)
        return original(service, payload, *args, **kwargs)

    monkeypatch.setattr(EvalService, "_receive", recording)
    return received


@pytest.fixture
def busy_workers(monkeypatch):
    """Slows every chunk by 2 ms a query, memo hits included, so that a
    chunk keeps its worker busy long enough for the other worker to take
    the next one: both workers run chunks in every wave.  The delay sits
    in the worker's numbering step, which every chunk passes through."""
    import repro.eval.executor as executor_module

    original = executor_module._EvaluationContext.ship

    def slow(context, results):
        time.sleep(0.002 * len(results))
        return original(context, results)

    monkeypatch.setattr(executor_module._EvaluationContext, "ship", slow)


@fork_only
@pytest.mark.usefixtures("busy_workers")
class TestResultNumbers:
    """A worker ships each result object once; repeats cross as numbers.

    The parent answers a batch it holds from its own content memo, so
    every wave after the first is restated (new content keys, equal
    canonical structures) and reaches the workers."""

    @pytest.fixture
    def waves(self, scenario):
        # Every chunk holds every pattern once, so any worker that runs a
        # chunk has shipped them all.  Each chunk of each wave holds its
        # own restated copy (new keys, equal canonical structures), since
        # a batch sends each content key to the pool only once.
        patterns = one_per_pattern(scenario.queries)[:8]
        return [
            [
                query
                for chunk in range(8)
                for query in restated(patterns, 8 * wave + chunk)
            ]
            for wave in range(3)
        ]

    @pytest.fixture
    def references(self, scenario, waves):
        return [evaluate_query_set_sequential(wave, scenario.database) for wave in waves]

    def test_a_second_wave_resolves_numbers_to_the_first_waves_objects(
        self, scenario, waves, references, payloads
    ):
        import pickle

        config = ExecutorConfig(workers=2, chunk_size=8)
        with EvalService(scenario.database, executor=config) as service:
            first = service.evaluate(waves[0], mode="parallel")
            assert len({payload.worker for payload in payloads}) == 2
            payloads.clear()
            second = service.evaluate(waves[1], mode="parallel")
        assert payloads
        assert all(b"SolveResult" not in pickle.dumps(payload) for payload in payloads)
        assert {id(result) for _, result in second} <= {id(result) for _, result in first}
        assert all(type(result) is SolveResult for _, result in second)
        assert triples(second) == triples(references[1])

    def test_numbers_shipped_to_a_closed_stream_are_answered_in_the_parent(
        self, scenario, waves, references, monkeypatch
    ):
        answered_here = []
        original = EvalService._solve_here

        def counting(service, query, *args, **kwargs):
            answered_here.append(query)
            return original(service, query, *args, **kwargs)

        monkeypatch.setattr(EvalService, "_solve_here", counting)
        config = ExecutorConfig(workers=2, chunk_size=8)
        with EvalService(scenario.database, executor=config) as service:
            stream = service.evaluate_stream(waves[0], mode="parallel")
            for _ in range(3):
                next(stream)
            # The chunks still in flight run to the end, and the objects
            # the second worker ships in them never reach the parent.
            stream.close()
            again = service.evaluate(waves[1], mode="parallel")
            recorded = len(answered_here)
            third = service.evaluate(waves[2], mode="parallel")
        assert recorded >= 1
        assert triples(again) == triples(references[1])
        assert triples(third) == triples(references[2])

    def test_a_restarted_pool_ships_under_new_worker_tokens(
        self, scenario, waves, references, payloads
    ):
        config = ExecutorConfig(workers=2, chunk_size=8)
        with EvalService(scenario.database, executor=config) as service:
            service.evaluate(waves[0], mode="parallel")
            before = {payload.worker for payload in payloads}
            payloads.clear()
            service.restart_pool()
            again = service.evaluate(waves[1], mode="parallel")
        assert payloads
        assert not before & {payload.worker for payload in payloads}
        assert triples(again) == triples(references[1])

    def test_repeats_across_a_killed_worker_match_the_reference(
        self, scenario, waves, references
    ):
        import faultinject

        config = ExecutorConfig(workers=2, chunk_size=8)
        with faultinject.chunk_fault(faultinject.kill_worker) as flags:
            flags.pop("armed")
            with EvalService(scenario.database, executor=config) as service:
                service.evaluate(waves[0], mode="parallel")
                flags["armed"] = True
                second = service.evaluate(waves[1], mode="parallel")
                assert "armed" not in flags, "the kill never fired"
                third = service.evaluate(waves[2], mode="parallel")
        assert triples(second) == triples(references[1])
        assert triples(third) == triples(references[2])


class TestParentMemo:
    """The parent keeps every answer it has, its own and the pool's, in its
    content memo, and answers a chunk it holds whole from there instead of
    submitting it."""

    config = ExecutorConfig(workers=2, chunk_size=4)

    @pytest.mark.parametrize("warm", ["parallel", "sequential"])
    def test_a_batch_the_parent_holds_submits_nothing(
        self, scenario, monkeypatch, warm
    ):
        reference = evaluate_query_set_sequential(scenario.queries, scenario.database)
        with EvalService(scenario.database, executor=self.config) as service:
            service.evaluate(scenario.queries, mode=warm)
            running = service._pool
            assert (running is None) is (warm == "sequential")
            sent = sent_to_pool(monkeypatch)
            results = service.evaluate(scenario.queries, mode="parallel")
            assert service.last_mode == "parallel"
            assert service._pool is running
            # Without a running pool a held batch starts none.
            service.restart_pool()
            again = service.evaluate(scenario.queries, mode="parallel")
            assert service._pool is None
        assert sent == []
        assert triples(results) == triples(reference)
        assert triples(again) == triples(reference)

    @pytest.mark.parametrize("again", ["parallel", "sequential"])
    def test_held_results_are_the_first_waves_objects(self, scenario, again):
        # The in-process path reads the one context the pool's results
        # were put in, so it too answers with the pool's objects.
        with EvalService(scenario.database, executor=self.config) as service:
            first = service.evaluate(scenario.queries, mode="parallel")
            second = service.evaluate(scenario.queries, mode=again)
            assert service.last_mode == again
        assert {id(result) for _, result in second} <= {id(result) for _, result in first}
        assert all(type(result) is SolveResult for _, result in second)
        assert triples(second) == triples(
            evaluate_query_set_sequential(scenario.queries, scenario.database)
        )

    def test_a_chunk_with_one_unseen_query_sends_only_that_key(
        self, scenario, monkeypatch
    ):
        seen = list(scenario.queries[:8])
        keys = {query.content_key() for query in seen}
        unseen = next(q for q in scenario.queries if q.content_key() not in keys)
        batch = seen[:4] + seen[4:7] + [unseen]
        with EvalService(scenario.database, executor=self.config) as service:
            service.evaluate(seen, mode="parallel")
            sent = sent_to_pool(monkeypatch)
            results = service.evaluate(batch, mode="parallel")
        assert len(sent) == 1
        _, (chunk_keys, _), _ = pickle.loads(sent[0])
        assert chunk_keys == (unseen.content_key(),)
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )

    def test_another_services_answers_keep_nothing_off_the_pool(
        self, scenario, monkeypatch
    ):
        # Each service holds its own context: what one answered is not in
        # the memo of another on the same database.
        batch = list(scenario.queries[:16])
        with EvalService(scenario.database, executor=self.config) as service:
            service.evaluate(batch, mode="parallel")
        sent = sent_to_pool(monkeypatch)
        with EvalService(scenario.database, executor=self.config) as service:
            results = service.evaluate(batch, mode="parallel")
        assert sorted(key for keys in sent_keys(sent) for key in keys) == sorted(
            set(keys_of(batch))
        )
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )

    def test_one_pool_serves_every_batch(self, scenario, monkeypatch):
        batch = list(scenario.queries)
        with EvalService(scenario.database, executor=self.config) as service:
            service.evaluate(batch[:8], mode="parallel")
            pool = service._pool
            assert pool is not None
            list(service.evaluate_stream(batch[8:24], mode="parallel"))
            service.evaluate(batch[24:], mode="sequential")
            service.evaluate(batch[24:32])
            copies = restated(batch)
            sent = sent_to_pool(monkeypatch)
            results = service.evaluate(copies, mode="parallel")
            assert service._pool is pool
        assert sorted(key for keys in sent_keys(sent) for key in keys) == sorted(
            set(keys_of(copies))
        )
        assert triples(results) == triples(
            evaluate_query_set_sequential(copies, scenario.database)
        )

    @fork_only
    def test_held_chunks_count_toward_the_window(self, scenario, monkeypatch):
        import repro.eval.executor as executor_module

        config = ExecutorConfig(workers=2, chunk_size=2)
        window = config.workers * INFLIGHT_FACTOR * config.chunk_size
        held = list(scenario.queries[:8])
        keys = {query.content_key() for query in held}
        unseen = next(q for q in scenario.queries if q.content_key() not in keys)
        batch = [unseen, unseen] + held * 3
        pulled = []

        def source():
            for query in batch:
                pulled.append(query)
                yield query

        original = executor_module._EvaluationContext.ship

        def slow(context, results):
            time.sleep(0.1)
            return original(context, results)

        # Forked workers inherit the slowed numbering step: the first
        # chunk, the only one submitted, takes 100 ms to come back.
        monkeypatch.setattr(executor_module._EvaluationContext, "ship", slow)
        with EvalService(scenario.database, executor=config) as service:
            service.evaluate(held, mode="sequential")
            ahead = []
            results = []
            for pair in service.evaluate_stream(source(), mode="parallel"):
                results.append(pair)
                ahead.append(len(pulled) - len(results))
        assert max(ahead) < window
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )

    def test_startup_is_measured_when_chunk_zero_was_answered_here(self, scenario):
        head = list(scenario.queries[:4])
        batch = head + list(scenario.queries[4:12])
        with EvalService(scenario.database, executor=self.config) as service:
            service.evaluate(head, mode="sequential")
            assert service._pool is None
            results = service.evaluate(batch, mode="parallel")
            assert service._pool is not None
            assert service.pool_startup_seconds >= 0.0
            assert service.chunk_overhead_seconds is None
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )

    def test_a_batch_answered_here_leaves_both_measurements(self, scenario):
        with EvalService(scenario.database, executor=self.config) as service:
            service.evaluate(scenario.queries[:16], mode="parallel")
            service.evaluate(scenario.queries[16:], mode="parallel")
            measured = (service.pool_startup_seconds, service.chunk_overhead_seconds)
            assert None not in measured
            service.evaluate(scenario.queries, mode="parallel")
            assert (service.pool_startup_seconds, service.chunk_overhead_seconds) == measured
            service.restart_pool()
            service.evaluate(scenario.queries, mode="parallel")
            assert (service.pool_startup_seconds, service.chunk_overhead_seconds) == measured

    def test_a_repeated_batch_stays_in_process_without_classifying(self, monkeypatch):
        """A batch the pool served, evaluated again undecided, is all memo
        hits in the in-process head: it stays there and classifies nothing."""
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        scenario = scenario_by_name("mixed_vocabulary", count=120, seed=1)
        with EvalService(scenario.database, executor=ExecutorConfig(workers=2)) as service:
            service.evaluate(scenario.queries, mode="parallel")
            calls = service.classification_calls
            results = service.evaluate(scenario.queries)
            assert service.last_mode == "sequential"
            assert service.classification_calls == calls
        assert triples(results) == triples(
            evaluate_query_set_sequential(scenario.queries, scenario.database)
        )


def sent_keys(sent):
    """The content-key tuple of each recorded submission, in order."""
    return [pickle.loads(arguments)[1][0] for arguments in sent]


class TestEachKeySentOnce:
    """A forced-parallel batch sends each content key to the pool once: a
    chunk with a miss sends only the keys neither the parent's memo holds
    nor an earlier chunk of the batch sends."""

    config = ExecutorConfig(workers=2, chunk_size=4)

    @pytest.fixture
    def batch(self, scenario):
        import random

        patterns = one_per_pattern(scenario.queries)[:10]
        draws = random.Random(28)
        return patterns + [draws.choice(patterns) for _ in range(54)]

    @pytest.fixture
    def reference(self, scenario, batch):
        return evaluate_query_set_sequential(batch, scenario.database)

    @staticmethod
    def assert_repeats_share_objects(results):
        first = {}
        for query, result in results:
            assert first.setdefault(query.content_key(), result) is result

    def test_each_key_goes_out_once(self, scenario, batch, reference, monkeypatch):
        sent = sent_to_pool(monkeypatch)
        with EvalService(scenario.database, executor=self.config) as service:
            results = service.evaluate(batch, mode="parallel")
            assert service.last_mode == "parallel"
        keys = [key for chunk in sent_keys(sent) for key in chunk]
        assert sorted(keys) == sorted({query.content_key() for query in batch})
        assert len(batch) == 64 and len(keys) == 10
        assert triples(results) == triples(reference)
        self.assert_repeats_share_objects(results)

    @fork_only
    def test_a_key_still_in_flight_is_not_sent_again(
        self, scenario, batch, reference, monkeypatch
    ):
        import repro.eval.executor as executor_module

        slow_key = batch[0].content_key()
        original = executor_module._EvaluationContext.solve_miss

        def slow(context, query, *args, **kwargs):
            if query.content_key() == slow_key:
                time.sleep(0.2)
            return original(context, query, *args, **kwargs)

        # Forked workers inherit the slowed solve of a miss: the first
        # chunk comes back after every later chunk of the window was formed.
        monkeypatch.setattr(executor_module._EvaluationContext, "solve_miss", slow)
        repeats = [query for query in batch[4:] if query.content_key() == slow_key]
        assert repeats, "the slowed key must repeat in a later chunk"
        sent = sent_to_pool(monkeypatch)
        with EvalService(scenario.database, executor=self.config) as service:
            results = service.evaluate(batch, mode="parallel")
        keys = [key for chunk in sent_keys(sent) for key in chunk]
        assert keys.count(slow_key) == 1
        assert slow_key in sent_keys(sent)[0]
        assert triples(results) == triples(reference)
        self.assert_repeats_share_objects(results)

    @fork_only
    def test_a_recycle_redispatches_exactly_the_keys_sent(
        self, scenario, batch, reference, monkeypatch
    ):
        import faultinject

        distinct = {query.content_key() for query in batch}
        with faultinject.chunk_fault(faultinject.kill_worker) as flags:
            sent = sent_to_pool(monkeypatch)
            with EvalService(scenario.database, executor=self.config) as service:
                results = service.evaluate(batch, mode="parallel")
            assert "armed" not in flags, "the kill never fired"
        chunks = sent_keys(sent)
        first = list(dict.fromkeys(chunks))
        # Every submission after a first dispatch repeats one exactly, and
        # the first dispatches carry each key once.
        assert len(chunks) > len(first)
        assert sorted(key for chunk in first for key in chunk) == sorted(distinct)
        assert triples(results) == triples(reference)
        self.assert_repeats_share_objects(results)


@pytest.fixture
def memo_probes(monkeypatch):
    """Records every ``BoundedLRU.get`` and ``get_many`` call made in this
    process as ``(cache, method, keys)``."""
    from repro.caching import BoundedLRU

    calls = []
    get, get_many = BoundedLRU.get, BoundedLRU.get_many

    def counting_get(cache, key):
        calls.append((cache, "get", (key,)))
        return get(cache, key)

    def counting_get_many(cache, keys):
        calls.append((cache, "get_many", tuple(keys)))
        return get_many(cache, keys)

    monkeypatch.setattr(BoundedLRU, "get", counting_get)
    monkeypatch.setattr(BoundedLRU, "get_many", counting_get_many)
    return calls


def probes_of(calls, memo):
    """The recorded lookups of one cache, as ``(method, keys)``."""
    return [(method, keys) for cache, method, keys in calls if cache is memo]


def keys_of(queries):
    return tuple(query.content_key() for query in queries)


@pytest.fixture
def canonical_calls(monkeypatch):
    calls = []
    original = ConjunctiveQuery.canonical_structure

    def counting(query):
        calls.append(query.content_key())
        return original(query)

    monkeypatch.setattr(ConjunctiveQuery, "canonical_structure", counting)
    return calls


class TestOneProbePerChunk:
    """A chunk's content keys are probed in the content memo at once, a
    miss is not probed again, and each distinct miss is solved once."""

    def test_a_held_batch_makes_one_probe(self, scenario, memo_probes):
        batch = scenario.queries[:16]
        with EvalService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(batch)
            memo_probes.clear()
            results = service.evaluate(batch)
            memo = service.context().by_content
        assert probes_of(memo_probes, memo) == [("get_many", keys_of(batch))]
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )

    def test_misses_are_probed_once_and_solved_once(
        self, scenario, memo_probes, monkeypatch
    ):
        import repro.eval.executor as executor_module

        a, b, c, d = one_per_pattern(scenario.queries)[:4]
        batch = [a, b, a, c, b, d, a, c, parsed(d), b]
        solved = []
        original = executor_module._EvaluationContext.solve_miss

        def counting(context, query, deadline=None):
            solved.append(query.content_key())
            return original(context, query, deadline)

        monkeypatch.setattr(executor_module._EvaluationContext, "solve_miss", counting)
        config = ExecutorConfig(workers=1, chunk_size=4)
        with EvalService(scenario.database, executor=config) as service:
            results = service.evaluate(batch)
            memo = service.context().by_content
        assert probes_of(memo_probes, memo) == [
            ("get_many", keys_of(batch[:4])),
            ("get_many", keys_of(batch[4:8])),
            ("get_many", keys_of(batch[8:])),
        ]
        assert solved == list(keys_of([a, b, c, d]))
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )

    def test_a_repeat_of_a_miss_in_its_chunk_builds_no_canonical_structure(
        self, scenario, canonical_calls
    ):
        a, b = one_per_pattern(scenario.queries)[:2]
        batch = [a, b, a, parsed(a), b]
        canonical_calls.clear()
        with EvalService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            results = service.evaluate(batch)
        assert canonical_calls == list(keys_of([a, b]))
        assert results[2][1] is results[0][1] and results[3][1] is results[0][1]
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )

    def test_a_worker_solves_a_repeat_in_its_chunk_once(
        self, scenario, monkeypatch, memo_probes, canonical_calls
    ):
        import repro.eval.executor as executor_module

        a, b = one_per_pattern(scenario.queries)[:2]
        chunk = [a, b, a, b, a]
        monkeypatch.setattr(executor_module, "_WORKER_CONTEXT", None)
        executor_module._initialize_worker(scenario.database, DEFAULT_PLANNER_CONFIG)
        context = executor_module._WORKER_CONTEXT
        canonical_calls.clear()
        payload = executor_module._evaluate_chunk(keys_of(chunk))
        assert probes_of(memo_probes, context.by_content) == [("get_many", keys_of(chunk))]
        assert canonical_calls == list(keys_of([a, b]))
        numbers = payload.numbers
        assert numbers[0] == numbers[2] == numbers[4] and numbers[1] == numbers[3]
        assert sorted(payload.fresh) == sorted(set(numbers))
        results = [payload.fresh[number] for number in numbers]
        assert triples(zip(chunk, results)) == triples(
            evaluate_query_set_sequential(chunk, scenario.database)
        )

    def test_a_parallel_chunk_with_a_miss_probes_the_parent_memo_once(
        self, scenario, memo_probes, monkeypatch
    ):
        config = ExecutorConfig(workers=2, chunk_size=4)
        seen = list(scenario.queries[:8])
        held = {query.content_key() for query in seen}
        unseen = next(q for q in scenario.queries if q.content_key() not in held)
        batch = seen[:3] + [unseen]
        with EvalService(scenario.database, executor=config) as service:
            service.evaluate(seen, mode="sequential")
            memo_probes.clear()
            sent = sent_to_pool(monkeypatch)
            results = service.evaluate(batch, mode="parallel")
            assert service.last_mode == "parallel"
            memo = service.context().by_content
        assert probes_of(memo_probes, memo) == [("get_many", keys_of(batch))]
        assert sent_keys(sent) == [(unseen.content_key(),)]
        assert triples(results) == triples(
            evaluate_query_set_sequential(batch, scenario.database)
        )


def outcomes(results):
    """``(answer, solver, degree)`` per result."""
    return [(result.answer, result.solver, result.degree) for _, result in results]


def core_of(query):
    return classify_structure(query.canonical_structure()).core


@pytest.fixture(scope="module")
def core_sharing(scenario):
    """The scenario's distinct patterns and the number of distinct cores
    they fold to: fewer, so some distinct patterns share a core."""
    patterns = one_per_pattern(scenario.queries)
    cores = len({core_of(query) for query in patterns})
    assert cores < len(patterns)
    return patterns, cores


@pytest.fixture(scope="module")
def core_pair(scenario):
    """The first two distinct patterns of the scenario with equal cores."""
    first_of = {}
    for query in one_per_pattern(scenario.queries):
        core = core_of(query)
        if core in first_of:
            return first_of[core], query
        first_of[core] = query
    raise AssertionError("no two patterns of the scenario share a core")


class TestCoreTable:
    """One route decision and one solve per distinct core in a context."""

    def test_in_process_solves_once_per_core(self, scenario, core_sharing, solve_calls):
        patterns, cores = core_sharing
        with EvalService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            results = service.evaluate(patterns)
        assert len(solve_calls) == cores
        assert outcomes(results) == outcomes(
            evaluate_query_set_sequential(patterns, scenario.database)
        )

    @fork_only
    def test_a_worker_solves_once_per_core(self, scenario, core_sharing, solve_calls):
        patterns, cores = core_sharing
        # One chunk, so one worker sees every pattern.
        config = ExecutorConfig(workers=2, chunk_size=len(patterns))
        with EvalService(scenario.database, executor=config) as service:
            results = service.evaluate(patterns, mode="parallel")
            assert service.last_mode == "parallel"
        assert len(solve_calls) == cores
        assert all(type(result) is SolveResult for _, result in results)
        assert outcomes(results) == outcomes(
            evaluate_query_set_sequential(patterns, scenario.database)
        )

    def test_a_core_solved_by_one_batch_serves_the_next(
        self, scenario, core_pair, solve_calls
    ):
        # Every batch runs in the service's one context, core table included.
        first, second = core_pair
        with EvalService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            ((_, solved),) = service.evaluate([first])
            ((_, hit),) = service.evaluate([second])
        assert len(solve_calls) == 1
        assert hit is not solved
        assert hit.profile.core == solved.profile.core
        assert outcomes([(second, hit)]) == outcomes(
            evaluate_query_set_sequential([second], scenario.database)
        )

    def test_a_hit_classifies_compares_and_pickles_like_the_reference(
        self, scenario, core_pair, monkeypatch
    ):
        first, second = core_pair
        clear_profile_cache()
        ((_, expected),) = evaluate_query_set_sequential([second], scenario.database)
        clear_profile_cache()
        with EvalService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            (_, solved), (_, hit) = service.evaluate([first, second])
        assert hit.profile is not expected.profile
        assert hit.profile.structure == second.canonical_structure()
        assert hit.profile.structure != solved.profile.structure
        assert hit.profile.core == solved.profile.core
        # The hit's profile took the widths the solved one computed, so
        # classifying it builds no more width engines than the reference.
        built = []
        for engine in (TreedepthEngine, TreewidthEngine, PathwidthEngine):
            original = engine.__init__

            def counting(self, *args, _original=original, **kwargs):
                built.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(engine, "__init__", counting)
        degree = hit.classification()
        by_hit = list(built)
        built.clear()
        assert degree == expected.classification() == hit.degree == expected.degree
        assert by_hit == built
        # A pickled hit carries the reference's values.
        assert pickle.loads(pickle.dumps(hit)) == expected
        # The reference evaluator reads the profile the service cached for
        # the pattern: the hit's own, with which the results compare equal.
        ((_, shared),) = evaluate_query_set_sequential([second], scenario.database)
        assert shared.profile is hit.profile
        assert hit == shared

    def test_a_hit_writes_the_shared_answer_store(self, scenario, core_pair, solve_calls):
        first, second = core_pair
        stores = ServiceStores(answers=SharedStore.local())
        with EvalService(
            scenario.database, executor=ExecutorConfig(workers=1), stores=stores
        ) as service:
            (_, solved), (_, hit) = service.evaluate([first, second])
        assert len(solve_calls) == 1
        assert len(stores.answers) == 2
        for query, result in ((first, solved), (second, hit)):
            pattern = query.canonical_structure()
            assert stores.answers.peek((pattern, pattern.vocabulary)) is result


#: The three ways a batch reaches an evaluation context: in-process a
#: chunk at a time with the service-lifetime context, forced onto the
#: pool, and through the measured head, one timed query at a time in the
#: same context (a chunk larger than any batch here keeps the head from
#: handing over).
RUNS = {
    "in-process": (ExecutorConfig(workers=1), {}),
    "parallel": (ExecutorConfig(workers=2, chunk_size=3), {"mode": "parallel"}),
    "head": (ExecutorConfig(workers=2, chunk_size=1000), {}),
}


def served(queries, database, run):
    import repro.eval.executor as executor_module

    config, options = RUNS[run]
    with EvalService(database, executor=config) as service:
        if run != "head":
            results = service.evaluate(queries, **options)
        else:
            # The head runs only where the pool could pay, on more than
            # one CPU; a batch under the fast path's floor must stream.
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(executor_module.os, "cpu_count", lambda: 8)
                results = list(service.evaluate_stream(queries, **options))
            assert service.last_mode_reason.startswith(f"{len(queries)} queries took")
            assert service._pool is None
        assert service.last_mode == ("parallel" if run == "parallel" else "sequential")
    return results


def atoms(*pairs):
    """A query from ``(relation, variables)`` pairs; nullary atoms allowed."""
    return ConjunctiveQuery([QueryAtom(relation, variables) for relation, variables in pairs])


def colourful_cliques():
    """A database whose clique queries route to W[1] backtracking, and
    those queries: K6 (true), K6 with a coloured vertex (true), and K6
    with a link whose one row starts at a value in no K6 (false)."""
    edges = [(a, b) for a in range(6) for b in range(6) if a != b]
    edges += [(6, 0), (0, 6), (6, 1), (1, 6)]
    database = Database({"E": edges, "L": [(6, 0)], "C1": [(0,), (6,)]})
    k6 = ConjunctiveQuery.from_structure(clique(6))
    first, second = k6.variables[:2]
    coloured = ConjunctiveQuery(list(k6.atoms) + [QueryAtom("C1", (first,))])
    linked = ConjunctiveQuery(list(k6.atoms) + [QueryAtom("L", (first, second))])
    return database, [k6, coloured, linked]


def nullary_case():
    """A database with a nullary table holding its one row, an empty table,
    and queries over both, over a nullary symbol it lacks and over the
    empty table at arity 2."""
    database = Database({"E": [(1, 2), (2, 3), (3, 1)], "T": [()], "F": []})
    queries = [
        atoms(("E", ("x", "y")), ("T", ())),
        atoms(("E", ("x", "y")), ("U", ())),
        atoms(("E", ("x", "y")), ("F", ())),
        ConjunctiveQuery([QueryAtom("T", ())], extra_variables=["x"]),
        atoms(("E", ("x", "y")), ("F", ("y", "z"))),
    ]
    return database, queries


@pytest.fixture
def conversions(monkeypatch):
    """Counts ``Database.to_structure`` calls of the whole database and of
    one vocabulary, in this process and in pool workers forked while the
    fixture is active."""
    counts = SimpleNamespace(whole=CallCount(), restricted=CallCount())
    original = Database.to_structure

    def counting(database, vocabulary=None):
        (counts.whole if vocabulary is None else counts.restricted).add()
        return original(database, vocabulary)

    monkeypatch.setattr(Database, "to_structure", counting)
    return counts


class TestWholeDatabaseTarget:
    """Patterns whose tables the database holds are solved against one
    structure of the whole database per context; the rest against their
    vocabulary's target.  Answers and solver strings stay the reference's."""

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_mixed_vocabularies_answer_like_the_reference(self, scenario, run):
        assert len({query.vocabulary() for query in scenario.queries}) >= 3
        assert triples(served(scenario.queries, scenario.database, run)) == triples(
            evaluate_query_set_sequential(scenario.queries, scenario.database)
        )

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_a_table_the_database_lacks_reads_as_empty(self, scenario, run):
        lacking = [
            parse_query("E(x, y), Z(y, z)"),
            parse_query("L(x, y), C1(y), Q(y, z, w)"),
            parse_query("Z(x)"),
        ]
        batch = list(scenario.queries[:6]) + lacking
        reference = evaluate_query_set_sequential(batch, scenario.database)
        assert [result.answer for _, result in reference[-3:]] == [False] * 3
        assert triples(served(batch, scenario.database, run)) == triples(reference)

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_an_arity_clash_raises_the_reference_error(self, scenario, run):
        batch = list(scenario.queries[:4]) + [parse_query("E(x, y, z)")]
        with pytest.raises(Exception) as reference:
            evaluate_query_set_sequential(batch, scenario.database)
        with pytest.raises(Exception) as service:
            served(batch, scenario.database, run)
        assert type(service.value) is type(reference.value) is VocabularyError

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_nullary_atoms_answer_like_the_reference(self, run):
        database, queries = nullary_case()
        reference = evaluate_query_set_sequential(queries, database)
        assert [result.answer for _, result in reference] == [True, False, False, True, False]
        assert triples(served(queries, database, run)) == triples(reference)

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_w1_patterns_backtrack_on_the_whole_database(self, run):
        database, queries = colourful_cliques()
        reference = evaluate_query_set_sequential(queries, database)
        assert all(result.degree is ComplexityDegree.W1_HARD for _, result in reference)
        assert [result.answer for _, result in reference] == [True, True, False]
        assert triples(served(queries, database, run)) == triples(reference)

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_a_structure_database_is_its_own_target(self, scenario, run):
        structure = scenario.database.to_structure()
        assert triples(served(scenario.queries, structure, run)) == triples(
            evaluate_query_set_sequential(scenario.queries, structure)
        )

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_an_empty_table_answers_like_a_missing_one(self, run):
        database = Database({"E": [(1, 2)], "F": []})
        queries = [parse_query("E(x, y), F(y, z)"), parse_query("E(x, y), G(y, z)")]
        reference = evaluate_query_set_sequential(queries, database)
        assert [result.answer for _, result in reference] == [False, False]
        assert triples(served(queries, database, run)) == triples(reference)

    def test_a_context_converts_the_database_once(self, scenario, conversions):
        with EvalService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(scenario.queries[:20])
            service.evaluate(scenario.queries[20:])
        assert len(conversions.whole) == 1
        assert len(conversions.restricted) == 0

    @fork_only
    def test_a_worker_converts_the_database_once(self, scenario, conversions):
        config = ExecutorConfig(workers=2, chunk_size=4)
        with EvalService(scenario.database, executor=config) as service:
            service.evaluate(scenario.queries, mode="parallel")
            service.evaluate(restated(scenario.queries[::-1]), mode="parallel")
        assert 1 <= len(conversions.whole) <= 2
        assert len(conversions.restricted) == 0

    @pytest.mark.parametrize(
        "run, contexts",
        [("head", 1), ("in-process", 1), pytest.param("parallel", 2, marks=fork_only)],
    )
    def test_an_equal_target_cached_first_is_compared_once_per_context(
        self, scenario, monkeypatch, run, contexts
    ):
        reference = evaluate_query_set_sequential(scenario.queries, scenario.database)
        structure_index.cache_clear()
        # Another holder's structure of the database, indexed first.
        warmed = scenario.database.to_structure()
        structure_index(warmed)
        compared = CallCount()
        original = Structure.__eq__

        def counting(structure, other):
            if structure is warmed or other is warmed:
                compared.add()
            return original(structure, other)

        monkeypatch.setattr(Structure, "__eq__", counting)
        results = served(scenario.queries, scenario.database, run)
        assert 1 <= len(compared) <= contexts
        assert triples(results) == triples(reference)

    def test_each_relation_table_is_built_once(self, scenario, monkeypatch):
        structure_index.cache_clear()
        tables = {}
        original = RelationIndex.table

        def recording(index, positions):
            table = original(index, positions)
            tables.setdefault((index.name, positions), []).append(table)
            return table

        monkeypatch.setattr(RelationIndex, "table", recording)
        with EvalService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(scenario.queries)
        assert len(tables) > 1
        assert all(table is built[0] for built in tables.values() for table in built)

    def test_building_and_warming_a_context_builds_no_whole_database(
        self, scenario, conversions
    ):
        vocabularies = {query.vocabulary() for query in scenario.queries}
        with EvalService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            context = service.context()
            for vocabulary in vocabularies:
                context.stats_for(vocabulary)
            service.plan(scenario.queries[0])
            service.statistics(scenario.queries[0])
        assert len(conversions.whole) == 0
        assert len(conversions.restricted) == len(vocabularies)
