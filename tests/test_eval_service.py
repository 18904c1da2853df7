"""Tests for the EVAL(Φ) execution service (:mod:`repro.eval.executor`)."""

import itertools
import multiprocessing
import os
import time
from types import SimpleNamespace

import pytest

from repro.classification import PlannerConfig
from repro.classification.solver_dispatch import (
    DEFAULT_PLANNER_CONFIG,
    SlimSolveResult,
    SolveResult,
)
from repro.cq import (
    ConjunctiveQuery,
    QueryAtom,
    evaluate_query_set,
    evaluate_query_set_sequential,
    evaluate_query_set_stream,
    parse_query,
)
from repro.eval import EvalService, ExecutorConfig
from repro.eval.executor import POOL_STARTUP_PRIOR_SECONDS, _chunks
from repro.exceptions import DeadlineExceededError
from repro.service import DeadlineBudget, ServiceStores, TelemetrySink
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
        "kwargs", [{"workers": -1}, {"chunk_size": 0}, {"inflight_factor": 0}]
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
        config = ExecutorConfig(workers=2, chunk_size=5, min_parallel_batch=1)
        with EvalService(scenario.database, executor=config) as service:
            parallel = service.evaluate(scenario.queries, mode="parallel")
            assert service.last_mode == "parallel"
            # Pool reuse: a second batch over the same service still matches.
            again = service.evaluate(scenario.queries[:10], mode="parallel")
            assert service.last_mode == "parallel"
        assert triples(parallel) == triples(sequential)
        assert triples(again) == triples(sequential[:10])

    def test_evaluate_query_set_routes_through_the_service(self, scenario):
        sequential = evaluate_query_set(scenario.queries, scenario.database)
        parallel = evaluate_query_set(scenario.queries, scenario.database, workers=2)
        assert triples(parallel) == triples(sequential)

    def test_small_batches_stay_in_process(self, scenario):
        # Below min_parallel_batch the service must not pay for a pool.
        config = ExecutorConfig(workers=2, min_parallel_batch=1000)
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
        config = ExecutorConfig(workers=2, chunk_size=4, min_parallel_batch=1)
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
        # With a tiny window the stream still terminates and stays ordered.
        config = ExecutorConfig(
            workers=2, chunk_size=2, min_parallel_batch=1, inflight_factor=1
        )
        with EvalService(scenario.database, executor=config) as service:
            streamed = list(
                service.evaluate_stream(scenario.queries[:12], mode="parallel")
            )
            assert service.last_mode == "parallel"
        assert triples(streamed) == triples(
            evaluate_query_set_sequential(scenario.queries[:12], scenario.database)
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


class TestMeasuredCutover:
    """Unforced batches start in-process and hand over once the pool pays."""

    def test_single_cpu_cuts_over_to_sequential(self, scenario, monkeypatch):
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 1)
        config = ExecutorConfig(workers=2, min_parallel_batch=1)
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
        config = ExecutorConfig(workers=2, min_parallel_batch=1)
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
        config = ExecutorConfig(workers=2, chunk_size=4, min_parallel_batch=1)
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
        config = ExecutorConfig(workers=2, chunk_size=4, min_parallel_batch=1)
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

    def test_small_batches_record_sequential_mode(self, scenario):
        config = ExecutorConfig(workers=2, min_parallel_batch=1000)
        with EvalService(scenario.database, executor=config) as service:
            service.evaluate(scenario.queries[:4])
            assert service.last_mode == "sequential"
            assert "min_parallel_batch" in service.last_mode_reason

    def test_single_cpu_stream_matches_reference(self, scenario, monkeypatch):
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 1)
        config = ExecutorConfig(workers=4, min_parallel_batch=1)
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
        def parallel(queries, use_cache, deadline=None):
            if self.on_handover is not None:
                self.on_handover()
            rest = list(queries)
            self.handovers.append((self.solves, rest))
            return service._evaluate_sequential(rest, use_cache, deadline)

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
HANDOVER_CONFIG = ExecutorConfig(workers=2, chunk_size=4, min_parallel_batch=1)


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

    def test_a_pool_started_for_other_options_is_not_free(self, scenario, probe):
        batch = list(scenario.queries)
        with EvalService(scenario.database, executor=HANDOVER_CONFIG) as service:
            service.evaluate(batch[:8], mode="parallel")
            service.pool_startup_seconds = 3.5 * probe.seconds_per_query
            probe.solves = 0
            # The running pool caches across calls; a use_cache=False
            # batch would replace it, so it pays the start-up again.
            results = probe.attach(service).evaluate(batch, use_cache=False)
        assert [head for head, _ in probe.handovers] == [4]
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

    def test_head_returns_the_result_shape_the_pool_would(self, scenario, probe):
        config = ExecutorConfig(
            workers=2, chunk_size=4, min_parallel_batch=1, slim_results=True
        )
        with EvalService(scenario.database, executor=config) as service:
            results = probe.attach(service).evaluate(scenario.queries)
        assert [head for head, _ in probe.handovers] == [4]
        assert all(isinstance(result, SlimSolveResult) for _, result in results)
        assert triples(results) == triples(
            evaluate_query_set_sequential(scenario.queries, scenario.database)
        )


class TestPoolMeasurements:
    """The two measured inputs, taken from real pool batches."""

    def test_a_fresh_pool_measures_startup_and_a_running_one_overhead(
        self, scenario
    ):
        config = ExecutorConfig(workers=2, chunk_size=4, min_parallel_batch=1)
        with EvalService(scenario.database, executor=config) as service:
            service.evaluate(scenario.queries[:16], mode="parallel")
            assert service.pool_startup_seconds >= 0.0
            assert service.chunk_overhead_seconds is None
            service.evaluate(scenario.queries[16:], mode="parallel")
            overhead = service.chunk_overhead_seconds
            assert overhead >= 0.0
            # A new pool measures its start-up again and leaves the
            # per-chunk overhead as the running pool measured it.
            service.restart_pool()
            service.pool_startup_seconds = None
            service.evaluate(scenario.queries[:16], mode="parallel")
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
        original = executor_module._EvaluationContext.solve

        def solve(context, query, deadline=None):
            time.sleep(0.165 if str(query) == slow else 0.004)
            return original(context, query, deadline)

        monkeypatch.setattr(executor_module._EvaluationContext, "solve", solve)
        config = ExecutorConfig(workers=2, chunk_size=4, min_parallel_batch=1)
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
        config = ExecutorConfig(workers=2, chunk_size=4, min_parallel_batch=1)
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
        executor_module._initialize_worker(
            scenario.database, DEFAULT_PLANNER_CONFIG, True, False
        )
        chunk = tuple(scenario.queries[:4])
        payload = executor_module._evaluate_chunk(chunk)
        # Untimed workers return no samples, but always their busy seconds.
        assert payload.samples == []
        assert len(solves) >= 1
        assert payload.busy >= 0.005 * len(solves)
        # A worker's first chunk ships every result object it answers with.
        results = [payload.fresh[number] for number in payload.numbers]
        assert triples(zip(chunk, results)) == triples(
            evaluate_query_set_sequential(list(chunk), scenario.database)
        )


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


@pytest.fixture
def solve_calls(monkeypatch):
    """Counts the executor's ``solve_with_degree`` calls."""
    import repro.eval.executor as executor_module

    calls = []
    original = executor_module.solve_with_degree

    def counting(*args, **kwargs):
        calls.append(1)
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


class TestSlimResults:
    def test_slim_results_drop_the_profile(self, scenario):
        from repro.eval import SlimSolveResult

        config = ExecutorConfig(workers=1, slim_results=True)
        with EvalService(scenario.database, executor=config) as service:
            results = service.evaluate(scenario.queries[:10])
        reference = evaluate_query_set_sequential(scenario.queries[:10], scenario.database)
        assert all(isinstance(r, SlimSolveResult) for _, r in results)
        assert [(r.answer, r.solver, r.degree) for _, r in results] == [
            (r.answer, r.solver, r.degree) for _, r in reference
        ]
        assert [r.core_certificate for _, r in results] == [
            r.core_certificate for _, r in reference
        ]

    def test_slim_results_pickle_smaller(self, scenario):
        import pickle

        config = ExecutorConfig(workers=1, slim_results=True)
        with EvalService(scenario.database, executor=config) as service:
            slim = [r for _, r in service.evaluate(scenario.queries)]
        full = [
            r for _, r in evaluate_query_set_sequential(scenario.queries, scenario.database)
        ]
        assert len(pickle.dumps(slim)) < len(pickle.dumps(full)) / 2

    def test_slim_results_ship_from_pool_workers(self, scenario):
        from repro.eval import SlimSolveResult

        config = ExecutorConfig(workers=2, min_parallel_batch=1, slim_results=True)
        with EvalService(scenario.database, executor=config) as service:
            results = service.evaluate(scenario.queries[:12], mode="parallel")
            assert service.last_mode == "parallel"
        assert all(isinstance(r, SlimSolveResult) for _, r in results)


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
    """Slows every query by 2 ms, memo hits included, so that a chunk
    keeps its worker busy long enough for the other worker to take the
    next one: both workers run chunks in every wave."""
    import repro.eval.executor as executor_module

    original = executor_module._EvaluationContext.solve

    def slow(context, query, deadline=None):
        time.sleep(0.002)
        return original(context, query, deadline)

    monkeypatch.setattr(executor_module._EvaluationContext, "solve", slow)


@fork_only
@pytest.mark.usefixtures("busy_workers")
class TestResultNumbers:
    """A worker ships each result object once; repeats cross as numbers."""

    @pytest.fixture
    def batch(self, scenario):
        # Every chunk holds every pattern once, so any worker that runs a
        # chunk has shipped them all.
        return one_per_pattern(scenario.queries)[:8] * 8

    @pytest.fixture
    def reference(self, scenario, batch):
        return evaluate_query_set_sequential(batch, scenario.database)

    @pytest.mark.parametrize("slim", [False, True])
    def test_a_second_wave_resolves_numbers_to_the_first_waves_objects(
        self, scenario, batch, reference, payloads, slim
    ):
        import pickle

        config = ExecutorConfig(
            workers=2, chunk_size=8, min_parallel_batch=1, slim_results=slim
        )
        with EvalService(scenario.database, executor=config) as service:
            first = service.evaluate(batch, mode="parallel")
            assert len({payload.worker for payload in payloads}) == 2
            payloads.clear()
            second = service.evaluate(batch, mode="parallel")
        assert payloads
        assert all(b"SolveResult" not in pickle.dumps(payload) for payload in payloads)
        assert {id(result) for _, result in second} <= {id(result) for _, result in first}
        expected = SlimSolveResult if slim else SolveResult
        assert all(type(result) is expected for _, result in second)
        assert triples(second) == triples(reference)

    def test_numbers_shipped_to_a_closed_stream_are_answered_in_the_parent(
        self, scenario, batch, reference, monkeypatch
    ):
        answered_here = []
        original = EvalService._solve_here

        def counting(service, query, *args, **kwargs):
            answered_here.append(query)
            return original(service, query, *args, **kwargs)

        monkeypatch.setattr(EvalService, "_solve_here", counting)
        config = ExecutorConfig(workers=2, chunk_size=8, min_parallel_batch=1)
        with EvalService(scenario.database, executor=config) as service:
            stream = service.evaluate_stream(batch, mode="parallel")
            for _ in range(3):
                next(stream)
            # The chunks still in flight run to the end, and the objects
            # the second worker ships in them never reach the parent.
            stream.close()
            again = service.evaluate(batch, mode="parallel")
            recorded = len(answered_here)
            third = service.evaluate(batch, mode="parallel")
        assert recorded >= 1
        assert triples(again) == triples(reference)
        assert triples(third) == triples(reference)

    def test_a_restarted_pool_ships_under_new_worker_tokens(
        self, scenario, batch, reference, payloads
    ):
        config = ExecutorConfig(workers=2, chunk_size=8, min_parallel_batch=1)
        with EvalService(scenario.database, executor=config) as service:
            service.evaluate(batch, mode="parallel")
            before = {payload.worker for payload in payloads}
            payloads.clear()
            service.restart_pool()
            again = service.evaluate(batch, mode="parallel")
        assert not before & {payload.worker for payload in payloads}
        assert triples(again) == triples(reference)

    def test_repeats_across_a_killed_worker_match_the_reference(
        self, scenario, batch, reference
    ):
        import faultinject

        config = ExecutorConfig(workers=2, chunk_size=8, min_parallel_batch=1)
        with faultinject.chunk_fault(faultinject.kill_worker) as flags:
            flags.pop("armed")
            with EvalService(scenario.database, executor=config) as service:
                service.evaluate(batch, mode="parallel")
                flags["armed"] = True
                second = service.evaluate(batch, mode="parallel")
                assert "armed" not in flags, "the kill never fired"
                third = service.evaluate(batch, mode="parallel")
        assert triples(second) == triples(reference)
        assert triples(third) == triples(reference)
