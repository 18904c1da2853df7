"""Tests for the EVAL(Φ) execution service (:mod:`repro.eval.executor`)."""

import itertools

import pytest

from repro.classification import PlannerConfig
from repro.cq import (
    ConjunctiveQuery,
    QueryAtom,
    evaluate_query_set,
    evaluate_query_set_sequential,
    evaluate_query_set_stream,
    parse_query,
)
from repro.eval import EvalService, ExecutorConfig
from repro.eval.executor import _chunks
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
        config = ExecutorConfig(workers=2, chunk_size=5, min_parallel_batch=1, adaptive=False)
        with EvalService(scenario.database, executor=config) as service:
            parallel = service.evaluate(scenario.queries)
            # Pool reuse: a second batch over the same service still matches.
            again = service.evaluate(scenario.queries[:10])
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
        config = ExecutorConfig(workers=2, chunk_size=4, min_parallel_batch=1, adaptive=False)
        streamed = list(
            evaluate_query_set_stream(
                iter(scenario.queries), scenario.database, executor=config
            )
        )
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
            workers=2, chunk_size=2, min_parallel_batch=1, inflight_factor=1, adaptive=False
        )
        with EvalService(scenario.database, executor=config) as service:
            streamed = list(service.evaluate_stream(scenario.queries[:12]))
        assert triples(streamed) == triples(
            evaluate_query_set_sequential(scenario.queries[:12], scenario.database)
        )


class TestCostModePlanning:
    def test_cost_mode_answers_match_reference(self, scenario):
        reference = evaluate_query_set_sequential(scenario.queries, scenario.database)
        cost_planned = evaluate_query_set(
            scenario.queries, scenario.database, planner=PlannerConfig(mode="cost")
        )
        # Routes may differ (that is the point); answers may not.
        assert [r.answer for _, r in cost_planned] == [r.answer for _, r in reference]
        assert [str(q) for q, _ in cost_planned] == [str(q) for q, _ in reference]

    def test_service_plan_exposes_estimates(self, scenario):
        service = EvalService(scenario.database, planner=PlannerConfig(mode="cost"))
        plan = service.plan(scenario.queries[0])
        assert plan.mode == "cost"
        assert plan.estimates and plan.cost == min(plan.estimates.values())

    def test_statistics_reflect_query_vocabulary(self):
        scenario = scenario_by_name("grid_walks", count=3, seed=1)
        service = EvalService(scenario.database)
        stats = service.statistics(parse_query("E(x, y)"))
        assert stats.universe_size == 36
        assert stats.relation_sizes["E"] == 120


class TestAdaptiveCutover:
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

    def test_cheap_chunks_cut_over_on_cost(self, scenario, monkeypatch):
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        config = ExecutorConfig(
            workers=2, min_parallel_batch=1, spawn_cost_threshold=float("inf")
        )
        with EvalService(scenario.database, executor=config) as service:
            service.evaluate(scenario.queries[:6])
            assert service.last_mode == "sequential"
            assert "below spawn threshold" in service.last_mode_reason

    def test_expensive_chunks_stay_parallel(self, scenario, monkeypatch):
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        config = ExecutorConfig(workers=2, min_parallel_batch=1, spawn_cost_threshold=0.0)
        with EvalService(scenario.database, executor=config) as service:
            results = service.evaluate(scenario.queries[:8])
            assert service.last_mode == "parallel"
        assert triples(results) == triples(
            evaluate_query_set_sequential(scenario.queries[:8], scenario.database)
        )

    def test_adaptive_disabled_never_cuts_over(self, scenario):
        config = ExecutorConfig(workers=2, min_parallel_batch=1, adaptive=False)
        with EvalService(scenario.database, executor=config) as service:
            service.evaluate(scenario.queries[:4])
            assert service.last_mode == "parallel"
            assert service.last_mode_reason == "adaptive cutover disabled"

    def test_small_batches_record_sequential_mode(self, scenario):
        config = ExecutorConfig(workers=2, min_parallel_batch=1000)
        with EvalService(scenario.database, executor=config) as service:
            service.evaluate(scenario.queries[:4])
            assert service.last_mode == "sequential"
            assert "min_parallel_batch" in service.last_mode_reason

    def test_adaptive_sequential_results_match_reference(self, scenario, monkeypatch):
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 1)
        config = ExecutorConfig(workers=4, min_parallel_batch=1)
        with EvalService(scenario.database, executor=config) as service:
            streamed = list(service.evaluate_stream(iter(scenario.queries)))
        assert triples(streamed) == triples(
            evaluate_query_set_sequential(scenario.queries, scenario.database)
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

        config = ExecutorConfig(
            workers=2, min_parallel_batch=1, adaptive=False, slim_results=True
        )
        with EvalService(scenario.database, executor=config) as service:
            results = service.evaluate(scenario.queries[:12])
        assert all(isinstance(r, SlimSolveResult) for _, r in results)
