"""Tests of the benchmark itself: generators, metric names, checks, tracing.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.cq.query import ConjunctiveQuery

from perfbench import checks, run, timed, tracing, workloads

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def tiny(monkeypatch):
    """Workloads and set-ups small enough for a unit test."""
    monkeypatch.setattr(timed, "SETUPS_PER_ROUND", 2)
    monkeypatch.setattr(workloads, "MIXED_QUERIES", 24)
    monkeypatch.setattr(workloads, "CLASSIFY_PATTERNS", 12)
    monkeypatch.setattr(workloads, "SERVICE_BATCHES", 3)
    monkeypatch.setattr(workloads, "POOL_BATCHES", 2)


def _signature(workload):
    return [str(query) for query in workload.queries], workload.plan, workload.order()


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_generators_are_deterministic_per_seed(name, tiny):
    first = workloads.build(name, 3)
    assert _signature(first) == _signature(workloads.build(name, 3))
    others = [workloads.build(name, seed) for seed in range(4, 12)]
    # The seed rotates the fixed batch sequence and changes nothing else.
    assert all(other.plan == first.plan for other in others)
    assert any(other.order() != first.order() for other in others)
    plan = first.plan
    assert first.order() in [plan[start:] + plan[:start] for start in range(len(plan))]
    assert all(0 <= index < len(first.queries) for batch in first.plan for index in batch)
    if first.cold and first.in_process:
        assert sorted(index for batch in first.plan for index in batch) == list(range(len(first.queries)))


def test_classify_patterns_are_pairwise_distinct_connected_graphs():
    patterns = workloads.classify_patterns(workloads.CLASSIFY_CORPUS_SEED, 300)
    structures = {query.canonical_structure() for query in patterns}
    assert len(structures) == len(patterns)
    low, high = workloads.CLASSIFY_VARIABLES
    for index, query in enumerate(patterns):
        assert low <= len(query.variables) <= high
        arcs = {atom.variables for atom in query.atoms}
        symmetric = all((b, a) in arcs for a, b in arcs)
        assert symmetric == (index % 2 == 0)


def test_repeat_pool_has_fixed_size_of_distinct_patterns():
    _, pool = workloads.pattern_pool()
    assert len(pool) == workloads.POOL_PATTERNS
    assert len({checks.query_key(query) for query in pool}) == len(pool)


def test_metric_names_are_valid_and_unique():
    with open(BENCHMARK) as handle:
        benchmark = json.load(handle)
    names = [metric["name"] for metric in benchmark["end_to_end"] + benchmark["per_layer"]]
    names += [workload["name"] for workload in benchmark["workloads"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert {workload["name"] for workload in benchmark["workloads"]} <= set(workloads.WORKLOAD_NAMES)


def test_oracles_on_known_cases():
    k4 = ConjunctiveQuery(
        [("E", (f"v{a}", f"v{b}")) for a in range(4) for b in range(4) if a != b]
    )
    c5 = ConjunctiveQuery([("E", (f"v{i}", f"v{(i + 1) % 5}")) for i in range(5)])
    loop = ConjunctiveQuery([("E", ("v0", "v0"))])
    assert not checks.three_colourable(k4)
    assert checks.three_colourable(c5)
    assert not checks.three_colourable(loop)
    join = checks.JoinOracle(workloads.TRIANGLE)
    assert [join.holds(q) for q in (k4, c5, loop)] == [False, True, False]


def test_times_are_scaled_by_the_slices_around_them():
    ref = timed.REFERENCE_SLICE_S
    # A slice twice the reference halves a time; the window averages slices.
    assert timed.reference_time([4.0, 4.0], [2 * ref, ref]) == pytest.approx([2.0, 4.0])
    assert timed.reference_time([3.0, 3.0], [2 * ref, ref], window=1) == pytest.approx([2.0, 2.0])


def test_a_wrong_answer_is_caught(tiny):
    workload = workloads.build("classify_cold", 1)
    run_ = {
        "solver_table": ["nobody"],
        "answers": ["1" * workload.round_length()],
        "solvers": ["a" * workload.round_length()],
    }
    verdict = checks.check(workload, run_)
    assert verdict["correct"] == 0 and verdict["oracle_disagreements"] == 0


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_tiny_runs_agree_traced_untraced_and_with_the_reference(name, tiny, tmp_path):
    originals = [vars(owner)[attribute] for owner, attribute, _ in tracing.ENTRY_POINTS]
    untraced = timed.run(name, 1, 0.01)
    traced = timed.run(name, 1, 0.01, str(tmp_path / "spans.jsonl"))
    assert tracing.installed_wrappers() == []
    assert [vars(owner)[attribute] for owner, attribute, _ in tracing.ENTRY_POINTS] == originals
    workload = workloads.build(name, 1)
    assert len(traced["rounds"]) == workload.trace_rounds
    assert checks.same_answers(workload, untraced, traced)

    verdict = checks.check(workload, untraced)
    assert verdict["oracle_disagreements"] == 0
    assert verdict["correct"] == verdict["attempted"] == len(untraced["rounds"]) * workload.round_length()

    with open(BENCHMARK) as handle:
        benchmark = json.load(handle)
    end_to_end = run.end_to_end(untraced, verdict, workload)
    per_layer = run.per_layer(untraced, traced, workload)
    for metrics, declared in ((end_to_end, benchmark["end_to_end"]), (per_layer, benchmark["per_layer"])):
        assert [(metric, unit) for metric, (_, unit) in metrics.items()] == [
            (metric["name"], metric["unit"]) for metric in declared
        ]
    assert all(value > 0 for value, _ in end_to_end.values())
    with open(tmp_path / "spans.jsonl") as spans:
        assert sum(1 for _ in spans) == sum(entry["calls"] for entry in traced["layers"].values())
