"""One benchmark run's set-ups and timed rounds, in a fresh process.

``perfbench/run.py`` starts this module once per timed run, so every
run begins with cold module caches and a pinned hash seed::

    python -m perfbench.timed --workload NAME --seed N --seconds S [--trace SPANS]

Untraced, it plays the workload's round (:mod:`perfbench.workloads`) a
fixed number of times — ``Workload.rounds(S)``, so every commit is
measured over the same rounds — and times ``SETUPS_PER_ROUND`` cold
set-ups before each.  Traced, it times one traced set-up and then the
workload's ``trace_rounds`` rounds with every layer entry point wrapped
(:mod:`perfbench.tracing`).  It prints one JSON object: each round's
set-up times, batch latencies, yardstick slices and wall time, each
query's answer and solver, the service counters and — when traced — the
per-layer table.

The load is one client in a closed loop: the next batch is sent only
when the previous one has returned, and each batch is timed from call
to return.  An in-process workload's batches and set-ups are timed on
the client thread's CPU clock, which does not run while the host has
the CPU taken away; a workload with a manager or pool is timed on the
wall clock, since its batches wait on other processes.

The host's CPUs each slow down by up to 2x in spells lasting from
milliseconds to minutes.  So every process of a round — client,
manager, pool workers — shares one CPU, the rounds take the CPUs in
turn, and right after every batch and every set-up the run times a
*yardstick slice*: the benchmark's own 3-colouring search over two fixed
patterns, code that no program change touches.  ``perfbench/run.py``
scales each time by the slices timed around it (:func:`reference_time`).
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

from repro.cq.evaluation import clear_profile_cache
from repro.cq.query import ConjunctiveQuery, QueryAtom
from repro.eval import EvalService, ExecutorConfig, clear_plan_cache
from repro.service import QueryService
from repro.structures.indexes import structure_index
from repro.structures.vocabulary import Vocabulary

from perfbench import checks, tracing, workloads

#: Cold set-ups timed before every round; ``setup_s`` is their median.
SETUPS_PER_ROUND = 3

#: The yardstick: the 3-colouring search of perfbench.checks over these
#: patterns is one slice.
YARDSTICK = workloads.classify_patterns(seed=7, count=2)

#: A yardstick slice's time on the host the bounds were measured on (a
#: 2-vCPU Intel Xeon virtual machine, Python 3.11), in a calm spell.
#: Times are scaled to this speed.
REFERENCE_SLICE_S = 5.0e-5

#: The one query a pool workload's set-up evaluates in parallel mode, so
#: the pool starts inside the set-up.  Its variable names keep it
#: distinct from every workload pattern.
POOL_PROBE = ConjunctiveQuery([QueryAtom("E", ("probe0", "probe1"))])


def clock_of(workload: workloads.Workload) -> Callable[[], float]:
    return time.thread_time if workload.in_process else time.perf_counter


def yardstick_slice(clock: Callable[[], float]) -> float:
    """Time one yardstick slice on ``clock``."""
    start = clock()
    for pattern in YARDSTICK:
        checks.three_colourable(pattern)
    return clock() - start


def reference_time(seconds: List[float], slices: List[float], window: int = 0) -> List[float]:
    """``seconds`` scaled to the reference host's speed: the ``i``-th by the
    mean of the yardstick slices timed after times ``i - window`` to
    ``i + window``."""
    scaled = []
    for index, value in enumerate(seconds):
        nearby = slices[max(0, index - window) : index + window + 1]
        scaled.append(value * REFERENCE_SLICE_S * len(nearby) / sum(nearby))
    return scaled


def pin(cpu: int) -> None:
    """Move this process and every child it has (manager, pool workers) to ``cpu``."""
    os.sched_setaffinity(0, {cpu})
    for child in multiprocessing.active_children():
        try:
            os.sched_setaffinity(child.pid, {cpu})
        except ProcessLookupError:  # it exited meanwhile
            pass


def clear_caches() -> None:
    clear_profile_cache()
    clear_plan_cache()
    structure_index.cache_clear()


def build_service(workload: workloads.Workload, vocabularies: List[Vocabulary]):
    """Construct the service, build every vocabulary's target and statistics,
    and start the manager and pool where the workload has them."""
    executor = ExecutorConfig(workers=workload.workers)
    if workload.service == "eval":
        service: Any = EvalService(workload.database, executor=executor)
        context = service.context()
    else:
        service = QueryService(workload.database, executor=executor)
        context = service.eval_context()
    for vocabulary in vocabularies:
        context.stats_for(vocabulary)
    if workload.flush_mode == "parallel":
        service.evaluate([POOL_PROBE], mode="parallel")
    return service


def set_up(workload: workloads.Workload, vocabularies: List[Vocabulary], timing: Dict[str, List[float]]):
    """``SETUPS_PER_ROUND`` cold set-ups, each followed by a yardstick
    slice; records both in ``timing`` and returns the last one's service."""
    clock = clock_of(workload)
    service = None
    for _ in range(SETUPS_PER_ROUND):
        if service is not None:
            service.close()
        clear_caches()
        start = clock()
        service = build_service(workload, vocabularies)
        timing["setup_s"].append(clock() - start)
        timing["setup_yardstick_s"].append(yardstick_slice(clock))
    return service


def run_batch(service, workload: workloads.Workload, batch: List[ConjunctiveQuery]):
    if workload.service == "eval":
        return service.evaluate(batch)
    for query in batch:
        service.submit(query)
    return service.flush(workload.flush_mode)


def service_counters(service) -> Dict[str, int]:
    """The ``QueryService.stats()`` counters that cover the pool workers too."""
    if not isinstance(service, QueryService):
        return {}
    stats = service.stats()
    profiles = stats["stores"]["profiles"] or {}
    return {
        "classification_calls": stats["classification_calls"],
        "profile_hits": profiles.get("hits", 0),
        "profile_misses": profiles.get("misses", 0),
        "profile_waits": profiles.get("waits", 0),
        "solves": stats["stores"]["telemetry_samples"] or 0,
        "queries_served": stats["queries_served"],
    }


def counters(service) -> Dict[str, int]:
    index = structure_index.cache_info()
    return {
        **service_counters(service),
        "index_hits": index.hits,
        "index_misses": index.misses,
    }


class Outcomes:
    """Every round's answers and solvers, one character per query each.

    An answer is ``1``, ``0`` or ``x`` (the query raised); a solver is a
    letter indexing :attr:`solver_table` (``-`` when the query raised).
    """

    def __init__(self) -> None:
        self.solver_table: List[str] = []
        self.answers: List[str] = []
        self.solvers: List[str] = []
        self.routes: Dict[str, int] = {}
        self.errors: Dict[str, int] = {}

    def add_round(self, results: List[Optional[Any]]) -> None:
        answers, solvers = [], []
        for result in results:
            if result is None:
                answers.append("x")
                solvers.append("-")
                continue
            if result.solver not in self.solver_table:
                self.solver_table.append(result.solver)
            answers.append("1" if result.answer else "0")
            solvers.append(chr(ord("a") + self.solver_table.index(result.solver)))
            route = tracing.ROUTE_LAYERS[result.degree].split(".", 1)[1]
            self.routes[route] = self.routes.get(route, 0) + 1
        self.answers.append("".join(answers))
        self.solvers.append("".join(solvers))

    def to_json(self) -> Dict[str, Any]:
        return {
            "solver_table": self.solver_table,
            "answers": self.answers,
            "solvers": self.solvers,
            "routes": self.routes,
            "errors": self.errors,
        }


def play_round(
    service,
    workload: workloads.Workload,
    batches: List[List[ConjunctiveQuery]],
    outcomes: Outcomes,
    tracer: Optional[tracing.Tracer],
    timing: Dict[str, Any],
) -> None:
    """Send one round's batches, timing each and a yardstick slice after
    each; records in ``timing`` the batch latencies on the workload's
    clock, the slices, and the wall time spent in batches."""
    clock = clock_of(workload)
    results: List[Optional[Any]] = []
    wall = 0.0
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        for batch in batches:
            if tracer is not None:
                tracer.batch += 1
            sent, sent_wall = clock(), time.perf_counter()
            try:
                answered = run_batch(service, workload, batch)
            except Exception as exc:  # a failed batch is counted; the run goes on
                traceback.print_exc(file=sys.stderr)
                name = type(exc).__name__
                outcomes.errors[name] = outcomes.errors.get(name, 0) + len(batch)
                answered = [(query, None) for query in batch]
            timing["latencies_s"].append(clock() - sent)
            wall += time.perf_counter() - sent_wall
            results.extend(result for _, result in answered)
            timing["yardstick_s"].append(yardstick_slice(clock))
    finally:
        if tracer is not None:
            tracer.uninstall()
    timing["wall_s"] = wall
    outcomes.add_round(results)


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def traced_set_up(
    workload: workloads.Workload, vocabularies: List[Vocabulary], tracer: tracing.Tracer
) -> float:
    """One cold set-up with the layers wrapped; its service is discarded."""
    clear_caches()
    tracer.install()
    start = time.perf_counter()
    try:
        service = build_service(workload, vocabularies)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    service.close()
    return wall


def run(name: str, seed: int, seconds: float, spans_path: Optional[str] = None) -> Dict[str, Any]:
    """Set up, then play ``Workload.rounds(seconds)`` rounds — or, traced,
    the workload's ``trace_rounds`` rounds."""
    workload = workloads.build(name, seed)
    vocabularies = workload.vocabularies()
    batches = workload.batches()
    tracer = tracing.Tracer() if spans_path else None
    traced_wall = traced_set_up(workload, vocabularies, tracer) if tracer is not None else 0.0
    outcomes = Outcomes()
    rounds: List[Dict[str, Any]] = []
    totals: Dict[str, int] = {}
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    if cpus:
        pin(cpus[0])
    service = None
    try:
        if not workload.cold:
            service = set_up(workload, vocabularies, {"setup_s": [], "setup_yardstick_s": []})
            pool = list(workload.queries)
            for start in range(0, len(pool), 16):
                run_batch(service, workload, pool[start : start + 16])
        for round_ in range(workload.trace_rounds if tracer is not None else workload.rounds(seconds)):
            timing: Dict[str, Any] = {
                "setup_s": [], "setup_yardstick_s": [], "latencies_s": [], "yardstick_s": []
            }
            if cpus:
                pin(cpus[round_ % len(cpus)])
            if workload.cold:
                service = set_up(workload, vocabularies, timing)
            elif tracer is None:
                set_up(workload, vocabularies, timing).close()
            before = counters(service)
            play_round(service, workload, batches, outcomes, tracer, timing)
            rounds.append(timing)
            for key, value in counters(service).items():
                totals[key] = totals.get(key, 0) + value - before.get(key, 0)
            if workload.cold:
                service.close()
                service = None
    finally:
        if service is not None:
            service.close()
        if cpus:
            os.sched_setaffinity(0, cpus)
    payload: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb(),
        "counters": totals,
        "wrappers_left": tracing.installed_wrappers(),
        **outcomes.to_json(),
    }
    if tracer is not None:
        payload["layers"] = tracer.layer_table()
        payload["top_level_s"] = tracer.top_level_seconds()
        payload["trace_wall_s"] = traced_wall + sum(timing["wall_s"] for timing in rounds)
        tracer.write_spans(spans_path)
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", metavar="SPANS", help="trace the run; write spans here")
    args = parser.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
