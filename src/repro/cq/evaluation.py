"""EVAL(Φ): evaluating sets of boolean conjunctive queries.

The paper's motivating problem is: given a query φ from a fixed set Φ and
a database B, decide whether φ is true on B — parameterized by the query.
These helpers evaluate query sets with the degree-aware solver dispatch
and classify whole query sets with the Theorem 3.1 machinery, providing
the "database-flavoured" entry point to the library.

:func:`evaluate_query_set` is batched: across the queries of one call (and
across calls, via a bounded module-level cache) it reuses

* the classification profile of each distinct canonical structure — the
  expensive core/width computation that picks the solver, and
* the database→structure conversion per distinct vocabulary — queries
  over the same schema share one target structure, which also lets the
  solvers reuse its hash indexes.

Evaluation routes through the :mod:`repro.eval` execution service:
``workers`` fans a batch out to a chunked process pool with deterministic
result ordering, and ``planner`` swaps in other width thresholds for
the degree that picks each route.  With neither argument the call takes
:func:`evaluate_query_set_sequential`, the in-process reference path the
service (and its tests) are measured against.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.caching import BoundedLRU

from repro.classification.classifier import (
    ClassificationReport,
    StructureProfile,
    classify_family,
    classify_structure,
)
from repro.classification.solver_dispatch import PlannerConfig, SolveResult, solve_hom
from repro.cq.database import Database
from repro.cq.query import ConjunctiveQuery
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, types only
    from repro.eval.executor import ExecutorConfig

#: Bounded LRU cache of classification profiles, keyed by the (immutable,
#: hashable) canonical structure.  Classification dominates repeated
#: EVAL(Φ) runs — the answer only depends on the structure, so it is safe
#: to share across calls.
_PROFILE_CACHE_LIMIT = 256
_PROFILE_CACHE: "BoundedLRU[Structure, StructureProfile]" = BoundedLRU(
    _PROFILE_CACHE_LIMIT
)


def _cached_profile(
    pattern: Structure,
    classify: Callable[[Structure], StructureProfile] = classify_structure,
) -> StructureProfile:
    return _PROFILE_CACHE.get_or_put(pattern, lambda: classify(pattern))


def clear_profile_cache() -> None:
    """Drop all cached classification profiles (mainly for tests)."""
    _PROFILE_CACHE.clear()


def evaluate_query_set(
    queries: Sequence[ConjunctiveQuery],
    database: Database | Structure,
    workers: Optional[int] = None,
    planner: Optional[PlannerConfig] = None,
    executor: "Optional[ExecutorConfig]" = None,
) -> List[Tuple[ConjunctiveQuery, SolveResult]]:
    """Evaluate every query of a set on a database with degree-aware solving.

    Returns the list of ``(query, SolveResult)`` pairs, so callers see both
    the answers and which of the three algorithmic regimes each query fell
    into.  The batch shares work across queries: one classification per
    distinct canonical structure and one database→structure conversion per
    distinct vocabulary.

    ``workers`` (or an explicit ``executor`` config) routes the batch
    through the :class:`repro.eval.EvalService` process pool; ``planner``
    swaps in a different :class:`~repro.classification.solver_dispatch.PlannerConfig`
    (other width thresholds).  The parallel path returns the same ordered list of
    ``(query, answer, solver)`` results as the sequential reference.
    """
    if workers is None and planner is None and executor is None:
        return evaluate_query_set_sequential(queries, database)
    from repro.eval.executor import EvalService, ExecutorConfig

    if executor is None:
        # A bare planner= argument changes the thresholds only — it
        # must not silently fork one worker per CPU.
        executor = ExecutorConfig(workers=1 if workers is None else workers)
    elif workers is not None and executor.workers != workers:
        raise ValueError("pass either workers or an executor config, not both")
    with EvalService(database, planner=planner, executor=executor) as service:
        return service.evaluate(queries)


def evaluate_query_set_stream(
    queries: Iterable[ConjunctiveQuery],
    database: Database | Structure,
    workers: Optional[int] = None,
    planner: Optional[PlannerConfig] = None,
    executor: "Optional[ExecutorConfig]" = None,
) -> Iterator[Tuple[ConjunctiveQuery, SolveResult]]:
    """Stream ``(query, SolveResult)`` pairs in input order.

    The lazy sibling of :func:`evaluate_query_set`: accepts an arbitrary
    query iterable and never materialises the whole result list, so
    EVAL(Φ) runs over million-query workloads in bounded memory.  The
    input is read a chunk at a time (``ExecutorConfig.chunk_size``
    queries, 16 by default, in-process), so a query is answered only
    once its chunk has been read (see
    :meth:`~repro.eval.executor.EvalService.evaluate_stream`).  The
    worker pool (if any) is shut down when the iterator is exhausted or
    closed.
    """
    from repro.eval.executor import EvalService, ExecutorConfig

    if executor is None:
        executor = ExecutorConfig(workers=1 if workers is None else workers)
    elif workers is not None and executor.workers != workers:
        raise ValueError("pass either workers or an executor config, not both")
    with EvalService(database, planner=planner, executor=executor) as service:
        yield from service.evaluate_stream(queries)


def evaluate_query_set_sequential(
    queries: Sequence[ConjunctiveQuery],
    database: Database | Structure,
    use_cache: bool = True,
) -> List[Tuple[ConjunctiveQuery, SolveResult]]:
    """The in-process reference evaluator (historical ``evaluate_query_set``).

    Kept verbatim as the fallback and as the ground truth the execution
    service is differentially tested against: the service's sequential and
    parallel paths must reproduce this function's output exactly.
    """
    results: List[Tuple[ConjunctiveQuery, SolveResult]] = []
    targets: Dict[Vocabulary, Structure] = {}
    local_profiles: Dict[Structure, StructureProfile] = {}
    for query in queries:
        pattern = query.canonical_structure()
        vocabulary = query.vocabulary()
        target = targets.get(vocabulary)
        if target is None:
            target = (
                database.to_structure(vocabulary)
                if isinstance(database, Database)
                else database
            )
            targets[vocabulary] = target
        if use_cache:
            profile = _cached_profile(pattern)
        else:
            profile = local_profiles.get(pattern)
            if profile is None:
                profile = classify_structure(pattern)
                local_profiles[pattern] = profile
        results.append((query, solve_hom(pattern, target, profile=profile)))
    return results


def classify_query_set(queries: Iterable[ConjunctiveQuery]) -> ClassificationReport:
    """Classify a set of queries via Theorem 3.1 (on their canonical structures)."""
    return classify_family([query.canonical_structure() for query in queries])
