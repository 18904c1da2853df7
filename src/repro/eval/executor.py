"""The EVAL(Φ) execution service: planned, chunked, parallel evaluation.

:class:`EvalService` turns the one-shot helpers of :mod:`repro.cq` into a
service able to chew through very large query batches:

* **planning** — every query is routed through
  :func:`repro.eval.planner.plan_query`, by its degree under the
  :class:`~repro.classification.solver_dispatch.PlannerConfig`
  thresholds, so answers, solver strings and profiles are byte-identical
  to the sequential reference path.
* **parallelism** — batches are cut into contiguous chunks and fanned out
  to a ``concurrent.futures.ProcessPoolExecutor``.  Work units are plain
  picklable query tuples; each worker process receives the database once
  (at pool initialisation) and keeps its own per-vocabulary target
  structures and classification-profile cache, so a chunk never
  re-ships or re-derives the database side.  A batch starts
  in-process and moves to the pool only once the seconds it has measured
  say the pool finishes the rest sooner.
* **determinism** — chunks are indexed at submission and results are
  yielded strictly in submission order, so the output of the parallel
  path is the same *list* the sequential path produces, regardless of
  worker scheduling.
* **streaming** — :meth:`EvalService.evaluate_stream` accepts an
  arbitrary query iterable, keeps only a bounded window of chunks in
  flight, and yields ``(query, SolveResult)`` pairs as they are reached;
  million-query batches never materialise all results at once.
"""

from __future__ import annotations

import os
import time
from collections import deque
from collections.abc import Sized
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from itertools import chain, islice
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.caching import BoundedLRU
from repro.classification.classifier import StructureProfile, classify_structure
from repro.exceptions import DeadlineExceededError
from repro.classification.solver_dispatch import (
    DEFAULT_PLANNER_CONFIG,
    PlannerConfig,
    SlimSolveResult,
    SolveResult,
    solve_with_degree,
)
from repro.cq.database import Database
from repro.cq.query import ConjunctiveQuery, QueryAtom
from repro.eval.planner import QueryPlan, plan_query_cached
from repro.eval.stats import DatabaseStatistics
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, types only
    from repro.service.resilience import DeadlineBudget
    from repro.service.store import ServiceStores

DatabaseLike = Union[Database, Structure]

AnySolveResult = Union[SolveResult, SlimSolveResult]

#: Bound of each per-context memoised-result cache (see
#: :class:`_EvaluationContext`).  4096 distinct queries or (pattern,
#: vocabulary) pairs comfortably covers a hot working set while keeping
#: the worst case at a few thousand small result objects per worker.
_SOLVED_CACHE_LIMIT = 4096

#: Least price, in seconds, of starting a new pool and getting its first
#: chunk back.  A new 2-worker pool measures 5–8 ms on a 2-vCPU VM.  The
#: price stays above that even once measured: a batch hands over only
#: after it has spent this long in-process, and per-query times are
#: heavy-tailed, so a low price sends a batch to the pool on the mean of
#: a few early queries.  A measured start-up above it (a slow host, the
#: ``spawn`` start method) raises the price.
POOL_STARTUP_PRIOR_SECONDS = 0.020

#: Seconds of pool overhead per chunk (pickling, queueing, scheduling,
#: result shipping) assumed until a parallel batch on a running pool has
#: measured it.  On a 2-vCPU VM a running 2-worker pool measures about
#: 1 ms per 16-query chunk of full results over cold 600-query batches.
CHUNK_OVERHEAD_PRIOR_SECONDS = 0.001


@dataclass(frozen=True)
class ExecutorConfig:
    """Degrees of freedom of the parallel executor.

    ``workers=None`` asks for one worker per CPU; ``workers<=1`` keeps
    everything in-process (the sequential reference behaviour).  Batches
    shorter than ``min_parallel_batch`` stay in-process too — pool
    start-up costs more than a handful of queries.  ``inflight_factor``
    bounds the submission window to ``workers · inflight_factor`` chunks,
    which is what keeps streaming over huge batches memory-bounded.

    Whether a batch that could go either way runs in-process or on the
    pool is not configured: :class:`EvalService` decides it from seconds
    it measures (see :meth:`EvalService.evaluate_stream`) and records the
    outcome in :attr:`EvalService.last_mode`.

    ``slim_results=True`` makes evaluation return
    :class:`~repro.classification.solver_dispatch.SlimSolveResult`
    projections instead of full results — pool workers then ship a few
    scalars per query back to the parent instead of the profile with its
    embedded structures (ROADMAP: "leaner result shipping").  Either
    way a worker ships each result object to the parent once and a
    number for it afterwards (:func:`_evaluate_chunk`), so a repeated
    query costs a few bytes per trip whichever shape it has.

    ``chunk_deadline_seconds`` arms fault tolerance: while waiting on
    the next in-order chunk the service gives up once the chunk has
    been in flight that long, declares the pool wedged, and recycles it
    — a fresh pool, every unfinished chunk re-submitted, the old
    processes terminated.  A broken pool (worker killed) recycles the
    same way regardless of the deadline.  ``None`` (the default) keeps
    the historical blocking wait.  ``max_recycles`` bounds consecutive
    recycle attempts per evaluation call, so a fault that re-arms
    forever fails loudly instead of looping.
    """

    workers: Optional[int] = None
    chunk_size: int = 16
    min_parallel_batch: int = 32
    inflight_factor: int = 4
    slim_results: bool = False
    chunk_deadline_seconds: Optional[float] = None
    max_recycles: int = 3

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 0:
            raise ValueError("workers must be None or non-negative")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if self.inflight_factor < 1:
            raise ValueError("inflight_factor must be at least 1")
        if self.chunk_deadline_seconds is not None and self.chunk_deadline_seconds <= 0:
            raise ValueError("chunk_deadline_seconds must be positive")
        if self.max_recycles < 0:
            raise ValueError("max_recycles must be non-negative")

    def effective_workers(self) -> int:
        """The worker count after resolving ``None`` against the CPU count."""
        if self.workers is None:
            return os.cpu_count() or 1
        return max(1, self.workers)


class _EvaluationContext:
    """Per-process evaluation state shared across the queries it sees.

    One context lives in the parent for sequential evaluation (fresh per
    batch, mirroring the reference path) and one in every worker process
    for the lifetime of the pool.  It memoises the database→structure
    conversion and the database statistics per vocabulary, and the
    classification profile per canonical structure — the two sharing
    levers that make batched EVAL(Φ) cheap.  Profiles come from the
    rigidity-certified core engine (via :func:`classify_structure`), so
    a cache miss on a fold-collapsible or certificate-rigid pattern
    costs index lookups and propagation, not ``n`` retraction searches.

    Results are memoised at two levels.  :attr:`by_content` is keyed by
    the query's atoms and variables and is probed first, so a repeated
    query — the same objects or an equal one parsed afresh — is answered
    without building its canonical structure.  On a miss the query is
    canonicalised and :attr:`solved`, keyed by (pattern, vocabulary),
    catches queries that differ only in atom order or repeated atoms.
    Renamed variables give a different canonical structure and are
    solved separately.

    :attr:`classifications` counts the classifier calls this context
    made, whichever profile cache missed; the owner takes the count
    (:meth:`take_classifications`) and sums it per service.
    """

    def __init__(
        self,
        database: DatabaseLike,
        config: PlannerConfig,
        use_cache: bool,
        slim: bool = False,
        stores: "Optional[ServiceStores]" = None,
        timed: bool = False,
    ) -> None:
        self.database = database
        self.config = config
        self.use_cache = use_cache
        self.slim = slim
        #: Service-lifetime shared state (:mod:`repro.service.store`):
        #: cross-process profile/answer stores and, in the parent, the
        #: telemetry sink.  None keeps the historical per-context
        #: behaviour.
        self.stores = stores
        #: Whether solves are timed into :attr:`telemetry_buffer`: when
        #: ``stores`` carries the sink, or when ``timed`` says the parent's
        #: does (a pool worker's bundle comes without it).
        self.timed = timed or (stores is not None and stores.telemetry is not None)
        #: ``(route, seconds)`` samples of the solves since the last
        #: hand-off: a worker returns them with each chunk's results,
        #: the parent records them into its sink once per batch.
        self.telemetry_buffer: List[object] = []
        self.targets: Dict[Vocabulary, Structure] = {}
        self.stats: Dict[Vocabulary, DatabaseStatistics] = {}
        self.local_profiles: Dict[Structure, StructureProfile] = {}
        #: Memoised results keyed by (canonical pattern, vocabulary).  The
        #: context is bound to one database, so the answer — and, with the
        #: planner config fixed per context, the route and provenance —
        #: is a pure function of that key; duplicated queries (batches
        #: sampled from shape generators repeat patterns constantly) pay
        #: for one solve.  Bounded so a streaming workload over endless
        #: distinct patterns cannot grow it without limit.
        self.solved: "BoundedLRU[Tuple[Structure, Vocabulary], AnySolveResult]" = (
            BoundedLRU(_SOLVED_CACHE_LIMIT)
        )
        #: The same result objects keyed by
        #: :meth:`~repro.cq.query.ConjunctiveQuery.content_key`, probed
        #: before canonicalising.  Every answered query leaves an entry,
        #: whichever level answered it.
        self.by_content: (
            "BoundedLRU[Tuple[Tuple[QueryAtom, ...], Tuple[str, ...]], AnySolveResult]"
        ) = BoundedLRU(_SOLVED_CACHE_LIMIT)
        self.classifications = 0
        #: Pool workers only: the worker's token, set at pool start-up,
        #: and the number each result object it shipped went out under
        #: (see :meth:`ship`).
        self.worker: Tuple[int, int] = (0, 0)
        self.shipped: "BoundedLRU[int, Tuple[int, AnySolveResult]]" = BoundedLRU(
            _SOLVED_CACHE_LIMIT
        )
        self.next_number = 0

    def beat(self, event: str) -> None:
        """Stamp this process's heartbeat onto the shared board (if any)."""
        if self.stores is not None and self.stores.heartbeats is not None:
            try:
                self.stores.heartbeats[os.getpid()] = (time.time(), event)
            except (EOFError, BrokenPipeError, ConnectionError):
                pass

    def target_for(self, vocabulary: Vocabulary) -> Structure:
        target = self.targets.get(vocabulary)
        if target is None:
            target = (
                self.database.to_structure(vocabulary)
                if isinstance(self.database, Database)
                else self.database
            )
            self.targets[vocabulary] = target
        return target

    def stats_for(self, vocabulary: Vocabulary) -> DatabaseStatistics:
        stats = self.stats.get(vocabulary)
        if stats is None:
            stats = DatabaseStatistics.of(self.target_for(vocabulary))
            self.stats[vocabulary] = stats
        return stats

    def profile_for(
        self, pattern: Structure, deadline: "Optional[DeadlineBudget]" = None
    ) -> StructureProfile:
        # ``use_cache=False`` promises batch-scoped profile sharing only,
        # so the service-lifetime stores are bypassed along with the
        # module-level LRU.
        if self.use_cache and self.stores is not None and self.stores.profiles is not None:
            # The service-lifetime shared store: one classification per
            # distinct pattern across *all* workers and batches — the
            # store's claim protocol makes the compute exactly-once and
            # its counters are what the service stats endpoint reports.
            return self.stores.profiles.get_or_compute(
                pattern, lambda: self._classify(pattern), deadline=deadline
            )
        if self.use_cache:
            # The bounded cross-call LRU owned by repro.cq.evaluation;
            # imported lazily to keep the import graph acyclic.
            from repro.cq.evaluation import _cached_profile

            return _cached_profile(pattern, self._classify)
        profile = self.local_profiles.get(pattern)
        if profile is None:
            profile = self._classify(pattern)
            self.local_profiles[pattern] = profile
        return profile

    def _classify(self, pattern: Structure) -> StructureProfile:
        self.classifications += 1
        return classify_structure(pattern)

    def take_classifications(self) -> int:
        """Hand over the classifier calls counted so far and restart the count."""
        count, self.classifications = self.classifications, 0
        return count

    def plan(self, query: ConjunctiveQuery) -> QueryPlan:
        pattern = query.canonical_structure()
        return plan_query_cached(self.profile_for(pattern), self.config)

    def solve(
        self,
        query: ConjunctiveQuery,
        deadline: "Optional[DeadlineBudget]" = None,
    ) -> AnySolveResult:
        content = query.content_key()
        result = self.by_content.get(content)
        if result is None:
            result = self._solve_pattern(query.canonical_structure(), deadline)
            self.by_content.put(content, result)
        return result

    def _solve_pattern(
        self,
        pattern: Structure,
        deadline: "Optional[DeadlineBudget]" = None,
    ) -> AnySolveResult:
        vocabulary = pattern.vocabulary
        key = (pattern, vocabulary)
        memoised = self.solved.get(key)
        if memoised is not None:
            return memoised
        # The shared answer store is cross-call state; honour the
        # ``use_cache=False`` contract by staying out of it entirely.
        answers = (
            self.stores.answers
            if self.use_cache and self.stores is not None
            else None
        )
        if answers is not None:
            # The service-lifetime shared answer store: a pattern solved
            # by any worker in any earlier chunk is an IPC lookup here,
            # not a solve (ROADMAP "answer memoisation is per-context").
            shared = answers.peek(key)
            if shared is not None:
                self.solved.put(key, shared)
                return shared
        target = self.target_for(vocabulary)
        profile = self.profile_for(pattern, deadline)
        plan = plan_query_cached(profile, self.config)
        if self.timed:
            from repro.service.store import SolveSample

            start = time.perf_counter()
            result = solve_with_degree(pattern, target, plan.degree, profile)
            self.telemetry_buffer.append(
                SolveSample(plan.degree.value, time.perf_counter() - start)
            )
        else:
            result = solve_with_degree(pattern, target, plan.degree, profile)
        if self.slim:
            result = result.slim()
        self.solved.put(key, result)
        if answers is not None:
            answers.put(key, result)
        return result

    def take_samples(self) -> List[object]:
        """Hand over the buffered telemetry samples and start a new buffer."""
        samples, self.telemetry_buffer = self.telemetry_buffer, []
        return samples

    def ship(
        self, results: Sequence[AnySolveResult]
    ) -> Tuple[Tuple[int, ...], Dict[int, AnySolveResult]]:
        """Number a chunk's results for the trip to the parent (worker side).

        Returns one number per result and the results shipped for the
        first time, keyed by their new numbers.  A result object this
        worker has shipped before goes as its number alone: the memos
        hand back the same object for a repeat, so identity is the key,
        and each entry holds its object so that the ``id`` stays its
        own while the entry lives.  The table is an LRU of
        :data:`_SOLVED_CACHE_LIMIT` entries that the parent mirrors
        (:meth:`EvalService._receive`); numbers are never reused, so an
        entry the parent lacks is a miss there, never a wrong result.
        """
        numbers = []
        fresh: Dict[int, AnySolveResult] = {}
        for result in results:
            entry = self.shipped.get(id(result))
            if entry is None:
                entry = (self.next_number, result)
                self.next_number += 1
                self.shipped.put(id(result), entry)
                fresh[entry[0]] = result
            numbers.append(entry[0])
        return tuple(numbers), fresh

    def flush_telemetry(self) -> None:
        """Record buffered telemetry samples into the sink (parent side)."""
        if self.telemetry_buffer and self.stores is not None and self.stores.telemetry is not None:
            self.stores.telemetry.record(self.take_samples())


#: The worker-process context, installed by :func:`_initialize_worker` at
#: pool start-up and reused by every chunk the worker runs.
_WORKER_CONTEXT: Optional[_EvaluationContext] = None


def _initialize_worker(
    database: DatabaseLike,
    config: PlannerConfig,
    use_cache: bool,
    slim: bool,
    stores: "Optional[ServiceStores]" = None,
    timed: bool = False,
    generation: int = 0,
) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = _EvaluationContext(
        database, config, use_cache, slim, stores, timed
    )
    # The pid alone could repeat in a later pool; the parent numbers
    # every pool it starts.
    _WORKER_CONTEXT.worker = (generation, os.getpid())


class _ChunkPayload(NamedTuple):
    """What a pool worker sends back for one chunk."""

    #: The worker's ``(pool generation, pid)`` token.
    worker: Tuple[int, int]
    #: One number per query, in chunk order (see :meth:`_EvaluationContext.ship`).
    numbers: Tuple[int, ...]
    #: The result objects this worker ships for the first time, by number.
    fresh: Dict[int, AnySolveResult]
    #: The ``(route, seconds)`` samples of the solves the worker ran.
    samples: List[object]
    #: Seconds the worker spent evaluating the chunk.
    busy: float
    #: Classifier calls the worker made since its previous payload.
    classifications: int


def _evaluate_chunk(
    queries: Tuple[ConjunctiveQuery, ...],
    deadline: "Optional[DeadlineBudget]" = None,
) -> _ChunkPayload:
    """The picklable work unit: evaluate one chunk in the worker's context.

    The payload carries each result as a number.  A result object goes
    with its number the first time this worker ships it and as the
    number alone afterwards; the parent keeps every object it received
    under its worker's token and number, so a repeat costs a few bytes
    instead of a pickled profile with its pattern, core and forest, and
    resolves to the very object the first trip delivered.  With
    ``slim_results`` configured the worker projects each result before
    it is numbered, so a first trip ships a few scalars too.  The
    payload also carries the telemetry samples of the solves the chunk
    ran, the seconds the worker spent on it and its classifier calls;
    the parent records the samples when it yields the chunk and
    measures the pool's overheads against the busy seconds.  The
    numbering table changes only once every query has been answered, so
    a chunk that raises leaves it as it was.

    ``deadline`` is the batch's shared budget (``time.monotonic`` is
    system-wide on Linux, so the pickled expiry means the same instant
    here as in the parent): the worker checks it between queries and
    threads it into store waits, so one budget bounds the whole nested
    stack instead of per-layer timeouts compounding.
    """
    if _WORKER_CONTEXT is None:  # pragma: no cover — initializer always ran
        raise RuntimeError("worker used before initialisation")
    _WORKER_CONTEXT.beat("chunk-start")
    start = time.perf_counter()
    results = []
    for query in queries:
        if deadline is not None:
            deadline.check("worker chunk query")
        results.append(_WORKER_CONTEXT.solve(query, deadline))
    busy = time.perf_counter() - start
    numbers, fresh = _WORKER_CONTEXT.ship(results)
    payload = _ChunkPayload(
        _WORKER_CONTEXT.worker,
        numbers,
        fresh,
        _WORKER_CONTEXT.take_samples(),
        busy,
        _WORKER_CONTEXT.take_classifications(),
    )
    _WORKER_CONTEXT.beat("chunk-done")
    return payload


def _chunks(
    queries: Iterable[ConjunctiveQuery], size: int
) -> Iterator[Tuple[ConjunctiveQuery, ...]]:
    chunk: List[ConjunctiveQuery] = []
    for query in queries:
        chunk.append(query)
        if len(chunk) == size:
            yield tuple(chunk)
            chunk = []
    if chunk:
        yield tuple(chunk)


class EvalService:
    """A reusable EVAL(Φ) evaluator bound to one database.

    The service owns (lazily) a worker pool whose processes hold the
    database, so repeated :meth:`evaluate` calls amortise both the pool
    start-up and the per-vocabulary target/index builds.  Use it as a
    context manager, or call :meth:`close` when done; with ``workers<=1``
    no pool is ever created and everything runs in-process.
    """

    def __init__(
        self,
        database: DatabaseLike,
        planner: Optional[PlannerConfig] = None,
        executor: Optional[ExecutorConfig] = None,
        stores: "Optional[ServiceStores]" = None,
        monitor: Optional[object] = None,
    ) -> None:
        self._database = database
        self._planner = planner if planner is not None else DEFAULT_PLANNER_CONFIG
        self._executor = executor if executor is not None else ExecutorConfig()
        #: Optional service-lifetime shared stores/telemetry
        #: (:mod:`repro.service.store`), threaded into every context and
        #: pool worker.  The service does not own their lifecycle — the
        #: query-service front-end (:mod:`repro.service.frontend`) does.
        self._stores = stores
        #: Optional :class:`~repro.service.monitor.ServiceMonitor`
        #: (duck-typed to keep the import graph acyclic): every pool
        #: recycle and deadline expiry is reported to it.
        self._monitor = monitor
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_key: Optional[Tuple[bool, bool]] = None
        #: Parent-side contexts for plan()/statistics(), keyed by the
        #: use_cache flag — kept so repeated introspection amortises the
        #: database→structure conversions and statistics like a batch does.
        self._introspection: Dict[bool, _EvaluationContext] = {}
        #: The persistent in-process evaluation context (see
        #: :meth:`_evaluate_sequential`); created on first use.
        self._sequential_contexts: Dict[bool, _EvaluationContext] = {}
        #: How the most recent evaluate()/evaluate_stream() call actually
        #: ran — "sequential" or "parallel" — and why.  Benchmarks record
        #: this next to their timings so a handover is visible in the report.
        self.last_mode: Optional[str] = None
        self.last_mode_reason: Optional[str] = None
        #: The two measured inputs of the serial/parallel decision, None
        #: until measured (the decision then uses the module priors).
        #: Pool start-up: a new pool's first chunk round trip minus that
        #: chunk's worker busy seconds; the decision prices it at no less
        #: than the prior.  Chunk overhead: after a parallel batch on an
        #: already running pool, (batch wall − the least wall its chunks'
        #: busy seconds allow) / chunks, where the batch wall leaves out
        #: the consumer's time between results and the least wall is the
        #: larger of the busy seconds per worker and the slowest chunk.
        self.pool_startup_seconds: Optional[float] = None
        self.chunk_overhead_seconds: Optional[float] = None
        #: Pools started so far; each worker's token pairs the number of
        #: its pool with its pid.
        self._generation = 0
        #: Per worker token, the result objects its chunks delivered, by
        #: number: the parent half of :meth:`_EvaluationContext.ship`.
        self._shipped: Dict[Tuple[int, int], "BoundedLRU[int, AnySolveResult]"] = {}
        #: Classifier calls of the contexts this service no longer reads
        #: and of the pool workers (see :attr:`classification_calls`).
        self._classifications = 0

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool (if one was created)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_key = None
        self._shipped.clear()

    def __enter__(self) -> "EvalService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- pool lifecycle -----------------------------------------------------
    def restart_pool(self) -> None:
        """Terminate the worker pool; the next batch lazily builds a new one.

        After a store failover the live workers hold pickled proxies
        into the *dead* manager — their breakers would keep them in
        degraded local mode forever.  Tearing the pool down (terminate,
        not join: workers may be blocked on the dead manager) makes the
        next ``_ensure_pool`` ship the replacement proxies.
        """
        self._abandon_pool()

    # -- introspection ------------------------------------------------------
    @property
    def planner(self) -> PlannerConfig:
        """The planner configuration the service evaluates under."""
        return self._planner

    @property
    def executor(self) -> ExecutorConfig:
        """The executor configuration the service evaluates under."""
        return self._executor

    @property
    def classification_calls(self) -> int:
        """Classifier calls made for this service, in every process.

        Counted where the classifier is called, in the parent's contexts
        and in every pool worker (each chunk's payload carries the
        worker's count), so the value means the same with the shared
        profile store, with the module cache and without either.  Calls
        made in a chunk whose payload the service never reads (a stream
        closed early, a worker killed mid-chunk) are not counted.
        """
        return self._classifications + sum(
            context.classifications
            for context in chain(
                self._introspection.values(), self._sequential_contexts.values()
            )
        )

    def _introspection_context(self, use_cache: bool) -> _EvaluationContext:
        context = self._introspection.get(use_cache)
        if context is None:
            context = _EvaluationContext(
                self._database, self._planner, use_cache, stores=self._stores
            )
            self._introspection[use_cache] = context
        return context

    def context(self, use_cache: bool = True) -> _EvaluationContext:
        """The parent-side evaluation context (targets, stats, profiles).

        It sees the same targets and shared profile store as the workers,
        so a caller can warm them or plan against them without building
        its own copies.
        """
        return self._introspection_context(use_cache)

    def plan(self, query: ConjunctiveQuery, use_cache: bool = True) -> QueryPlan:
        """Return the plan (without solving) the service would use for a query."""
        return self._introspection_context(use_cache).plan(query)

    def statistics(self, query: ConjunctiveQuery) -> DatabaseStatistics:
        """Return the database statistics for a query's vocabulary."""
        return self._introspection_context(use_cache=True).stats_for(query.vocabulary())

    # -- evaluation ---------------------------------------------------------
    def evaluate(
        self,
        queries: Sequence[ConjunctiveQuery],
        use_cache: bool = True,
        mode: Optional[str] = None,
        deadline: "Optional[DeadlineBudget]" = None,
    ) -> List[Tuple[ConjunctiveQuery, AnySolveResult]]:
        """Evaluate a whole batch; the materialised form of the stream.

        Small batches (shorter than the executor's ``min_parallel_batch``)
        take the in-process path even when workers are configured.
        ``mode`` forces a path (see :meth:`evaluate_stream`).
        ``deadline`` bounds the whole call with one composed budget;
        exhausting it raises
        :class:`~repro.exceptions.DeadlineExceededError`.
        """
        workers = self._executor.effective_workers()
        if (
            mode is None
            and workers > 1
            and len(queries) < self._executor.min_parallel_batch
        ):
            self._record_mode("sequential", "batch below min_parallel_batch")
            return list(self._evaluate_sequential(queries, use_cache, deadline))
        return list(
            self.evaluate_stream(
                queries, use_cache=use_cache, mode=mode, deadline=deadline
            )
        )

    def evaluate_stream(
        self,
        queries: Iterable[ConjunctiveQuery],
        use_cache: bool = True,
        mode: Optional[str] = None,
        deadline: "Optional[DeadlineBudget]" = None,
    ) -> Iterator[Tuple[ConjunctiveQuery, AnySolveResult]]:
        """Yield ``(query, SolveResult)`` pairs in input order.

        The input may be an arbitrary (even unbounded) iterable; at most
        ``workers · inflight_factor`` chunks are in flight at any moment,
        so memory stays proportional to the window, not the batch.

        With more than one worker and more than one visible CPU the batch
        starts in-process and hands the rest to the pool once that pays
        (:meth:`_evaluate_measured`); the outcome is recorded in
        :attr:`last_mode` / :attr:`last_mode_reason`.

        ``mode`` overrides the decision: ``"sequential"`` or
        ``"parallel"`` forces that path for this call.  (``"parallel"``
        still degrades to sequential when the executor resolves to a
        single worker.)
        """
        if mode not in (None, "sequential", "parallel"):
            raise ValueError(f"unknown forced mode {mode!r}")
        if self._executor.effective_workers() <= 1:
            self._record_mode("sequential", "workers <= 1")
            yield from self._evaluate_sequential(queries, use_cache, deadline)
            return
        if mode == "sequential":
            self._record_mode("sequential", "forced by caller")
            yield from self._evaluate_sequential(queries, use_cache, deadline)
            return
        if mode == "parallel":
            self._record_mode("parallel", "forced by caller")
            yield from self._evaluate_parallel(queries, use_cache, deadline)
            return
        if (os.cpu_count() or 1) <= 1:
            # Fan-out can only add IPC on top of the same core.
            self._record_mode("sequential", "single CPU")
            yield from self._evaluate_sequential(queries, use_cache, deadline)
            return
        yield from self._evaluate_measured(queries, use_cache, deadline)

    def _record_mode(self, mode: str, reason: str) -> None:
        self.last_mode = mode
        self.last_mode_reason = reason

    # -- the paths ------------------------------------------------------------
    def _evaluate_measured(
        self,
        queries: Iterable[ConjunctiveQuery],
        use_cache: bool,
        deadline: "Optional[DeadlineBudget]" = None,
    ) -> Iterator[Tuple[ConjunctiveQuery, AnySolveResult]]:
        """Run the batch in-process, timing each query, until the pool pays.

        Before each query after the first, the rest of the batch goes to
        the pool when all three hold:

        1. the batch has spent at least the pool start-up cost in-process
           (zero while a pool is running, else the larger of the prior
           and the measured start-up);
        2. at least one full chunk per worker remains;
        3. the rest, extrapolated from this batch's mean seconds per
           query, finishes sooner on the pool once the pool's start-up
           (the same price as in condition 1) and the per-chunk overhead
           are paid.  Condition 1 only makes the head spend the start-up
           price first; a new pool still pays it after the hand-over.

        Both costs are this service's measurements, or the module priors
        until it has them.  The in-process head is not wasted: its
        results are yielded in order and its telemetry reaches the sink
        before the pool takes over.  The input is looked ahead at most
        ``workers · chunk_size`` queries, which is what condition 2
        needs, so a stream is never materialised.
        """
        workers = self._executor.effective_workers()
        chunk_size = self._executor.chunk_size
        full = workers * chunk_size
        total = len(queries) if isinstance(queries, Sized) else None
        source = iter(queries)
        ahead = deque(islice(source, full))
        if not ahead:
            self._record_mode("sequential", "empty batch")
            return
        key = (use_cache, self._executor.slim_results)
        if self._pool is not None and self._pool_key == key:
            startup = 0.0
        else:
            startup = max(POOL_STARTUP_PRIOR_SECONDS, self.pool_startup_seconds or 0.0)
        overhead = (
            CHUNK_OVERHEAD_PRIOR_SECONDS
            if self.chunk_overhead_seconds is None
            else self.chunk_overhead_seconds
        )
        context = self._batch_context(use_cache)
        spent = 0.0
        done = 0
        handover: Optional[str] = None
        self._record_mode("sequential", "in-process head")
        try:
            while ahead:
                if done and spent >= startup and len(ahead) == full:
                    rest = len(ahead) if total is None else total - done
                    serial = spent / done * rest
                    pooled = (
                        startup + serial / workers + -(-rest // chunk_size) * overhead
                    )
                    if pooled < serial:
                        handover = (
                            f"{done} queries took {spent * 1e3:.1f} ms in-process "
                            f"(pool start-up {startup * 1e3:.1f} ms); the other "
                            f"{rest} need ~{serial * 1e3:.1f} ms here, "
                            f"~{pooled * 1e3:.1f} ms on the pool with its start-up "
                            f"and {overhead * 1e3:.2f} ms per chunk"
                        )
                        break
                query = ahead.popleft()
                if deadline is not None:
                    deadline.check("sequential batch query")
                began = time.perf_counter()
                result = context.solve(query, deadline)
                spent += time.perf_counter() - began
                done += 1
                yield query, result
                ahead.extend(islice(source, 1))
        finally:
            self._settle(context)
        if handover is None:
            self._record_mode(
                "sequential",
                f"{done} queries took {spent * 1e3:.1f} ms in-process; pool "
                f"start-up {startup * 1e3:.1f} ms, {overhead * 1e3:.2f} ms per chunk",
            )
            return
        self._record_mode("parallel", handover)
        yield from self._evaluate_parallel(chain(ahead, source), use_cache, deadline)

    def _evaluate_sequential(
        self,
        queries: Iterable[ConjunctiveQuery],
        use_cache: bool,
        deadline: "Optional[DeadlineBudget]" = None,
    ) -> Iterator[Tuple[ConjunctiveQuery, AnySolveResult]]:
        context = self._batch_context(use_cache)
        try:
            for query in queries:
                if deadline is not None:
                    deadline.check("sequential batch query")
                yield query, context.solve(query, deadline)
        finally:
            self._settle(context)

    def _settle(self, context: _EvaluationContext) -> None:
        """Record a parent context's telemetry and classifier calls."""
        context.flush_telemetry()
        self._classifications += context.take_classifications()

    def _batch_context(self, use_cache: bool) -> _EvaluationContext:
        # With the cross-call cache enabled the service context persists
        # across batches, exactly like a worker process does: targets,
        # their hash indexes and database statistics are built once per
        # vocabulary for the service's lifetime (this is what lets the
        # in-process path beat the batch-scoped reference evaluator on
        # repeated calls).  ``use_cache=False`` keeps the batch-scoped
        # context so profile sharing stays per batch, as that flag
        # promises.  Slim projection applies here too, so an in-process
        # batch returns the same result shape the pool would have.
        if use_cache:
            return self._sequential_context(True)
        return _EvaluationContext(
            self._database,
            self._planner,
            False,
            self._executor.slim_results,
            self._stores,
        )

    def _sequential_context(self, use_cache: bool) -> _EvaluationContext:
        context = self._sequential_contexts.get(use_cache)
        if context is None:
            context = _EvaluationContext(
                self._database,
                self._planner,
                use_cache,
                self._executor.slim_results,
                self._stores,
            )
            self._sequential_contexts[use_cache] = context
        return context

    def _evaluate_parallel(
        self,
        queries: Iterable[ConjunctiveQuery],
        use_cache: bool,
        budget: "Optional[DeadlineBudget]" = None,
    ) -> Iterator[Tuple[ConjunctiveQuery, AnySolveResult]]:
        running = self._pool
        pool = self._ensure_pool(use_cache)
        fresh = pool is not running
        # A replaced pool's numbers can no longer arrive.
        self._shipped = {
            worker: table
            for worker, table in self._shipped.items()
            if worker[0] == self._generation
        }
        started = time.perf_counter()
        busy_total = 0.0
        busy_max = 0.0
        paused = 0.0
        sink = self._stores.telemetry if self._stores is not None else None
        workers = self._executor.effective_workers()
        window = workers * self._executor.inflight_factor
        deadline = self._executor.chunk_deadline_seconds
        chunk_iterator = _chunks(queries, self._executor.chunk_size)
        pending: Dict[int, Future] = {}
        submitted: Dict[int, Tuple[ConjunctiveQuery, ...]] = {}
        submit_times: Dict[int, float] = {}
        recycles = 0
        next_submit = 0
        next_yield = 0
        exhausted = False
        while True:
            while not exhausted and len(pending) < window:
                chunk = next(chunk_iterator, None)
                if chunk is None:
                    exhausted = True
                    break
                submitted[next_submit] = chunk
                submit_times[next_submit] = time.monotonic()
                pending[next_submit] = pool.submit(_evaluate_chunk, chunk, budget)
                next_submit += 1
            if next_yield not in pending:
                break
            future = pending[next_yield]
            try:
                # The parent-side wait composes both clocks: the
                # per-chunk wedge deadline (relative to submission) and
                # the batch budget (absolute) — whichever bites first.
                remaining: Optional[float] = None
                if deadline is not None:
                    remaining = submit_times[next_yield] + deadline - time.monotonic()
                if budget is not None:
                    remaining = budget.clamp(remaining)
                if remaining is None:
                    payload = future.result()
                else:
                    payload = future.result(timeout=max(remaining, 0.0))
            except DeadlineExceededError:
                # A worker's budget check fired mid-chunk.  Every other
                # in-flight chunk shares the same expired budget, so
                # there is nothing worth recycling for.
                self._abandon_pool()
                raise
            except FuturesTimeoutError:
                if budget is not None and budget.expired:
                    # The *batch budget* ran out (as opposed to one
                    # wedged chunk): surface it as the composed-timeout
                    # error, not as a recycle storm.
                    self._abandon_pool()
                    raise DeadlineExceededError(
                        f"batch deadline exhausted waiting on chunk {next_yield}"
                    )
                # The chunk blew its deadline: the worker holding it is
                # wedged (stuck syscall, runaway solve).  Recycle the
                # pool and re-dispatch everything unfinished.
                if self._monitor is not None:
                    self._monitor.observe_deadline_expiry()
                recycles += 1
                if recycles > self._executor.max_recycles:
                    self._abandon_pool()
                    raise RuntimeError(
                        f"chunk {next_yield} still unfinished after "
                        f"{self._executor.max_recycles} pool recycles "
                        f"(chunk deadline {deadline}s)"
                    )
                pool = self._recycle_pool(
                    use_cache, pending, submitted, submit_times, "chunk-deadline",
                    budget,
                )
                continue
            except BrokenProcessPool:
                # A worker died (killed, crashed); every pending future
                # is poisoned but completed results are still good.
                recycles += 1
                if recycles > self._executor.max_recycles:
                    self._abandon_pool()
                    raise
                pool = self._recycle_pool(
                    use_cache, pending, submitted, submit_times, "broken-pool",
                    budget,
                )
                continue
            pending.pop(next_yield)
            chunk = submitted.pop(next_yield)
            submitted_at = submit_times.pop(next_yield)
            busy = payload.busy
            if next_yield == 0 and fresh:
                self.pool_startup_seconds = max(
                    0.0, time.monotonic() - submitted_at - busy
                )
            busy_total += busy
            busy_max = max(busy_max, busy)
            next_yield += 1
            # Recorded here, where each chunk index passes exactly once,
            # so a recycle's re-dispatch never records a chunk twice.
            if payload.samples and sink is not None:
                sink.record(payload.samples)
            self._classifications += payload.classifications
            results = self._receive(payload, chunk, use_cache, budget)
            handed = time.perf_counter()
            yield from zip(chunk, results)
            paused += time.perf_counter() - handed
        if next_yield and not fresh and not recycles:
            # Neither the consumer's time between results nor a worker
            # idling behind one slow chunk is overhead of the pool.
            wall = time.perf_counter() - started - paused
            least = max(busy_total / workers, busy_max)
            self.chunk_overhead_seconds = max(0.0, (wall - least) / next_yield)

    def _receive(
        self,
        payload: _ChunkPayload,
        chunk: Tuple[ConjunctiveQuery, ...],
        use_cache: bool,
        budget: "Optional[DeadlineBudget]" = None,
    ) -> List[AnySolveResult]:
        """Resolve a chunk's numbers to result objects (parent side).

        Each worker's table mirrors the worker's own LRU: the parent
        reads a worker's chunks in the order the worker ran them and
        applies the same inserts and touches.  A number the table lacks
        went out with an object in a chunk this service never read (a
        stream closed early, a recycled pool) or left the table first;
        its query is then solved here, and the result kept under that
        number for the worker's later repeats.
        """
        table = self._shipped.get(payload.worker)
        if table is None:
            table = self._shipped[payload.worker] = BoundedLRU(_SOLVED_CACHE_LIMIT)
        results = []
        for query, number in zip(chunk, payload.numbers):
            result = payload.fresh.get(number)
            if result is not None:
                table.put(number, result)
            else:
                result = table.get(number)
                if result is None:
                    result = self._solve_here(query, use_cache, budget)
                    table.put(number, result)
            results.append(result)
        return results

    def _solve_here(
        self,
        query: ConjunctiveQuery,
        use_cache: bool,
        budget: "Optional[DeadlineBudget]" = None,
    ) -> AnySolveResult:
        context = self._batch_context(use_cache)
        try:
            return context.solve(query, budget)
        finally:
            self._settle(context)

    def _recycle_pool(
        self,
        use_cache: bool,
        pending: Dict[int, Future],
        submitted: Dict[int, Tuple[ConjunctiveQuery, ...]],
        submit_times: Dict[int, float],
        reason: str,
        budget: "Optional[DeadlineBudget]" = None,
    ) -> ProcessPoolExecutor:
        """Replace a wedged/broken pool, re-dispatching unfinished chunks.

        Chunks whose futures already completed successfully keep their
        results — they are yielded from the old futures untouched — so
        a recycle never loses *or* duplicates an answer: each chunk
        index is yielded exactly once, from exactly one future.  The
        rest are re-submitted in index order to a fresh pool built from
        the current planner config.  The old pool's worker processes
        are terminated explicitly: a wedged worker never exits on its
        own, and ``shutdown`` alone would hang interpreter exit on its
        join.
        """
        old = self._pool
        self._pool = None
        self._pool_key = None
        pool = self._ensure_pool(use_cache)
        redispatched = 0
        for index in sorted(pending):
            future = pending[index]
            if future.done() and not future.cancelled() and future.exception() is None:
                continue  # a finished result survives the recycle
            future.cancel()
            pending[index] = pool.submit(_evaluate_chunk, submitted[index], budget)
            submit_times[index] = time.monotonic()
            redispatched += 1
        terminated = self._terminate_pool(old)
        if self._monitor is not None:
            for pid in terminated:
                self._monitor.forget_worker(pid)
            self._monitor.observe_recycle(reason, redispatched)
        return pool

    @staticmethod
    def _terminate_pool(old: Optional[ProcessPoolExecutor]) -> List[int]:
        """Kill a pool's workers and abandon it; returns terminated pids.

        Private API, but the only handle on a wedged worker: the
        executor's public surface has no "terminate workers", and a
        wedged worker never exits on its own — ``shutdown`` alone would
        hang interpreter exit on its join.
        """
        terminated: List[int] = []
        if old is not None:
            processes = getattr(old, "_processes", None) or {}
            for process in list(processes.values()):
                if process.is_alive():
                    process.terminate()
                if process.pid is not None:
                    terminated.append(process.pid)
            old.shutdown(wait=False, cancel_futures=True)
        return terminated

    def _abandon_pool(self) -> None:
        """Tear down a pool we cannot trust to shut down cleanly.

        The give-up path past ``max_recycles``: the caller is about to
        raise, and a wedged worker left alive would hang the service's
        ``close()`` (and interpreter exit) on its join.
        """
        old = self._pool
        self._pool = None
        self._pool_key = None
        for pid in self._terminate_pool(old):
            if self._monitor is not None:
                self._monitor.forget_worker(pid)

    def _ensure_pool(self, use_cache: bool) -> ProcessPoolExecutor:
        key = (use_cache, self._executor.slim_results)
        if self._pool is not None and self._pool_key != key:
            self.close()
        if self._pool is None:
            self._generation += 1
            stores = self._stores
            timed = stores is not None and stores.telemetry is not None
            if timed:
                # The sink stays in the parent (its lock cannot be
                # pickled, and a forked copy would swallow samples):
                # workers time their solves and return the samples.
                stores = replace(stores, telemetry=None)
            self._pool = ProcessPoolExecutor(
                max_workers=self._executor.effective_workers(),
                initializer=_initialize_worker,
                initargs=(
                    self._database,
                    self._planner,
                    use_cache,
                    self._executor.slim_results,
                    stores,
                    timed,
                    self._generation,
                ),
            )
            self._pool_key = key
        return self._pool
