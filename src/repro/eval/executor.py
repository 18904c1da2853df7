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
  tuples: a chunk travels as its queries'
  :meth:`~repro.cq.query.ConjunctiveQuery.content_key` values (strings
  in tuples, no query objects), and a worker rebuilds a query only for a
  key its memo lacks.  Each worker process receives the database once
  (at pool initialisation), converts it to one structure on its first
  solve and keeps that structure, its hash indexes and its
  classification-profile cache, so a chunk never re-ships or re-derives
  the database side.  The parent keeps every answer it has, its own
  and what the pool returned, in one content memo, and a chunk whose
  every query that memo holds is answered in the parent and never
  submitted.  A chunk with a miss sends only the content keys that
  neither the memo holds nor an earlier chunk of the batch sends, each
  once, and its other queries take their results from the memo or from
  the chunk that sends their key; the pool starts only when a chunk
  must send something.  A batch starts
  in-process and moves to the pool only once the seconds it has
  measured say the pool finishes the rest sooner.
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
    SolveResult,
    solve_with_degree,
)
from repro.cq.database import Database
from repro.cq.query import ConjunctiveQuery, ContentKey
from repro.eval.planner import QueryPlan, plan_query_cached
from repro.eval.stats import DatabaseStatistics
from repro.structures.indexes import structure_index
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, types only
    from repro.service.resilience import DeadlineBudget
    from repro.service.store import ServiceStores

DatabaseLike = Union[Database, Structure]

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

#: Chunks a parallel batch keeps in flight per worker.  The window of
#: ``workers · INFLIGHT_FACTOR`` chunks keeps a stream over a huge batch
#: memory-bounded; a chunk that sends nothing (the parent answers it from
#: its own memo and from earlier chunks of the batch) takes a place in
#: it like a submitted one.
INFLIGHT_FACTOR = 4


@dataclass(frozen=True)
class ExecutorConfig:
    """Degrees of freedom of the parallel executor.

    ``workers=None`` asks for one worker per CPU; ``workers<=1`` keeps
    everything in-process (the sequential reference behaviour).  A chunk
    of ``chunk_size`` queries goes to a worker as their content keys,
    plain tuples rather than query objects (:func:`_evaluate_chunk`);
    the in-process path reads its input in chunks of the same size, and
    each chunk probes the content memo once.  A chunk sends only the
    content keys the parent lacks and no earlier chunk of the batch
    sends, so one key goes to one worker.

    Whether a batch runs in-process or on the pool is not configured:
    :class:`EvalService` decides it from seconds it measures (see
    :meth:`EvalService.evaluate_stream`) and records the outcome in
    :attr:`EvalService.last_mode`.  The hand-over needs a full chunk per
    worker left after at least one query, so a batch of at most
    ``workers · chunk_size`` queries stays in-process.

    ``chunk_deadline_seconds`` arms fault tolerance: while waiting on
    the next in-order chunk the service gives up once the chunk has
    been in flight that long, declares the pool wedged, and recycles it
    — a fresh pool, every unfinished chunk re-submitted, the old
    processes terminated.  The deadline covers every submitted chunk,
    including one answered wholly from a worker's memo, which stamps no
    heartbeat.
    A broken pool (worker killed) recycles the same way regardless of
    the deadline.  ``None`` (the default) keeps the historical blocking
    wait.  ``max_recycles`` bounds consecutive recycle attempts per
    evaluation call, so a fault that re-arms forever fails loudly
    instead of looping.
    """

    workers: Optional[int] = None
    chunk_size: int = 16
    chunk_deadline_seconds: Optional[float] = None
    max_recycles: int = 3

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 0:
            raise ValueError("workers must be None or non-negative")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
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

    The parent keeps one for the service's lifetime, which evaluates
    every in-process batch, holds what the pool returned and serves
    introspection (:meth:`EvalService.context`); every worker process
    keeps one for the lifetime of its pool.  It solves against one
    structure of the whole database, converted on its first solve, so
    the structure index, the sorted universe and each hash table are
    built once per context whatever vocabularies the queries use
    (:meth:`solve_target`).  A per-vocabulary target (:meth:`target_for`)
    is built only for statistics (:meth:`stats_for`) and for a pattern
    that names a table the database lacks or contradicts a table's
    arity.  The context also memoises the classification profile per
    canonical structure.  Profiles come from the rigidity-certified core
    engine (via :func:`classify_structure`), so a cache miss on a
    fold-collapsible or certificate-rigid pattern costs index lookups
    and propagation, not ``n`` retraction searches.

    Results are memoised at three levels.  :attr:`by_content` is keyed by
    the query's content key, its atoms and variables as plain tuples, and
    is probed first, once per chunk for all of the chunk's queries, so a
    repeated query — the same objects, an equal one parsed afresh, or a
    key sent to a pool worker — is answered without building its
    canonical structure.  The parent's context also holds there every
    result the pool sent back, and a parallel batch probes it before it
    submits a chunk.  On a miss the query is canonicalised and
    :attr:`solved`, keyed by (pattern, vocabulary), catches queries that
    differ only in atom order or repeated atoms.  A new pattern is classified, and :attr:`by_core` then
    holds one route decision and one answer per distinct core (Theorem 3.1
    classifies a query by its core, and hom(A → B) holds iff hom(core(A) →
    B) does): a pattern that folds to a core already solved here gets its
    own result, with its own profile, from the stored degree, solver
    string and answer, without planning or solving, and leaves no
    telemetry sample.  Renamed variables give a different canonical
    structure and core, and are solved separately.

    :attr:`classifications` counts the classifier calls this context
    made, whichever profile cache missed; a pool worker hands its count
    to the parent with each chunk (:meth:`take_classifications`).
    """

    def __init__(
        self,
        database: DatabaseLike,
        config: PlannerConfig,
        stores: "Optional[ServiceStores]" = None,
        timed: bool = False,
    ) -> None:
        self.database = database
        self.config = config
        #: Service-lifetime shared state (:mod:`repro.service.store`):
        #: cross-process profile/answer stores and, in the parent, the
        #: telemetry sink.  None classifies through the module-level
        #: profile cache.
        self.stores = stores
        #: Whether solves are timed into :attr:`telemetry_buffer`: when
        #: ``stores`` carries the sink, or when ``timed`` says the parent's
        #: does (a pool worker's bundle comes without it).
        self.timed = timed or (stores is not None and stores.telemetry is not None)
        #: ``(route, seconds)`` samples of the solves since the last
        #: hand-off: a worker returns them with each chunk's results,
        #: the parent records them into its sink once per batch.
        self.telemetry_buffer: List[object] = []
        #: The whole database as one structure, converted on the first
        #: solve (see :meth:`solve_target`).
        self.whole: Optional[Structure] = None
        self.targets: Dict[Vocabulary, Structure] = {}
        self.stats: Dict[Vocabulary, DatabaseStatistics] = {}
        #: Memoised results keyed by (canonical pattern, vocabulary).  The
        #: context is bound to one database, so the answer — and, with the
        #: planner config fixed per context, the route and provenance —
        #: is a pure function of that key; duplicated queries (batches
        #: sampled from shape generators repeat patterns constantly) pay
        #: for one solve.  Bounded so a streaming workload over endless
        #: distinct patterns cannot grow it without limit.
        self.solved: "BoundedLRU[Tuple[Structure, Vocabulary], SolveResult]" = (
            BoundedLRU(_SOLVED_CACHE_LIMIT)
        )
        #: The same result objects keyed by
        #: :meth:`~repro.cq.query.ConjunctiveQuery.content_key`, probed
        #: before canonicalising.  Every answered query leaves an entry,
        #: whichever level answered it.
        self.by_content: "BoundedLRU[ContentKey, SolveResult]" = BoundedLRU(
            _SOLVED_CACHE_LIMIT
        )
        #: The full result of the first solve of each distinct core, keyed
        #: by the core.  Route and answer depend on the core alone (hom(A →
        #: B) iff hom(core(A) → B), and the widths are the core's), and
        #: the core carries the pattern's vocabulary, so with the database
        #: and planner config fixed it fixes the target too: a pattern that
        #: folds to a core solved here is answered without planning or
        #: solving.
        self.by_core: "BoundedLRU[Structure, SolveResult]" = BoundedLRU(
            _SOLVED_CACHE_LIMIT
        )
        self.classifications = 0
        #: Pool workers only: the worker's token, set at pool start-up,
        #: and the number each result object it shipped went out under
        #: (see :meth:`ship`).
        self.worker: Tuple[int, int] = (0, 0)
        self.shipped: "BoundedLRU[int, Tuple[int, SolveResult]]" = BoundedLRU(
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

    def solve_target(self, vocabulary: Vocabulary) -> Structure:
        """The structure a pattern over ``vocabulary`` is solved against.

        A homomorphism preserves only its pattern's own relations, so
        hom(A → B|τ(A)) = hom(A → B).  A pattern whose every symbol is a
        database table of the same arity is therefore solved against the
        whole database, converted once per context: one structure index,
        one sorted universe and one hash table per ``(relation,
        positions)`` serve every vocabulary.  A pattern that names a
        table the database lacks, or contradicts a table's arity, gets
        its vocabulary's target (:meth:`target_for`), which reads the
        missing table as empty or raises the reference's
        :class:`~repro.exceptions.VocabularyError`.

        The solvers find a target's index by value
        (:func:`~repro.structures.indexes.structure_index`), so the
        context keeps the cached index's own structure: each later lookup
        is an identity hit, not a full comparison with an equal structure
        another context cached first.
        """
        whole = self.whole
        if whole is None:
            database = self.database
            whole = (
                database.to_structure() if isinstance(database, Database) else database
            )
            whole = self.whole = structure_index(whole).structure
        if whole.vocabulary.includes(vocabulary):
            return whole
        return self.target_for(vocabulary)

    def stats_for(self, vocabulary: Vocabulary) -> DatabaseStatistics:
        stats = self.stats.get(vocabulary)
        if stats is None:
            stats = DatabaseStatistics.of(self.target_for(vocabulary))
            self.stats[vocabulary] = stats
        return stats

    def profile_for(
        self, pattern: Structure, deadline: "Optional[DeadlineBudget]" = None
    ) -> StructureProfile:
        if self.stores is not None and self.stores.profiles is not None:
            # The service-lifetime shared store: one classification per
            # distinct pattern across *all* workers and batches — the
            # store's claim protocol makes the compute exactly-once and
            # its counters are what the service stats endpoint reports.
            return self.stores.profiles.get_or_compute(
                pattern, lambda: self._classify(pattern), deadline=deadline
            )
        # The bounded cross-call LRU owned by repro.cq.evaluation;
        # imported lazily to keep the import graph acyclic.
        from repro.cq.evaluation import _cached_profile

        return _cached_profile(pattern, self._classify)

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
    ) -> SolveResult:
        """One query's result: its content-memo entry, or a solve."""
        result = self.by_content.get(query.content_key())
        if result is None:
            result = self.solve_miss(query, deadline)
        return result

    def solve_miss(
        self,
        query: ConjunctiveQuery,
        deadline: "Optional[DeadlineBudget]" = None,
    ) -> SolveResult:
        """Solve a query the content memo was probed for and lacks.

        The result lands in the content memo.  A chunk probes the memo
        once for all its queries (:meth:`~repro.caching.BoundedLRU.get_many`)
        and calls this for each distinct miss, so no query probes the
        memo twice.
        """
        result = self._solve_pattern(query.canonical_structure(), deadline)
        self.by_content.put(query.content_key(), result)
        return result

    def _solve_pattern(
        self,
        pattern: Structure,
        deadline: "Optional[DeadlineBudget]" = None,
    ) -> SolveResult:
        vocabulary = pattern.vocabulary
        key = (pattern, vocabulary)
        memoised = self.solved.get(key)
        if memoised is not None:
            return memoised
        answers = self.stores.answers if self.stores is not None else None
        if answers is not None:
            # The service-lifetime shared answer store: a pattern solved
            # by any worker in any earlier chunk is an IPC lookup here,
            # not a solve (ROADMAP "answer memoisation is per-context").
            shared = answers.peek(key)
            if shared is not None:
                self.solved.put(key, shared)
                return shared
        profile = self.profile_for(pattern, deadline)
        first = self.by_core.get(profile.core)
        if first is not None:
            # Another pattern with this core was solved here: its route
            # and answer are this pattern's too, and so are its widths.
            profile.adopt_widths(first.profile)
            result = SolveResult(first.answer, first.solver, first.degree, profile)
        else:
            target = self.solve_target(vocabulary)
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
            self.by_core.put(profile.core, result)
        self.solved.put(key, result)
        if answers is not None:
            answers.put(key, result)
        return result

    def take_samples(self) -> List[object]:
        """Hand over the buffered telemetry samples and start a new buffer."""
        samples, self.telemetry_buffer = self.telemetry_buffer, []
        return samples

    def ship(
        self, results: Sequence[SolveResult]
    ) -> Tuple[Tuple[int, ...], Dict[int, SolveResult]]:
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
        fresh: Dict[int, SolveResult] = {}
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
    stores: "Optional[ServiceStores]" = None,
    timed: bool = False,
    generation: int = 0,
) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = _EvaluationContext(database, config, stores, timed)
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
    fresh: Dict[int, SolveResult]
    #: The ``(route, seconds)`` samples of the solves the worker ran.
    samples: List[object]
    #: Seconds the worker spent evaluating the chunk.
    busy: float
    #: Classifier calls the worker made since its previous payload.
    classifications: int


def _evaluate_chunk(
    keys: Tuple[ContentKey, ...],
    deadline: "Optional[DeadlineBudget]" = None,
) -> _ChunkPayload:
    """The picklable work unit: evaluate one chunk in the worker's context.

    A chunk arrives as its queries' content keys
    (:meth:`~repro.cq.query.ConjunctiveQuery.content_key`): plain tuples
    of strings, which pickle and unpickle several times faster than query
    objects.  The worker probes its content memo once for the whole
    chunk, and only a key the memo lacks is rebuilt into a query
    (:meth:`~repro.cq.query.ConjunctiveQuery.from_content_key`) and
    solved, once however often the chunk repeats it.

    The payload carries each result as a number.  A result object goes
    with its number the first time this worker ships it and as the
    number alone afterwards; the parent keeps every object it received
    under its worker's token and number, so a repeat costs a few bytes
    instead of a pickled profile with its pattern, core and forest, and
    resolves to the very object the first trip delivered.  The
    payload also carries the telemetry samples of the solves the chunk
    ran, the seconds the worker spent on it and its classifier calls;
    the parent records the samples when it yields the chunk and
    measures the pool's overheads against the busy seconds.  The
    numbering table changes only once every query has been answered, so
    a chunk that raises leaves it as it was.

    Heartbeats mark only the part of a chunk that computes: the worker
    stamps "chunk-start" on the board at the chunk's first memo miss and
    "chunk-done" once the chunk is answered, if it stamped the start.  A
    chunk answered wholly from the memo makes no trip to the manager.  A
    worker wedged in a solve still shows a stale "chunk-start", and the
    executor's chunk deadline covers every chunk either way.

    ``deadline`` is the batch's shared budget (``time.monotonic`` is
    system-wide on Linux, so the pickled expiry means the same instant
    here as in the parent): the worker checks it between queries and
    threads it into store waits, so one budget bounds the whole nested
    stack instead of per-layer timeouts compounding.
    """
    context = _WORKER_CONTEXT
    if context is None:  # pragma: no cover — initializer always ran
        raise RuntimeError("worker used before initialisation")
    stamped = False
    start = time.perf_counter()
    # The loop of EvalService._evaluate_sequential, over keys.
    results = context.by_content.get_many(keys)
    solved: Dict[ContentKey, SolveResult] = {}
    for index, key in enumerate(keys):
        if deadline is not None:
            deadline.check("worker chunk query")
        if results[index] is None:
            result = solved.get(key)
            if result is None:
                if not stamped:
                    context.beat("chunk-start")
                    stamped = True
                query = ConjunctiveQuery.from_content_key(key)
                result = solved[key] = context.solve_miss(query, deadline)
            results[index] = result
    busy = time.perf_counter() - start
    numbers, fresh = context.ship(results)
    payload = _ChunkPayload(
        context.worker,
        numbers,
        fresh,
        context.take_samples(),
        busy,
        context.take_classifications(),
    )
    if stamped:
        context.beat("chunk-done")
    return payload


def _submit_chunk(
    pool: ProcessPoolExecutor,
    chunk: Tuple[ConjunctiveQuery, ...],
    budget: "Optional[DeadlineBudget]",
) -> Future:
    """Send a chunk's queries to the pool as their content keys.

    These are only the queries whose keys the chunk sends
    (:meth:`_InFlight.split`); a recycle re-sends the same.

    A pool that broke before the chunk went out (a worker died between
    batches, or while the window was filling) refuses the submission.
    The chunk then gets a future that already holds the error, so the
    in-order wait recycles the pool and re-dispatches it like any chunk
    the broken pool lost.
    """
    keys = tuple(query.content_key() for query in chunk)
    try:
        return pool.submit(_evaluate_chunk, keys, budget)
    except BrokenProcessPool as error:
        refused: Future = Future()
        refused.set_exception(error)
        return refused


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


class _InFlight:
    """What a parallel batch sends to the pool, once a chunk has a miss.

    Each chunk with a miss keeps its queries, their content keys and the
    results the parent's memo held when it was probed, so a later
    eviction from the memo sends no query to be solved in the parent.
    Each content key the pool answers is recorded with the last chunk
    that takes it, and its result once the chunk that sends it is
    yielded; a key's result is dropped once its last taker has it.
    """

    __slots__ = ("formed", "carried", "landed")

    def __init__(self) -> None:
        self.formed: Dict[
            int,
            Tuple[
                Tuple[ConjunctiveQuery, ...],
                List[ContentKey],
                List[Optional[SolveResult]],
            ],
        ] = {}
        self.carried: Dict[ContentKey, int] = {}
        self.landed: Dict[ContentKey, SolveResult] = {}

    def split(
        self,
        chunk: Tuple[ConjunctiveQuery, ...],
        keys: List[ContentKey],
        held: List[Optional[SolveResult]],
        index: int,
    ) -> Tuple[ConjunctiveQuery, ...]:
        """Record chunk ``index``, its content keys and what the memo
        held for each; return the first query of each key in it that
        neither the memo holds nor an earlier chunk sends."""
        sends: List[ConjunctiveQuery] = []
        for query, key, result in zip(chunk, keys, held):
            if result is None:
                if key not in self.carried:
                    sends.append(query)
                self.carried[key] = index
        self.formed[index] = (chunk, keys, held)
        return tuple(sends)

    def assemble(
        self, index: int
    ) -> Tuple[Tuple[ConjunctiveQuery, ...], List[SolveResult]]:
        """Chunk ``index``'s queries and results, once its turn has come:
        every key it takes from the pool has landed, from this chunk or
        an earlier one."""
        chunk, keys, held = self.formed.pop(index)
        results = [
            self.landed[key] if result is None else result
            for key, result in zip(keys, held)
        ]
        for key, result in zip(keys, held):
            if result is None and self.carried.get(key) == index:
                del self.carried[key]
                del self.landed[key]
        return chunk, results


class EvalService:
    """A reusable EVAL(Φ) evaluator bound to one database.

    The service owns (lazily) a worker pool whose processes hold the
    database, so repeated :meth:`evaluate` calls amortise both the pool
    start-up and the database's conversion and index builds.  Use it as a
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
        #: The parent's one evaluation context, for the service's
        #: lifetime: every in-process batch runs in it, its content memo
        #: also holds what the pool returned, and :meth:`context`,
        #: :meth:`plan` and :meth:`statistics` read it.
        self._context = _EvaluationContext(database, self._planner, stores=stores)
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
        #: busy seconds allow) / chunks submitted, where the batch wall
        #: leaves out the consumer's time between results and the least
        #: wall is the larger of the busy seconds per worker and the
        #: slowest chunk.
        self.pool_startup_seconds: Optional[float] = None
        self.chunk_overhead_seconds: Optional[float] = None
        #: Pools started so far; each worker's token pairs the number of
        #: its pool with its pid.
        self._generation = 0
        #: Per worker token, the result objects its chunks delivered, by
        #: number: the parent half of :meth:`_EvaluationContext.ship`.
        self._shipped: Dict[Tuple[int, int], "BoundedLRU[int, SolveResult]"] = {}
        #: Classifier calls of the pool workers (see
        #: :attr:`classification_calls`).
        self._classifications = 0

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool (if one was created)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
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

        Counted where the classifier is called, in the parent's context
        and in every pool worker (each chunk's payload carries the
        worker's count), so the value means the same with the shared
        profile store and with the module cache.  Calls made in a chunk
        whose payload the service never reads (a stream closed early, a
        worker killed mid-chunk) are not counted.
        """
        return self._classifications + self._context.classifications

    def context(self) -> _EvaluationContext:
        """The parent's evaluation context (targets, stats, profiles, memos).

        Every in-process batch runs in it, its content memo holds what
        the pool returned too, and :meth:`plan` and :meth:`statistics`
        read it.  Warming it with :meth:`~_EvaluationContext.stats_for`
        builds per-vocabulary targets, their indexes and statistics, and
        never the whole database, which the context converts on its
        first solve (:meth:`~_EvaluationContext.solve_target`).
        """
        return self._context

    def plan(self, query: ConjunctiveQuery) -> QueryPlan:
        """Return the plan (without solving) the service would use for a query."""
        return self._context.plan(query)

    def statistics(self, query: ConjunctiveQuery) -> DatabaseStatistics:
        """Return the database statistics for a query's vocabulary."""
        return self._context.stats_for(query.vocabulary())

    # -- evaluation ---------------------------------------------------------
    def evaluate(
        self,
        queries: Sequence[ConjunctiveQuery],
        mode: Optional[str] = None,
        deadline: "Optional[DeadlineBudget]" = None,
    ) -> List[Tuple[ConjunctiveQuery, SolveResult]]:
        """Evaluate a whole batch; the materialised form of the stream.

        A batch of at most ``workers · chunk_size`` queries, which the
        hand-over could never give to the pool (condition 2 of
        :meth:`_evaluate_measured`), takes the in-process path without
        being timed.  ``mode`` forces a path (see :meth:`evaluate_stream`).
        ``deadline`` bounds the whole call with one composed budget;
        exhausting it raises
        :class:`~repro.exceptions.DeadlineExceededError`.
        """
        workers = self._executor.effective_workers()
        floor = workers * self._executor.chunk_size + 1
        if mode is None and workers > 1 and len(queries) < floor:
            self._record_mode(
                "sequential", f"batch below {floor} queries (workers × chunk_size + 1)"
            )
            return list(self._evaluate_sequential(queries, deadline))
        return list(self.evaluate_stream(queries, mode=mode, deadline=deadline))

    def evaluate_stream(
        self,
        queries: Iterable[ConjunctiveQuery],
        mode: Optional[str] = None,
        deadline: "Optional[DeadlineBudget]" = None,
    ) -> Iterator[Tuple[ConjunctiveQuery, SolveResult]]:
        """Yield ``(query, SolveResult)`` pairs in input order.

        The input may be an arbitrary (even unbounded) iterable; at most
        ``workers · INFLIGHT_FACTOR`` chunks are in flight at any moment,
        so memory stays proportional to the window, not the batch.  The
        input is read ahead: in-process a chunk of ``chunk_size`` queries
        at a time, and at most ``workers · chunk_size`` queries during a
        measured head (:meth:`_evaluate_measured`), so a slow producer's
        first query is answered only once its chunk is full (or the input
        ends), and an input that raises partway through a chunk leaves
        that chunk's earlier queries unanswered.  A chunk whose every
        query the parent has answered before, in-process or through the
        pool, is answered from the parent's content memo with the objects
        it holds and is not sent to the pool; it still takes its place
        in the window.

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
            yield from self._evaluate_sequential(queries, deadline)
            return
        if mode == "sequential":
            self._record_mode("sequential", "forced by caller")
            yield from self._evaluate_sequential(queries, deadline)
            return
        if mode == "parallel":
            self._record_mode("parallel", "forced by caller")
            yield from self._evaluate_parallel(queries, deadline)
            return
        if (os.cpu_count() or 1) <= 1:
            # Fan-out can only add IPC on top of the same core.
            self._record_mode("sequential", "single CPU")
            yield from self._evaluate_sequential(queries, deadline)
            return
        yield from self._evaluate_measured(queries, deadline)

    def _record_mode(self, mode: str, reason: str) -> None:
        self.last_mode = mode
        self.last_mode_reason = reason

    # -- the paths ------------------------------------------------------------
    def _evaluate_measured(
        self,
        queries: Iterable[ConjunctiveQuery],
        deadline: "Optional[DeadlineBudget]" = None,
    ) -> Iterator[Tuple[ConjunctiveQuery, SolveResult]]:
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
        if self._pool is not None:
            startup = 0.0
        else:
            startup = max(POOL_STARTUP_PRIOR_SECONDS, self.pool_startup_seconds or 0.0)
        overhead = (
            CHUNK_OVERHEAD_PRIOR_SECONDS
            if self.chunk_overhead_seconds is None
            else self.chunk_overhead_seconds
        )
        context = self._context
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
            context.flush_telemetry()
        if handover is None:
            self._record_mode(
                "sequential",
                f"{done} queries took {spent * 1e3:.1f} ms in-process; pool "
                f"start-up {startup * 1e3:.1f} ms, {overhead * 1e3:.2f} ms per chunk",
            )
            return
        self._record_mode("parallel", handover)
        yield from self._evaluate_parallel(chain(ahead, source), deadline)

    def _evaluate_sequential(
        self,
        queries: Iterable[ConjunctiveQuery],
        deadline: "Optional[DeadlineBudget]" = None,
    ) -> Iterator[Tuple[ConjunctiveQuery, SolveResult]]:
        """Answer the batch in-process, ``chunk_size`` queries at a time.

        Each chunk is read whole, then probes the content memo once and
        is answered in order: each distinct miss is solved once, and a
        query repeated within the chunk takes the first one's result.
        :func:`_evaluate_chunk` answers a worker's chunk with the same
        loop over content keys.  The loop is written out in both rather
        than shared through a generator: the extra generator frame per
        query read 2.5-5% lower ``service_repeat`` throughput (2-vCPU VM,
        Python 3.11).
        """
        context = self._context
        try:
            for chunk in _chunks(queries, self._executor.chunk_size):
                keys = [query.content_key() for query in chunk]
                solved: Dict[ContentKey, SolveResult] = {}
                for query, key, result in zip(
                    chunk, keys, context.by_content.get_many(keys)
                ):
                    if deadline is not None:
                        deadline.check("sequential batch query")
                    if result is None:
                        result = solved.get(key)
                        if result is None:
                            result = solved[key] = context.solve_miss(query, deadline)
                    yield query, result
        finally:
            context.flush_telemetry()

    def _evaluate_parallel(
        self,
        queries: Iterable[ConjunctiveQuery],
        budget: "Optional[DeadlineBudget]" = None,
    ) -> Iterator[Tuple[ConjunctiveQuery, SolveResult]]:
        # The parent context's content memo holds every answer the
        # parent has, its own and the pool's: a chunk it holds whole is
        # answered here, and a chunk with a miss sends each key once,
        # only if neither the memo holds it nor an earlier chunk of this
        # call sends it.
        memo = self._context.by_content
        # Without a running pool one starts, fresh, when the first chunk
        # must be submitted.
        pool = self._pool
        # Only a running pool's numbers can still arrive.
        live = self._generation if self._pool is not None else None
        self._shipped = {
            worker: table
            for worker, table in self._shipped.items()
            if worker[0] == live
        }
        # The first chunk sent to a pool this call started, if any.
        fresh: Optional[int] = None
        started = time.perf_counter()
        busy_total = 0.0
        busy_max = 0.0
        paused = 0.0
        sink = self._stores.telemetry if self._stores is not None else None
        workers = self._executor.effective_workers()
        window = workers * INFLIGHT_FACTOR
        deadline = self._executor.chunk_deadline_seconds
        chunk_iterator = _chunks(queries, self._executor.chunk_size)
        held: Dict[int, Tuple[Tuple[ConjunctiveQuery, ...], List[SolveResult]]] = {}
        # Built by the first chunk with a miss; a batch the parent holds
        # in full never builds it.
        inflight: Optional[_InFlight] = None
        pending: Dict[int, Future] = {}
        submitted: Dict[int, Tuple[ConjunctiveQuery, ...]] = {}
        submit_times: Dict[int, float] = {}
        recycles = 0
        sent = 0
        next_submit = 0
        next_yield = 0
        exhausted = False
        while True:
            # Every chunk formed and not yet yielded takes a place in the
            # window, whether it went out or not.
            while not exhausted and next_submit - next_yield < window:
                chunk = next(chunk_iterator, None)
                if chunk is None:
                    exhausted = True
                    break
                index = next_submit
                next_submit += 1
                # One probe of the memo per chunk serves both the held
                # check and the split.
                keys = [query.content_key() for query in chunk]
                answers = memo.get_many(keys)
                for answer in answers:
                    if answer is None:
                        break
                else:  # the memo holds the whole chunk
                    held[index] = (chunk, answers)
                    continue
                if inflight is None:
                    inflight = _InFlight()
                sends = inflight.split(chunk, keys, answers, index)
                if not sends:  # every miss rides on an earlier chunk
                    continue
                if pool is None:
                    pool = self._ensure_pool()
                    fresh = index
                submitted[index] = sends
                submit_times[index] = time.monotonic()
                pending[index] = _submit_chunk(pool, sends, budget)
                sent += 1
            if next_yield == next_submit:
                break
            answered = held.pop(next_yield, None)
            if answered is None and next_yield not in pending:
                # Nothing left to send: answered here, in its turn.
                answered = inflight.assemble(next_yield)
            if answered is not None:
                next_yield += 1
                handed = time.perf_counter()
                yield from zip(*answered)
                paused += time.perf_counter() - handed
                continue
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
                    pending, submitted, submit_times, "chunk-deadline", budget
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
                    pending, submitted, submit_times, "broken-pool", budget
                )
                continue
            pending.pop(next_yield)
            chunk = submitted.pop(next_yield)
            submitted_at = submit_times.pop(next_yield)
            busy = payload.busy
            if next_yield == fresh:
                self.pool_startup_seconds = max(
                    0.0, time.monotonic() - submitted_at - busy
                )
            busy_total += busy
            busy_max = max(busy_max, busy)
            # Recorded here, where each chunk index passes exactly once,
            # so a recycle's re-dispatch never records a chunk twice.
            if payload.samples and sink is not None:
                sink.record(payload.samples)
            self._classifications += payload.classifications
            results = self._receive(payload, chunk, budget)
            for query, result in zip(chunk, results):
                content = query.content_key()
                memo.put(content, result)
                inflight.landed[content] = result
            chunk, results = inflight.assemble(next_yield)
            next_yield += 1
            handed = time.perf_counter()
            yield from zip(chunk, results)
            paused += time.perf_counter() - handed
        if sent and fresh is None and not recycles:
            # Neither the consumer's time between results nor a worker
            # idling behind one slow chunk is overhead of the pool.
            wall = time.perf_counter() - started - paused
            least = max(busy_total / workers, busy_max)
            self.chunk_overhead_seconds = max(0.0, (wall - least) / sent)

    def _receive(
        self,
        payload: _ChunkPayload,
        chunk: Tuple[ConjunctiveQuery, ...],
        budget: "Optional[DeadlineBudget]" = None,
    ) -> List[SolveResult]:
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
                    result = self._solve_here(query, budget)
                    table.put(number, result)
            results.append(result)
        return results

    def _solve_here(
        self,
        query: ConjunctiveQuery,
        budget: "Optional[DeadlineBudget]" = None,
    ) -> SolveResult:
        try:
            return self._context.solve(query, budget)
        finally:
            self._context.flush_telemetry()

    def _recycle_pool(
        self,
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
        pool = self._ensure_pool()
        redispatched = 0
        for index in sorted(pending):
            future = pending[index]
            if future.done() and not future.cancelled() and future.exception() is None:
                continue  # a finished result survives the recycle
            future.cancel()
            pending[index] = _submit_chunk(pool, submitted[index], budget)
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
        for pid in self._terminate_pool(old):
            if self._monitor is not None:
                self._monitor.forget_worker(pid)

    def _ensure_pool(self) -> ProcessPoolExecutor:
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
                    self._database, self._planner, stores, timed, self._generation
                ),
            )
        return self._pool
