"""The query-service front-end: a long-lived EVAL(Φ) serving layer.

:class:`QueryService` is what the ROADMAP's "production-scale service"
looks like above the executor: one object bound to one database that

* **batches requests** — :meth:`submit` coalesces individually arriving
  queries; :meth:`flush` ships them through the executor in bounded
  batches, so a thousand one-query submits cost one pool interaction
  per batch, not a thousand;
* **shares state across workers** — classification profiles and solved
  answers live in the cross-process stores of
  :mod:`repro.service.store`, so a repeated pattern is classified (and
  solved) **once per service lifetime**, not once per worker per chunk;
* **leaves serial vs parallel to the executor** — each batch goes to
  :class:`~repro.eval.executor.EvalService` with no mode, and the
  executor decides from seconds it measured itself (pool start-up and
  per-chunk overhead) and from the batch's own per-query times;
* **answers for itself** — :meth:`stats` exposes store hit/miss/compute
  counters (the "classification calls" the dedup benchmark gates on),
  the mode history with reasons, and the executor's measured cutover
  inputs; every solve that ran leaves a ``(route, seconds)`` sample in
  the telemetry sink, counted per route in ``route_solves_total``.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import time
from collections import deque
from collections.abc import Mapping as AbstractMapping
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.classification.solver_dispatch import PlannerConfig, SolveResult
from repro.cq.database import Database
from repro.cq.query import ConjunctiveQuery
from repro.eval.executor import EvalService, ExecutorConfig
from repro.exceptions import DeadlineExceededError, StoreUnavailableError
from repro.service.metrics import MetricsRegistry, register_store_metrics
from repro.service.monitor import ServiceMonitor
from repro.service.resilience import DeadlineBudget
from repro.service.store import ServiceStores, StoreManager
from repro.structures.structure import Structure

DatabaseLike = Union[Database, Structure]

#: How many of the most recent batches :meth:`QueryService.stats` reports
#: in ``mode_history``.  A long-lived service serves batches without end,
#: and ``stats()`` copies the history on every call.
MODE_HISTORY_LIMIT = 256

#: Errors that say the service could not serve a batch right now, not
#: that the batch cannot be served: a batch that raises one stays queued
#: for one retry at the next :meth:`QueryService.flush`.
RETRYABLE_ERRORS = (DeadlineExceededError, StoreUnavailableError)


def _json_safe(value: Any) -> Any:
    """Project arbitrary service state onto JSON-serialisable types.

    The stats endpoint aggregates manager proxies, tuples, enums and
    dataclasses from half a dozen subsystems; any one of them leaking
    through breaks ``json.dumps`` for a caller.  Mappings become string
    -keyed dicts, sequences become lists, enums their values,
    dataclasses their field dicts, NaN and infinities None (JSON has no
    such numbers; a gauge with nothing measured yet reads NaN), and
    anything else falls back to ``repr`` — nothing raises.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return _json_safe(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _json_safe(dataclasses.asdict(value))
    if isinstance(value, AbstractMapping):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset, deque)):
        return [_json_safe(item) for item in value]
    items = getattr(value, "items", None)
    if callable(items):  # manager DictProxy and friends
        try:
            return {str(key): _json_safe(item) for key, item in items()}
        except Exception:
            pass
    return repr(value)


class QueryService:
    """A long-lived EVAL(Φ) query service.

    Parameters
    ----------
    database:
        The database (or target structure) the service is bound to.
    planner, executor:
        As for :class:`~repro.eval.executor.EvalService`, which decides
        serial vs parallel for every batch not forced by the caller.
    shared:
        Back the stores with a ``multiprocessing.Manager`` (required
        for cross-worker sharing).  Default: exactly when the executor
        resolves to more than one worker.
    batch_size:
        Upper bound on one executor batch; a flush of more pending
        queries is split, each slice getting its own mode decision.
    metrics:
        A :class:`~repro.service.metrics.MetricsRegistry` to register
        into (one is created per service by default — pass a shared
        one to aggregate several services into one scrape).
    batch_deadline_seconds:
        Arms the per-batch deadline budget: each batch gets one
        :class:`~repro.service.resilience.DeadlineBudget` threaded
        through the executor's chunks and the stores' claim waits, so
        every nested timeout composes against the same bound.  A blown
        budget raises :class:`~repro.exceptions.DeadlineExceededError`
        (counted in ``deadline_exceeded_total``).  ``None`` (default)
        keeps batches unbounded.
    """

    def __init__(
        self,
        database: DatabaseLike,
        planner: Optional[PlannerConfig] = None,
        executor: Optional[ExecutorConfig] = None,
        *,
        shared: Optional[bool] = None,
        batch_size: int = 256,
        metrics: Optional[MetricsRegistry] = None,
        batch_deadline_seconds: Optional[float] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if batch_deadline_seconds is not None and batch_deadline_seconds <= 0:
            raise ValueError("batch_deadline_seconds must be positive")
        executor = executor if executor is not None else ExecutorConfig()
        self._database = database
        if shared is None:
            shared = executor.effective_workers() > 1
        self._store_manager = StoreManager(shared=shared)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.monitor = ServiceMonitor(
            heartbeats=self._store_manager.stores.heartbeats,
            deadline_seconds=executor.chunk_deadline_seconds,
            metrics=self.metrics,
        )
        self._eval = EvalService(
            database,
            planner=planner,
            executor=executor,
            stores=self._store_manager.stores,
            monitor=self.monitor,
        )
        self._batch_size = batch_size
        self._batch_deadline_seconds = batch_deadline_seconds
        self._pending: List[ConjunctiveQuery] = []
        self._retrying = False  # the head batch raised a retryable error
        self._mode_history: Deque[Dict[str, Any]] = deque(maxlen=MODE_HISTORY_LIMIT)
        self._queries_served = 0
        self._batches_served = 0
        self._telemetry_cursor = 0
        self._register_metrics()

    def _register_metrics(self) -> None:
        register_store_metrics(self.metrics, self._store_manager.stores)
        self._queries_counter = self.metrics.counter(
            "queries_total", "Queries served, by executed mode", labelnames=("mode",)
        )
        self._route_counter = self.metrics.counter(
            "route_solves_total",
            "Realised solves by planner route (from telemetry)",
            labelnames=("route",),
        )
        self._batch_histogram = self.metrics.histogram(
            "batch_seconds", "Wall-clock seconds per served batch"
        )
        self._deadline_counter = self.metrics.counter(
            "deadline_exceeded_total", "Batches that blew their deadline budget"
        )
        self.metrics.gauge(
            "queue_depth", "Queries submitted but not yet flushed"
        ).set_function(lambda: float(len(self._pending)))
        self.metrics.gauge(
            "spawn_overhead_seconds",
            "Measured per-chunk pool overhead (NaN until measured)",
        ).set_function(
            lambda: (
                float("nan")
                if self._eval.chunk_overhead_seconds is None
                else self._eval.chunk_overhead_seconds
            )
        )

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        self._eval.close()
        self._store_manager.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- serving ------------------------------------------------------------
    @property
    def stores(self) -> ServiceStores:
        """The service's shared store bundle (profiles, answers, telemetry)."""
        return self._store_manager.stores

    @property
    def planner(self) -> PlannerConfig:
        """The planner configuration the service routes under."""
        return self._eval.planner

    def eval_context(self):
        """The parent-side evaluation context (targets, stats, profiles)."""
        return self._eval.context()

    def submit(self, query: ConjunctiveQuery) -> None:
        """Queue one query; it runs at the next :meth:`flush`.

        This is the request-batching half of the front-end: arbitrarily
        many individually submitted queries become a handful of executor
        batches.
        """
        self._pending.append(query)

    def flush(
        self, mode: Optional[str] = None
    ) -> List[Tuple[ConjunctiveQuery, SolveResult]]:
        """Evaluate everything queued, in submission order.

        Pending queries are cut into batches of at most ``batch_size``;
        each batch gets its own executor decision (or the forced
        ``mode``) and is timed.

        A batch leaves the queue once it has been answered.  A batch
        that raises one of :data:`RETRYABLE_ERRORS` (a blown deadline,
        an unreachable store) stays queued with every later batch, and
        the next flush retries it.  A batch whose retry raises too, or
        that raises anything else (a malformed query, a failed solve),
        leaves the queue, and its queries go with the exception as its
        ``failed_batch`` list, to be resubmitted or dropped; every later
        batch stays queued, so no batch holds up the ones behind it for
        more than one retry.  Either way, the results of the batches this
        flush answered before it are served (and counted) but go with the
        exception, not to the caller.
        """
        out: List[Tuple[ConjunctiveQuery, SolveResult]] = []
        while self._pending:
            batch = self._pending[: self._batch_size]
            try:
                out.extend(self._run_batch(batch, mode))
            except Exception as error:
                if isinstance(error, RETRYABLE_ERRORS) and not self._retrying:
                    self._retrying = True
                    raise
                self._retrying = False
                del self._pending[: len(batch)]
                error.failed_batch = batch
                raise
            self._retrying = False
            del self._pending[: len(batch)]
        return out

    def evaluate(
        self, queries: Sequence[ConjunctiveQuery], mode: Optional[str] = None
    ) -> List[Tuple[ConjunctiveQuery, SolveResult]]:
        """Submit a whole batch and flush it (the one-call convenience).

        A batch that raises is kept or handed back as in :meth:`flush`.
        """
        self._pending.extend(queries)
        return self.flush(mode)

    def check_store_health(self) -> bool:
        """Probe the manager process; fail over if it died.  True = failed over.

        Runs at every batch boundary (cheap: one ``is_alive`` on a
        child process).  On failover the supervisor re-points the store
        bundle in place, the executor tears down the worker pool (its
        workers hold proxies into the corpse), and the monitor is
        re-attached to the new heartbeat board.
        """
        if self._store_manager.manager_alive():
            return False
        generation = self._store_manager.failover()
        self._eval.restart_pool()
        self.monitor.attach_heartbeats(self._store_manager.stores.heartbeats)
        self.monitor.observe_failover(generation)
        return True

    def _run_batch(
        self, batch: List[ConjunctiveQuery], mode: Optional[str]
    ) -> List[Tuple[ConjunctiveQuery, SolveResult]]:
        self.check_store_health()
        budget = (
            None
            if self._batch_deadline_seconds is None
            else DeadlineBudget(self._batch_deadline_seconds)
        )
        start = time.perf_counter()
        try:
            results = self._eval.evaluate(batch, mode=mode, deadline=budget)
        except DeadlineExceededError:
            self._deadline_counter.inc()
            raise
        elapsed = time.perf_counter() - start
        ran_mode = self._eval.last_mode
        self._batches_served += 1
        self._queries_served += len(batch)
        self._mode_history.append(
            {
                "batch": self._batches_served,
                "queries": len(batch),
                "mode": ran_mode,
                "reason": self._eval.last_mode_reason,
                "seconds": elapsed,
            }
        )
        self._queries_counter.inc(len(batch), mode=ran_mode)
        self._batch_histogram.observe(elapsed)
        for sample in self._consume_new_samples():
            self._route_counter.inc(route=sample.route)
        return results

    def _consume_new_samples(self) -> list:
        """Telemetry samples recorded since the last batch, each once.

        The cursor counts the sink's recorded batches, not its retained
        samples, so it keeps advancing when the bounded sink is full and
        dropping its oldest batches; only batches recorded and dropped
        between two calls are never seen.
        """
        samples, self._telemetry_cursor = self.stores.telemetry.since(
            self._telemetry_cursor
        )
        return samples

    def telemetry_samples(self) -> list:
        """Every solve sample the sink retains (read non-destructively)."""
        return self.stores.telemetry.drain()

    # -- the stats endpoint -------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The service's observable state, one JSON-serialisable dict.

        ``classification_calls`` counts classifier calls where they
        happen, in the parent and in every pool worker, with or without
        the shared stores.  With the shared profile store it equals the
        store's global compute counter — on a repeated-pattern workload
        it is bounded by the number of *distinct* patterns the service
        ever saw, which is the dedup guarantee the benchmark gates.

        ``mode_history`` holds the last :data:`MODE_HISTORY_LIMIT`
        batches only; ``batches_served`` counts every batch.

        Every value is passed through a JSON-safety projection
        (:func:`_json_safe`), so ``json.dumps(service.stats())`` is
        guaranteed to succeed whatever proxies or tuples the underlying
        subsystems leak.
        """
        stores = self.stores.info()
        return _json_safe(
            {
                "queries_served": self._queries_served,
                "batches_served": self._batches_served,
                "pending": len(self._pending),
                "shared_stores": self._store_manager.shared,
                "classification_calls": self._eval.classification_calls,
                "stores": stores,
                "cutover": {
                    "pool_startup_seconds": self._eval.pool_startup_seconds,
                    "chunk_overhead_seconds": self._eval.chunk_overhead_seconds,
                },
                "mode_history": list(self._mode_history),
                "monitor": self.monitor.info(),
                "metrics": self.metrics.collect(),
            }
        )

    def render_prometheus(self) -> str:
        """The metrics registry's text exposition (a /metrics body)."""
        return self.metrics.render_prometheus()
