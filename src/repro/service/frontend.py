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
* **decides serial vs parallel once per lifetime, not per call** — the
  :class:`AdaptiveController` keeps a running mean of realised
  per-query times with drift detection, replacing the executor's
  per-call head-sampling cutover (ROADMAP "adaptive decision is
  per-call");
* **calibrates itself** — every solve feeds the telemetry sink, and
  :meth:`calibrate` fits the planner's cost weights (and the spawn
  threshold) from the drained samples
  (:mod:`repro.service.telemetry`), optionally persisting the result so
  the next service starts calibrated;
* **answers for itself** — :meth:`stats` exposes store hit/miss/compute
  counters (the "classification calls" the dedup benchmark gates on),
  the mode history with reasons, drift events, and the calibration
  state.
"""

from __future__ import annotations

import dataclasses
import enum
import os
import time
from collections import deque
from collections.abc import Mapping as AbstractMapping
from dataclasses import replace
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.classification.solver_dispatch import DEFAULT_PLANNER_CONFIG, PlannerConfig
from repro.cq.database import Database
from repro.cq.query import ConjunctiveQuery
from repro.eval.executor import AnySolveResult, EvalService, ExecutorConfig
from repro.exceptions import DeadlineExceededError
from repro.service.autotune import AutoTuneConfig, AutoTuner
from repro.service.metrics import MetricsRegistry, register_store_metrics
from repro.service.monitor import ServiceMonitor
from repro.service.resilience import DeadlineBudget
from repro.service.store import ServiceStores, StoreManager
from repro.service.telemetry import (
    DEFAULT_SPAWN_OVERHEAD_SECONDS,
    CalibrationResult,
    CalibrationState,
    calibrate_planner,
)
from repro.structures.structure import Structure

DatabaseLike = Union[Database, Structure]

#: How many of the most recent batches :meth:`QueryService.stats` reports
#: in ``mode_history``.  A long-lived service serves batches without end,
#: and ``stats()`` copies the history on every call.
MODE_HISTORY_LIMIT = 256


def _json_safe(value: Any) -> Any:
    """Project arbitrary service state onto JSON-serialisable types.

    The stats endpoint aggregates manager proxies, tuples, enums and
    dataclasses from half a dozen subsystems; any one of them leaking
    through breaks ``json.dumps`` for a caller.  Mappings become string
    -keyed dicts, sequences become lists, enums their values,
    dataclasses their field dicts, and anything else falls back to
    ``repr`` — nothing raises.
    """
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


class AdaptiveController:
    """The service-lifetime serial/parallel decision with drift detection.

    The executor's adaptive cutover samples the head of *every* batch
    and asks the planner for estimates; this controller instead keeps a
    running mean of **realised** per-query seconds across the service's
    whole lifetime and compares the implied per-chunk solving time with
    the measured pool spawn overhead — no per-call estimation work at
    all once warmed up.

    Drift detection: per-batch means are kept in a bounded window, and
    when the window mean diverges from the lifetime mean by more than
    ``drift_factor`` in either direction the lifetime statistics are
    reset to the window — the workload has shifted (e.g. from folded
    trees to dense clique queries) and decisions should track the new
    regime, not the stale average.  Every reset is recorded.
    """

    def __init__(
        self,
        workers: int,
        chunk_size: int,
        spawn_overhead_seconds: float = DEFAULT_SPAWN_OVERHEAD_SECONDS,
        min_parallel_batch: int = 32,
        warmup_queries: int = 8,
        drift_window: int = 16,
        drift_factor: float = 4.0,
    ) -> None:
        if drift_window < 2:
            raise ValueError("drift_window must be at least 2")
        if drift_factor <= 1.0:
            raise ValueError("drift_factor must exceed 1.0")
        self.workers = workers
        self.chunk_size = chunk_size
        self.spawn_overhead_seconds = spawn_overhead_seconds
        self.min_parallel_batch = min_parallel_batch
        self.warmup_queries = warmup_queries
        self.drift_factor = drift_factor
        self._lifetime_seconds = 0.0
        self._lifetime_queries = 0
        self._window: Deque[float] = deque(maxlen=drift_window)
        self.drift_events: List[Dict[str, float]] = []

    @property
    def mean_seconds(self) -> Optional[float]:
        """Lifetime mean realised seconds per query (serial-equivalent)."""
        if self._lifetime_queries == 0:
            return None
        return self._lifetime_seconds / self._lifetime_queries

    def observe(self, seconds: float, queries: int, mode: str) -> None:
        """Record one batch's realised wall time.

        Parallel wall time is converted to a serial-equivalent estimate
        (``wall · workers``, i.e. assuming the pool was busy) so both
        modes feed the same per-query statistic the serial/parallel
        comparison needs.
        """
        if queries <= 0:
            return
        factor = self.workers if mode == "parallel" else 1
        per_query = seconds * factor / queries
        self._lifetime_seconds += per_query * queries
        self._lifetime_queries += queries
        self._window.append(per_query)
        self._check_drift()

    def _check_drift(self) -> None:
        if len(self._window) < self._window.maxlen:
            return
        lifetime_mean = self.mean_seconds
        if not lifetime_mean:
            return
        window_mean = sum(self._window) / len(self._window)
        if (
            window_mean > lifetime_mean * self.drift_factor
            or window_mean * self.drift_factor < lifetime_mean
        ):
            self.drift_events.append(
                {
                    "lifetime_mean_seconds": lifetime_mean,
                    "window_mean_seconds": window_mean,
                    "queries_observed": float(self._lifetime_queries),
                }
            )
            # Restart the lifetime statistics from the recent window:
            # the old regime's numbers would keep outvoting reality.
            self._lifetime_seconds = window_mean * len(self._window)
            self._lifetime_queries = len(self._window)
            self._window.clear()

    def decide(self, batch_size: int) -> Tuple[str, str]:
        """Return ``(mode, reason)`` for a batch of the given size."""
        if self.workers <= 1:
            return "sequential", "workers <= 1"
        if (os.cpu_count() or 1) <= 1:
            return "sequential", "single CPU"
        if batch_size < self.min_parallel_batch:
            return "sequential", "batch below min_parallel_batch"
        if self._lifetime_queries < self.warmup_queries:
            return (
                "sequential",
                f"warm-up: {self._lifetime_queries}/{self.warmup_queries} "
                f"queries observed",
            )
        chunk_seconds = (self.mean_seconds or 0.0) * self.chunk_size
        if chunk_seconds < self.spawn_overhead_seconds:
            return (
                "sequential",
                f"mean chunk time {chunk_seconds:.2e}s below spawn "
                f"overhead {self.spawn_overhead_seconds:.2e}s",
            )
        return (
            "parallel",
            f"mean chunk time {chunk_seconds:.2e}s above spawn "
            f"overhead {self.spawn_overhead_seconds:.2e}s",
        )

    def info(self) -> Dict[str, Any]:
        return {
            "queries_observed": self._lifetime_queries,
            "mean_seconds": self.mean_seconds,
            "spawn_overhead_seconds": self.spawn_overhead_seconds,
            "drift_events": list(self.drift_events),
        }


class QueryService:
    """A long-lived, self-calibrating EVAL(Φ) query service.

    Parameters
    ----------
    database:
        The database (or target structure) the service is bound to.
    planner, executor:
        As for :class:`~repro.eval.executor.EvalService`.  The
        executor's own per-call adaptive cutover is disabled — the
        service-lifetime :class:`AdaptiveController` owns the decision.
    shared:
        Back the stores with a ``multiprocessing.Manager`` (required
        for cross-worker sharing).  Default: exactly when the executor
        resolves to more than one worker.
    telemetry:
        Record a :class:`~repro.service.telemetry.SolveSample` per
        realised solve (the input to :meth:`calibrate`).
    batch_size:
        Upper bound on one executor batch; a flush of more pending
        queries is split, each slice getting its own mode decision.
    calibration:
        A :class:`CalibrationState` (or a path to one saved with
        :meth:`save_calibration`) to start from, instead of the
        hand-set defaults.  A missing, truncated or corrupted state
        file is tolerated: the service logs nothing, keeps the
        hand-set (or explicitly passed) planner, and starts clean —
        a bad config file must never take the service down.
    autotune:
        ``True`` or an :class:`~repro.service.autotune.AutoTuneConfig`
        arms background recalibration: after every batch the
        :class:`~repro.service.autotune.AutoTuner` may re-fit the
        planner from telemetry and hot-swap it (guarded, no pool
        restart).  Default: off.
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
        telemetry: bool = True,
        batch_size: int = 256,
        spawn_overhead_seconds: float = DEFAULT_SPAWN_OVERHEAD_SECONDS,
        warmup_queries: int = 8,
        drift_window: int = 16,
        drift_factor: float = 4.0,
        calibration: Optional[Union[CalibrationState, str]] = None,
        autotune: Union[None, bool, AutoTuneConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        batch_deadline_seconds: Optional[float] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if batch_deadline_seconds is not None and batch_deadline_seconds <= 0:
            raise ValueError("batch_deadline_seconds must be positive")
        executor = executor if executor is not None else ExecutorConfig()
        # The front-end owns the serial/parallel decision; the executor
        # must not second-guess it per call.
        executor = replace(executor, adaptive=False)
        self._database = database
        self._base_planner = planner if planner is not None else DEFAULT_PLANNER_CONFIG
        self._calibration: Optional[CalibrationState] = None
        if isinstance(calibration, str):
            calibration = CalibrationState.load_or_none(calibration)
        if calibration is not None:
            self._calibration = calibration
            planner = calibration.planner
            if calibration.spawn_cost_threshold is not None:
                spawn_overhead_seconds = calibration.spawn_cost_threshold
        workers = executor.effective_workers()
        if shared is None:
            shared = workers > 1
        self._store_manager = StoreManager(shared=shared, telemetry=telemetry)
        self._executor_config = executor
        self._planner = planner if planner is not None else self._base_planner
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.monitor = ServiceMonitor(
            heartbeats=self._store_manager.stores.heartbeats,
            deadline_seconds=executor.chunk_deadline_seconds,
            metrics=self.metrics,
        )
        self._eval = EvalService(
            database,
            planner=self._planner,
            executor=executor,
            stores=self._store_manager.stores,
            monitor=self.monitor,
        )
        self.controller = AdaptiveController(
            workers=workers,
            chunk_size=executor.chunk_size,
            spawn_overhead_seconds=spawn_overhead_seconds,
            min_parallel_batch=executor.min_parallel_batch,
            warmup_queries=warmup_queries,
            drift_window=drift_window,
            drift_factor=drift_factor,
        )
        self._batch_size = batch_size
        self._batch_deadline_seconds = batch_deadline_seconds
        self._pending: List[ConjunctiveQuery] = []
        self._mode_history: Deque[Dict[str, Any]] = deque(maxlen=MODE_HISTORY_LIMIT)
        self._queries_served = 0
        self._batches_served = 0
        self._telemetry_cursor = 0
        self._drift_events_seen = 0
        self._planner_version = 0
        self._register_metrics()
        self.autotuner: Optional[AutoTuner] = None
        if autotune:
            tune_config = (
                autotune if isinstance(autotune, AutoTuneConfig) else None
            )
            self.autotuner = AutoTuner(
                self, config=tune_config, metrics=self.metrics
            )

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
        self._drift_counter = self.metrics.counter(
            "drift_events_total", "Controller drift-detection resets"
        )
        self._swap_counter = self.metrics.counter(
            "planner_hot_swaps_total", "Planner configs hot-swapped into the service"
        )
        self._deadline_counter = self.metrics.counter(
            "deadline_exceeded_total", "Batches that blew their deadline budget"
        )
        self.metrics.gauge(
            "queue_depth", "Queries submitted but not yet flushed"
        ).set_function(lambda: float(len(self._pending)))
        self.metrics.gauge(
            "spawn_overhead_seconds", "Per-chunk overhead the controller decides with"
        ).set_function(lambda: float(self.controller.spawn_overhead_seconds))

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
        """The planner configuration currently in force."""
        return self._planner

    @property
    def base_planner(self) -> PlannerConfig:
        """The hand-set configuration calibration fits are baselined on."""
        return self._base_planner

    @property
    def planner_version(self) -> int:
        """How many planner configs have been hot-swapped in (0 = none)."""
        return self._planner_version

    def eval_context(self):
        """The parent-side evaluation context (targets, stats, profiles)."""
        return self._eval.context(use_cache=True)

    def submit(self, query: ConjunctiveQuery) -> None:
        """Queue one query; it runs at the next :meth:`flush`.

        This is the request-batching half of the front-end: arbitrarily
        many individually submitted queries become a handful of executor
        batches.
        """
        self._pending.append(query)

    def flush(
        self, mode: Optional[str] = None
    ) -> List[Tuple[ConjunctiveQuery, AnySolveResult]]:
        """Evaluate everything queued, in submission order.

        Pending queries are cut into batches of at most ``batch_size``;
        each batch gets its own controller decision (or the forced
        ``mode``), is timed, and feeds the controller's running mean.
        """
        out: List[Tuple[ConjunctiveQuery, AnySolveResult]] = []
        while self._pending:
            batch = self._pending[: self._batch_size]
            del self._pending[: len(batch)]
            out.extend(self._run_batch(batch, mode))
        return out

    def evaluate(
        self, queries: Sequence[ConjunctiveQuery], mode: Optional[str] = None
    ) -> List[Tuple[ConjunctiveQuery, AnySolveResult]]:
        """Submit a whole batch and flush it (the one-call convenience)."""
        self._pending.extend(queries)
        return self.flush(mode)

    def check_store_health(self) -> bool:
        """Probe the manager process; fail over if it died.  True = failed over.

        Runs at every batch boundary (cheap: one ``is_alive`` on a
        child process).  On failover the supervisor re-points the store
        bundle in place, the executor republishes the planner control
        slot into the fresh manager and tears down the worker pool (its
        workers hold proxies into the corpse), and the monitor is
        re-attached to the new heartbeat board.
        """
        if self._store_manager.manager_alive():
            return False
        generation = self._store_manager.failover()
        self._eval.republish_planner()
        self._eval.restart_pool()
        self.monitor.attach_heartbeats(self._store_manager.stores.heartbeats)
        self.monitor.observe_failover(generation)
        return True

    def _run_batch(
        self, batch: List[ConjunctiveQuery], forced_mode: Optional[str]
    ) -> List[Tuple[ConjunctiveQuery, AnySolveResult]]:
        self.check_store_health()
        if forced_mode is None:
            mode, reason = self.controller.decide(len(batch))
        else:
            mode, reason = forced_mode, "forced by caller"
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
        # The executor may have degraded a forced/decided "parallel" to
        # sequential (single worker); trust what actually ran.
        ran_mode = self._eval.last_mode or mode
        self.controller.observe(elapsed, len(batch), ran_mode)
        self._batches_served += 1
        self._queries_served += len(batch)
        self._mode_history.append(
            {
                "batch": self._batches_served,
                "queries": len(batch),
                "mode": ran_mode,
                "reason": reason,
                "seconds": elapsed,
            }
        )
        self._after_batch(batch, ran_mode, elapsed)
        return results

    def _after_batch(
        self, batch: List[ConjunctiveQuery], ran_mode: str, elapsed: float
    ) -> None:
        """Per-batch observability + the autotune hook."""
        self._queries_counter.inc(len(batch), mode=ran_mode)
        self._batch_histogram.observe(elapsed)
        new_samples = self._consume_new_samples()
        for sample in new_samples:
            self._route_counter.inc(route=sample.route)
        drift_now = len(self.controller.drift_events)
        if drift_now > self._drift_events_seen:
            self._drift_counter.inc(drift_now - self._drift_events_seen)
            self._drift_events_seen = drift_now
        if self.autotuner is not None:
            self.autotuner.observe_batch(batch, ran_mode, elapsed, new_samples)

    def _consume_new_samples(self) -> list:
        """Telemetry samples recorded since the last batch, each once.

        The cursor counts the sink's recorded batches, not its retained
        samples, so it keeps advancing when the bounded sink is full and
        dropping its oldest batches; only batches recorded and dropped
        between two calls are never seen.
        """
        sink = self.stores.telemetry
        if sink is None:
            return []
        samples, self._telemetry_cursor = sink.since(self._telemetry_cursor)
        return samples

    # -- calibration --------------------------------------------------------
    def telemetry_samples(self) -> list:
        """Every solve sample the sink retains (read non-destructively)."""
        sink = self.stores.telemetry
        return [] if sink is None else sink.drain()

    def calibrate(
        self,
        min_samples: int = 8,
        spawn_overhead_seconds: Optional[float] = None,
        apply: bool = True,
    ) -> CalibrationResult:
        """Fit planner weights from this service's telemetry.

        With ``apply=True`` (and enough samples) the fitted cost-mode
        configuration replaces the current planner: the worker pool is
        restarted under the new config and the controller's spawn
        overhead switches to the fitted threshold.  The hand-set config
        the service started from stays the fitting baseline, so
        repeated calibrations do not compound.
        """
        samples = self.telemetry_samples()
        result = calibrate_planner(
            samples,
            base=self._base_planner,
            spawn_overhead_seconds=(
                spawn_overhead_seconds
                if spawn_overhead_seconds is not None
                else self.controller.spawn_overhead_seconds
            ),
            min_samples=min_samples,
        )
        if apply and result.source == "fitted":
            self.apply_calibration(result)
        return result

    def apply_calibration(self, result: CalibrationResult) -> int:
        """Adopt a calibration result by atomic hot swap (no pool restart).

        The public entry the autotuner uses after its guard passes.
        Returns the new planner version.
        """
        version = self._apply_planner(result.planner, result.spawn_cost_threshold)
        self._calibration = result.state()
        return version

    def _apply_planner(
        self, planner: PlannerConfig, spawn_cost_threshold: Optional[float]
    ) -> int:
        """Hot-swap the planner into the live service.

        No pool restart: the parent-side contexts switch in place and
        the new ``(version, config)`` pair is published to the shared
        control slot, which live workers read once per chunk
        (:meth:`repro.eval.executor.EvalService.update_planner`).  A
        batch in flight finishes under whichever config its worker
        held at chunk start — answers are route-invariant, so the swap
        is always safe mid-stream.
        """
        self._planner = planner
        self._planner_version = self._eval.update_planner(planner)
        self._swap_counter.inc()
        if spawn_cost_threshold is not None:
            self._executor_config = replace(
                self._executor_config, spawn_cost_threshold=spawn_cost_threshold
            )
            self.controller.spawn_overhead_seconds = spawn_cost_threshold
        return self._planner_version

    def save_calibration(self, path: str) -> None:
        """Persist the current calibration state (raises if none exists)."""
        if self._calibration is None:
            raise ValueError("no calibration has been applied or loaded")
        self._calibration.save(path)

    # -- the stats endpoint -------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The service's observable state, one JSON-serialisable dict.

        ``classification_calls`` is the shared profile store's global
        compute counter — on a repeated-pattern workload it is bounded
        by the number of *distinct* patterns the service ever saw,
        which is the dedup guarantee the benchmark gates.

        ``mode_history`` holds the last :data:`MODE_HISTORY_LIMIT`
        batches only; ``batches_served`` counts every batch.

        Every value is passed through a JSON-safety projection
        (:func:`_json_safe`), so ``json.dumps(service.stats())`` is
        guaranteed to succeed whatever proxies or tuples the underlying
        subsystems leak.
        """
        stores = self.stores.info()
        profiles = stores.get("profiles") or {}
        return _json_safe(
            {
                "queries_served": self._queries_served,
                "batches_served": self._batches_served,
                "pending": len(self._pending),
                "shared_stores": self._store_manager.shared,
                "classification_calls": profiles.get("computes", 0),
                "stores": stores,
                "controller": self.controller.info(),
                "mode_history": list(self._mode_history),
                "calibration": (
                    None if self._calibration is None else self._calibration.to_dict()
                ),
                "planner_mode": self._planner.mode,
                "planner_version": self._planner_version,
                "monitor": self.monitor.info(),
                "autotune": (
                    {"enabled": False}
                    if self.autotuner is None
                    else self.autotuner.info()
                ),
                "metrics": self.metrics.collect(),
            }
        )

    def render_prometheus(self) -> str:
        """The metrics registry's text exposition (a /metrics body)."""
        return self.metrics.render_prometheus()
