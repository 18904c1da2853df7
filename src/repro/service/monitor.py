"""Worker-health monitoring: heartbeats, wedge detection, recycle records.

The executor's pool workers are ordinary OS processes and fail the two
ways OS processes do: they die (killed, OOM, crashed C extension) and
they wedge (stuck syscall, runaway solve, deadlocked import).  Before
this module the service noticed neither — a dead worker surfaced as a
``BrokenProcessPool`` only if the pool itself noticed, and a wedged
worker stalled the yield loop forever.  Now:

* every worker stamps the shared **heartbeat board**
  (``ServiceStores.heartbeats``: ``pid → (wall time, event)``) around
  the part of a chunk that computes — "chunk-start" at the chunk's
  first memo miss, "chunk-done" at its end — so the parent can tell
  "busy on a long chunk" from "has not moved since its deadline".  A
  chunk answered wholly from the worker's memo stamps nothing;
* the executor enforces a **per-chunk deadline**
  (:attr:`~repro.eval.executor.ExecutorConfig.chunk_deadline_seconds`)
  while waiting on the next in-order chunk and reports every recycle —
  wedged or broken pool — to a :class:`ServiceMonitor`;
* :class:`ServiceMonitor` keeps the recycle/re-dispatch history, grades
  each worker from the board (:meth:`worker_health`), and mirrors every
  event into the metrics registry so ``recycles_total{reason=...}`` is
  alertable.

The monitor itself never kills anything — detection and bookkeeping
live here, the recycle mechanics (new pool, in-flight chunk
re-dispatch, old-process termination) live in the executor, which owns
the pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.exceptions import StoreUnavailableError
from repro.service.resilience import DEFAULT_FAULT_POLICY

__all__ = ["WorkerHealth", "ServiceMonitor", "beat"]


def beat(board: Any, worker_id: int, event: str, now: Optional[float] = None) -> None:
    """Stamp one worker's heartbeat onto the shared board.

    A single proxy assignment — one IPC round trip, which is why workers
    stamp only chunks that compute something.
    """
    board[worker_id] = (time.time() if now is None else now, event)


@dataclass(frozen=True)
class WorkerHealth:
    """One worker's grade at inspection time."""

    worker_id: int
    age_seconds: float
    last_event: str
    healthy: bool


class ServiceMonitor:
    """Grades pool workers from heartbeats and records recovery actions.

    Parameters
    ----------
    heartbeats:
        The shared board (``ServiceStores.heartbeats``) workers stamp;
        may be None for a monitor that only tracks recycle events.
    deadline_seconds:
        A worker whose newest heartbeat is older than this is graded
        unhealthy (wedged or dead).  None disables heartbeat grading —
        every stamped worker reads healthy.
    metrics:
        An optional :class:`~repro.service.metrics.MetricsRegistry`;
        when given, recycles, re-dispatches and deadline expiries are
        mirrored into ``recycles_total{reason=...}``,
        ``chunks_redispatched_total`` and ``worker_deadline_expiries_total``.
    """

    def __init__(
        self,
        heartbeats: Optional[Any] = None,
        deadline_seconds: Optional[float] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")
        self._heartbeats = heartbeats
        self.deadline_seconds = deadline_seconds
        self.recycle_events: List[Dict[str, Any]] = []
        self.failover_events: List[Dict[str, Any]] = []
        self.redispatched_chunks = 0
        self.deadline_expiries = 0
        self._recycle_counter = None
        self._redispatch_counter = None
        self._expiry_counter = None
        self._failover_counter = None
        if metrics is not None:
            self._recycle_counter = metrics.counter(
                "recycles_total",
                "Worker-pool recycles by trigger",
                labelnames=("reason",),
            )
            self._redispatch_counter = metrics.counter(
                "chunks_redispatched_total",
                "In-flight chunks re-submitted to a fresh pool during recycling",
            )
            self._expiry_counter = metrics.counter(
                "worker_deadline_expiries_total",
                "Chunk deadlines that expired while waiting on a worker",
            )
            self._failover_counter = metrics.counter(
                "store_failovers_total",
                "Manager processes replaced by the store supervisor",
            )

    # -- events reported by the executor ------------------------------------
    def observe_recycle(self, reason: str, redispatched: int) -> None:
        """Record one pool recycle and how many chunks it re-dispatched."""
        self.recycle_events.append(
            {
                "reason": reason,
                "redispatched_chunks": redispatched,
                "at": time.time(),
            }
        )
        self.redispatched_chunks += redispatched
        if self._recycle_counter is not None:
            self._recycle_counter.inc(reason=reason)
        if self._redispatch_counter is not None:
            self._redispatch_counter.inc(redispatched)

    def observe_deadline_expiry(self) -> None:
        """Record that a chunk deadline expired (usually precedes a recycle)."""
        self.deadline_expiries += 1
        if self._expiry_counter is not None:
            self._expiry_counter.inc()

    def observe_failover(self, generation: int) -> None:
        """Record that the store supervisor replaced a dead manager."""
        self.failover_events.append({"generation": generation, "at": time.time()})
        if self._failover_counter is not None:
            self._failover_counter.inc()

    def attach_heartbeats(self, board: Any) -> None:
        """Re-point heartbeat grading at a replacement board (post-failover)."""
        self._heartbeats = board

    @property
    def recycles(self) -> int:
        return len(self.recycle_events)

    @property
    def failovers(self) -> int:
        return len(self.failover_events)

    # -- heartbeat grading ---------------------------------------------------
    def board_snapshot(self) -> Dict[int, Any]:
        """A plain-dict copy of the heartbeat board.

        Empty when no board is attached *or* the board's manager is
        unreachable — health grading silently pauses during an outage
        (no workers can beat either) and resumes after failover.
        """
        if self._heartbeats is None:
            return {}

        def _snapshot_raw() -> Dict[int, Any]:
            # One call on a proxy; dict(proxy) makes one per entry.
            return self._heartbeats.copy()

        try:
            return DEFAULT_FAULT_POLICY.run(_snapshot_raw, op_name="heartbeat-board")
        except StoreUnavailableError:
            return {}

    def worker_health(self, now: Optional[float] = None) -> List[WorkerHealth]:
        """Grade every worker that ever stamped the board.

        A worker is healthy while its newest heartbeat is younger than
        the deadline *or* its last event marks the chunk as finished —
        an idle worker does not beat, so only a worker that went silent
        **mid-chunk** reads unhealthy.
        """
        stamp = time.time() if now is None else now
        out: List[WorkerHealth] = []
        for worker_id, entry in sorted(self.board_snapshot().items()):
            at, event = entry
            age = max(0.0, stamp - at)
            idle = not str(event).endswith("-start")
            healthy = (
                idle or self.deadline_seconds is None or age <= self.deadline_seconds
            )
            out.append(
                WorkerHealth(
                    worker_id=worker_id,
                    age_seconds=age,
                    last_event=str(event),
                    healthy=healthy,
                )
            )
        return out

    def unhealthy_workers(self, now: Optional[float] = None) -> List[WorkerHealth]:
        return [w for w in self.worker_health(now) if not w.healthy]

    def forget_worker(self, worker_id: int) -> None:
        """Drop a (terminated) worker's board entry so it stops grading."""
        if self._heartbeats is None:
            return

        def _forget_raw() -> None:
            self._heartbeats.pop(worker_id, None)

        try:
            DEFAULT_FAULT_POLICY.run(_forget_raw, op_name="heartbeat-forget")
        except StoreUnavailableError:
            # The board died with its manager; the failover path swaps
            # in a fresh (empty) one, which forgets everyone anyway.
            pass

    # -- the stats projection ------------------------------------------------
    def info(self) -> Dict[str, Any]:
        health = self.worker_health()
        return {
            "recycles": self.recycles,
            "recycle_events": [dict(event) for event in self.recycle_events],
            "failovers": self.failovers,
            "failover_events": [dict(event) for event in self.failover_events],
            "redispatched_chunks": self.redispatched_chunks,
            "deadline_expiries": self.deadline_expiries,
            "deadline_seconds": self.deadline_seconds,
            "workers": [
                {
                    "worker_id": w.worker_id,
                    "age_seconds": w.age_seconds,
                    "last_event": w.last_event,
                    "healthy": w.healthy,
                }
                for w in health
            ],
        }
