"""Deterministic fault injection for the query-service stack.

Injections exploit the ``fork`` start method: the parent patches
module-level state *before* the worker pool exists, and every forked
worker inherits the patch.  One-shot arming lives in a manager dict —
``pop`` on a manager proxy is atomic, so exactly one process consumes
the flag no matter how many race for it — which makes each fault fire
exactly once per test regardless of chunk scheduling.

Four injection surfaces:

* :func:`chunk_fault` wraps ``repro.eval.executor._evaluate_chunk`` so
  an ``action(flags, queries)`` hook runs at every chunk start inside
  the worker.  Stock actions: :func:`kill_worker` (``os._exit`` — the
  pool breaks mid-chunk) and :func:`wedge_worker` (sleep forever — the
  chunk deadline must catch it).
* :class:`FlakyMapping` wraps a shared control-plane mapping (the
  heartbeat board) so exactly one access
  raises :class:`ConnectionError` — a stand-in for a manager timeout or
  dropped connection, which the guarded worker paths must swallow.
* :class:`FaultyData` wraps a store's *backing* mapping with scripted
  faults — the first N operations raise :class:`ConnectionError`
  (transient flake the fault policy must retry through), add latency
  (slow manager the deadline budget must bound), or **every** operation
  fails until :meth:`FaultyData.restore` (full outage: the breaker must
  open and the store must degrade to local mode).
* :func:`kill_manager` SIGKILLs the real manager process behind a
  :class:`~repro.service.store.StoreManager` — the hard fault the
  front-end's failover supervision must absorb.

The wrapper submitted to the pool must be picklable by reference, so it
is a module-level function reading module-level state (set under
:func:`chunk_fault`); nested closures would not unpickle in workers.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Tuple

import repro.eval.executor as executor_mod
from repro.classification.degrees import ComplexityDegree
from repro.service.store import SolveSample

_ORIGINAL_EVALUATE_CHUNK = executor_mod._evaluate_chunk

#: ``(action, flags)`` while a :func:`chunk_fault` context is active.
_ACTIVE: Optional[Tuple[Callable[..., None], Any]] = None


def should_fire(flags: Any) -> bool:
    """Atomically consume the one-shot arming flag.

    ``pop`` on a manager dict is a single server-side operation, so
    only one caller ever observes the armed flag — the fault fires
    exactly once across all workers.
    """
    if not flags.get("armed"):
        return False
    return flags.pop("armed", None) is not None


def kill_worker(flags: Any, queries: Any) -> None:
    """Die abruptly mid-chunk — no cleanup, no exception, exit code 42.

    The parent sees a ``BrokenProcessPool`` and must recycle the pool
    and re-dispatch every unfinished chunk.
    """
    if should_fire(flags):
        os._exit(42)


def wedge_worker(flags: Any, queries: Any) -> None:
    """Hang forever mid-chunk (a stuck syscall / runaway solve stand-in).

    Only the executor's per-chunk deadline can detect this — the pool
    itself never notices a sleeping worker.
    """
    if should_fire(flags):
        while True:  # pragma: no cover — the worker is terminated externally
            time.sleep(3600)


def kill_manager_action(flags: Any, queries: Any) -> None:
    """SIGKILL the store-manager pid armed under ``flags["manager_pid"]``.

    A :func:`chunk_fault` action: fired from inside a worker at chunk
    start, it kills the *manager* (not the worker) mid-batch — the rest
    of the chunk must ride out dead proxies via the stores' degraded
    local mode, and the next batch boundary must fail over.
    """
    if should_fire(flags):
        os.kill(flags["manager_pid"], signal.SIGKILL)


def _faulty_evaluate_chunk(queries, deadline=None):  # noqa: ANN001 — must match the original
    """Module-level (hence picklable-by-reference) chunk wrapper.

    Returns the original's chunk payload unchanged, so the parent's
    overhead measurements see the real chunk.
    """
    if _ACTIVE is not None:
        action, flags = _ACTIVE
        action(flags, queries)
    return _ORIGINAL_EVALUATE_CHUNK(queries, deadline)


@contextmanager
def chunk_fault(action: Callable[..., None]) -> Iterator[Any]:
    """Arm ``action`` to run at every chunk start inside pool workers.

    Must be entered *before* the pool is created (i.e. before the first
    parallel batch) — workers fork with the patched module state, and a
    pool forked earlier would run the unpatched original forever.
    Yields the shared one-shot ``flags`` dict.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("chunk_fault contexts do not nest")
    manager = multiprocessing.Manager()
    flags = manager.dict()
    flags["armed"] = True
    _ACTIVE = (action, flags)
    executor_mod._evaluate_chunk = _faulty_evaluate_chunk
    try:
        yield flags
    finally:
        executor_mod._evaluate_chunk = _ORIGINAL_EVALUATE_CHUNK
        _ACTIVE = None
        manager.shutdown()


class FlakyMapping:
    """Wraps a shared mapping so exactly one access raises ConnectionError.

    Both item reads and the write path (``__setitem__`` — the heartbeat
    stamp) can fire; whichever access wins the one-shot flag raises,
    every later access passes through.
    Picklable (module-level class, proxy-backed state), so it survives
    the pool-initializer round trip into workers.
    """

    def __init__(self, inner: Any, flags: Any) -> None:
        self._inner = inner
        self._flags = flags

    def _maybe_fail(self) -> None:
        if should_fire(self._flags):
            raise ConnectionError("injected manager-store timeout")

    def __getitem__(self, key: Any) -> Any:
        self._maybe_fail()
        return self._inner[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        self._maybe_fail()
        self._inner[key] = value

    def __delitem__(self, key: Any) -> None:
        del self._inner[key]

    def __contains__(self, key: Any) -> bool:
        return key in self._inner

    def __iter__(self):
        return iter(self._inner.keys())

    def __len__(self) -> int:
        return len(self._inner)

    def keys(self):
        return self._inner.keys()

    def items(self):
        return self._inner.items()


class FaultyData:
    """A scripted-fault wrapper around a store's backing mapping.

    Swapped in for ``SharedStore._data`` (and optionally ``_counters``)
    inside one process, it implements exactly the mapping surface the
    store's ``*_raw`` closures exercise.  Fault script, applied on every
    operation in order:

    1. while ``latency_ops`` remain, sleep ``latency_seconds`` first
       (slow-manager injection — the deadline budget must bound it);
    2. while ``failures`` remain, raise :class:`ConnectionError`
       (transient flake — the fault policy must retry through it).

    :meth:`down` makes the failure budget infinite (hard outage: the
    breaker must open and the store must answer from degraded local
    mode); :meth:`restore` zeroes it (recovery: the breaker's probe
    must close it again and queued entries must reconcile).
    ``faults_fired`` counts injected errors, ``ops`` all operations.
    """

    def __init__(
        self,
        inner: Any,
        failures: float = 0,
        latency_seconds: float = 0.0,
        latency_ops: int = 0,
    ) -> None:
        self.inner = inner
        self.failures = failures
        self.latency_seconds = latency_seconds
        self.latency_ops = latency_ops
        self.ops = 0
        self.faults_fired = 0

    def down(self) -> None:
        self.failures = float("inf")

    def restore(self) -> None:
        self.failures = 0

    def _gate(self) -> None:
        self.ops += 1
        if self.latency_ops > 0 and self.latency_seconds > 0:
            self.latency_ops -= 1
            time.sleep(self.latency_seconds)
        if self.failures > 0:
            self.failures -= 1
            self.faults_fired += 1
            raise ConnectionError("injected store fault")

    # -- the mapping surface SharedStore's *_raw closures use ---------------
    def get(self, key: Any, default: Any = None) -> Any:
        self._gate()
        return self.inner.get(key, default)

    def setdefault(self, key: Any, default: Any = None) -> Any:
        self._gate()
        return self.inner.setdefault(key, default)

    def pop(self, key: Any, *default: Any) -> Any:
        self._gate()
        return self.inner.pop(key, *default)

    def items(self):
        self._gate()
        return self.inner.items()

    def keys(self):
        self._gate()
        return self.inner.keys()

    def values(self):
        self._gate()
        return self.inner.values()

    def __getitem__(self, key: Any) -> Any:
        self._gate()
        return self.inner[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        self._gate()
        self.inner[key] = value

    def __delitem__(self, key: Any) -> None:
        self._gate()
        del self.inner[key]

    def __contains__(self, key: Any) -> bool:
        self._gate()
        return key in self.inner

    def __len__(self) -> int:
        self._gate()
        return len(self.inner)

    def __iter__(self):
        return iter(self.inner)


def kill_manager(store_manager: Any, timeout: float = 10.0) -> int:
    """SIGKILL the backing manager process and wait until it is dead.

    Returns the killed pid.  The caller owns recovery — typically the
    front-end's per-batch :meth:`QueryService.check_store_health`, or a
    direct :meth:`StoreManager.failover`.
    """
    pid = store_manager.manager_pid()
    if pid is None:
        raise RuntimeError("local stores have no manager process to kill")
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + timeout
    while store_manager.manager_alive():
        if time.monotonic() >= deadline:  # pragma: no cover — kill is immediate
            raise RuntimeError(f"manager pid {pid} survived SIGKILL")
        time.sleep(0.01)
    return pid


def flood_telemetry(sink: Any, batches: int = 1200, per_batch: int = 3) -> int:
    """Record far more sample batches than the sink retains.

    Exercises the bounded sink's oldest-batch dropping and, downstream,
    the front-end's batch cursor, which must keep reading every new
    batch from a full sink.  Returns the number of samples recorded.
    """
    route = next(iter(ComplexityDegree)).value
    sample = SolveSample(route=route, seconds=0.001)
    for _ in range(batches):
        sink.record([sample] * per_batch)
    return batches * per_batch
