"""Shared cross-worker stores: classify and solve once per *service*.

The executor's pool workers each hold a private classification-profile
cache and a private solved-result cache (:mod:`repro.eval.executor`), so
a pattern repeated across chunks is classified once per *worker* and a
query repeated across batches is solved once per *context* — per-process
deduplication, not per-service.  This module provides the service-wide
level:

* :class:`SharedStore` — a two-level key/value store.  The shared level
  is a ``multiprocessing.Manager`` dict (one authoritative copy in the
  manager process, visible to parent and every pool worker alike); a
  process-local **L1** :class:`~repro.caching.BoundedLRU` sits in front
  so the steady state costs a local dict hit, not an IPC round trip.
  For single-process services the same class runs over a plain dict and
  a ``threading.Lock`` — identical semantics, zero IPC.  Each manager
  round trip is one proxy call, so the store spends as few as it can: a
  counter bump is one write of this process's own running total, a
  publish is one assignment and one size read, and the manager lock is
  taken only to release a claim or to evict a batch past capacity.  A
  fresh ``get_or_compute`` costs five calls and a ``put`` two.
* **compute-once protocol** — :meth:`SharedStore.get_or_compute` claims
  a missing key atomically (``DictProxy.setdefault`` executes in the
  manager process) before computing; losers of the race *wait* for the
  winner's published value instead of recomputing.  A service therefore
  pays **at most one** compute per distinct key — the guarantee the
  classification-dedup benchmark gates on.  A waiter computes the value
  itself once the claimant's process no longer runs, or after a
  timeout, so a crashed claimant can never wedge the store.
* :class:`TelemetrySink` — the parent-side buffer of
  :class:`SolveSample` records, one ``(route, seconds)`` pair per solve
  that ran (behind the front-end's ``route_solves_total`` counter).  It
  never crosses a process boundary: pool workers send each chunk's solve
  samples back with the chunk's results, and the parent records them.
* :class:`ServiceStores` — the bundle the executor threads through pool
  initialisation (workers get it without the sink), plus
  :class:`StoreManager`, the owner of the manager process's lifetime.

Every shared-level operation is executed through the resilience layer
(:mod:`repro.service.resilience`): bounded retries with jittered
backoff, a per-process circuit breaker per store, and — when the
breaker opens because the manager is unreachable — **degraded local
mode**: ``get_or_compute`` keeps answering byte-identically by
computing into the L1 (re-computing instead of sharing, counted in
``resilience.degraded_computes``), remembers what it computed, and
reconciles those entries back to the shared level once the breaker
closes again (manager recovered, or :meth:`StoreManager.failover`
installed a replacement and :meth:`SharedStore.rebind` re-pointed the
backings).  Raw proxy access is quarantined in ``*_raw`` closures run
through :meth:`SharedStore._guard` — the convention the ``API004``
analysis rule enforces across ``service/``.

Pickling a :class:`SharedStore` (to ship it to a pool worker) carries
the shared-level proxies but **not** the L1, breaker, degraded-mode
state or counter totals — every process starts with a cold private L1
(its own view of the manager's health, and its own counter entries)
over the same warm shared level, which is exactly the
fork-vs-spawn-agnostic behaviour the concurrency tests pin down.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, NamedTuple, Optional, Tuple

from repro.caching import BoundedLRU
from repro.exceptions import StoreUnavailableError
from repro.service.resilience import (
    BREAKER_CLOSED,
    DEFAULT_FAULT_POLICY,
    CircuitBreaker,
    DeadlineBudget,
    FaultPolicy,
    process_rng,
)

#: First component of a claim marker.  Claim markers are tuples so they
#: can never collide with stored values, which are wrapped in a
#: ``(_VALUE_TAG, value)`` envelope of their own.
_CLAIM_TAG = "__repro_claim__"
_VALUE_TAG = "__repro_value__"

#: Ceiling of the growing claim-wait poll interval: late in a long wait
#: each waiter polls at most every ~50 ms instead of every 2 ms.
_MAX_CLAIM_POLL_SECONDS = 0.05

#: How fast the claim-wait poll interval grows per round.
_CLAIM_POLL_GROWTH = 1.7

#: Bound of the per-process reconcile queue: keys computed during a
#: degraded window, waiting to be republished to the shared level.
_RECONCILE_CAPACITY = 1024


def _counter_seed() -> Dict[str, int]:
    """The shared counter block every store backing starts from."""
    return {"hits": 0, "misses": 0, "computes": 0, "evictions": 0, "waits": 0}


def _summed_counters(entries: Dict[Any, int]) -> Dict[str, int]:
    """The counters by name: the seed's entries plus every writer's totals."""
    totals = _counter_seed()
    for entry, count in entries.items():
        name = entry if isinstance(entry, str) else entry[1]
        totals[name] = totals.get(name, 0) + count
    return totals


class _Tally(NamedTuple):
    """One process's running counter totals for one store object."""

    pid: int
    #: Prefix of this tally's entries in the shared counters.  The pid
    #: alone could repeat: a recycled worker may get a dead worker's pid,
    #: and must not overwrite that worker's counts.
    token: Tuple[int, int]
    totals: Dict[str, int]
    #: Orders this process's threads' writes, so that the last value
    #: written is the newest total.
    lock: Any


def _start_tally() -> _Tally:
    pid = os.getpid()
    nonce = int.from_bytes(os.urandom(8), "little")
    return _Tally(pid, (pid, nonce), {}, threading.Lock())


def _process_gone(pid: int) -> bool:
    """Whether no running process has ``pid``: none exists, or a zombie.

    A claim marker carries its owner's pid.  A pool worker terminated
    while its pool broke stays a zombie until the pool joins it, and
    signal 0 still reaches a zombie, so where ``/proc`` exists the
    process's state letter decides.  A pid that a new process reuses
    reads as alive.  Off POSIX nothing is probed (signal 0 would end the
    process there) and every owner reads as alive.
    """
    if os.name != "posix":
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # another user's process: it exists
        pass
    try:
        with open(f"/proc/{pid}/stat", "rb") as stat:
            # The state letter follows the parenthesised command name,
            # which may itself hold spaces and parentheses.
            state = stat.read().rpartition(b")")[2].split()[:1]
    except OSError:  # no procfs, or the process exited since the signal
        return False
    return state in ([b"Z"], [b"X"])


def _fallback_seed() -> Dict[str, int]:
    """The process-local resilience counter block (see ``info()``)."""
    return {
        "retries": 0,
        "degraded_computes": 0,
        "reconciled": 0,
        "reconcile_overflow": 0,
        "dropped_counter_updates": 0,
        "dropped_claim_releases": 0,
    }


#: How long a store operation waits for the shared lock.  The lock guards
#: a few proxy operations; one still held after this long belongs to a
#: process that died inside the critical section (a pool worker
#: terminated while its pool broke), and a manager never releases it.
#: Timing out makes that a transient store failure — retried, then
#: degraded to local mode — instead of a hang.
LOCK_TIMEOUT_SECONDS = 2.0


class _TimedLock:
    """A (manager or local) lock whose ``with`` gives up after a timeout."""

    def __init__(self, lock: Any, timeout: float = LOCK_TIMEOUT_SECONDS) -> None:
        self._inner = lock
        self._timeout = timeout

    def __enter__(self) -> "_TimedLock":
        if not self._inner.acquire(timeout=self._timeout):
            raise TimeoutError(f"store lock still held after {self._timeout:g} s")
        return self

    def __exit__(self, *exc: Any) -> None:
        self._inner.release()


class SharedStore:
    """A two-level (shared + process-local L1) key/value store.

    Counters are per-process entries: each process keeps its own running
    total of each counter and writes it, in one assignment, to an entry
    of ``counters`` that only it writes, keyed by a token unique to that
    process's copy of the store.  :meth:`info` reads the dict once and
    sums the entries by name.  A publish is one assignment, which
    replaces the key's own claim, and one size read; only a publish that
    finds the shared level past capacity takes the lock and evicts.

    Parameters
    ----------
    data, counters:
        Mapping objects for entries and global counters — manager dict
        proxies for cross-process stores, plain dicts for local ones.
    lock:
        A lock guarding claim release and eviction (manager lock or
        ``threading.Lock`` to match ``data``).
    capacity:
        Bound of the shared level.  A publish that takes the level past
        it evicts the oldest published values in one batch, down to
        ``capacity - capacity // 8`` entries (one entry below capacity
        8), so one full scan of the level pays for an eighth of its
        capacity in publishes.
    l1_capacity:
        Bound of the per-process L1.
    claim_timeout:
        How long a loser of the compute race waits for the winner's
        value before giving up and computing locally.  A waiter stops
        waiting sooner, and computes, once the process that holds the
        claim no longer runs (a pool worker terminated mid-compute), so
        the timeout bounds only a claimant that runs on without
        publishing.  These fallbacks and capacity eviction (a key
        evicted and later re-requested) are the only paths on which a
        key can be computed twice — eviction never touches in-flight
        claims.
    poll_interval:
        Initial sleep between polls while waiting on another process's
        claim; each waiter's interval grows and is jittered per process
        (:func:`~repro.service.resilience.process_rng`), so a crowd of
        waiters never thunders in lock-step.
    policy:
        The :class:`~repro.service.resilience.FaultPolicy` every shared
        -level operation runs under.  ``None`` disables the resilience
        wrapping entirely (raw proxy semantics — what the overhead
        benchmark's "unwrapped" arm measures).
    breaker_failures, breaker_reset_seconds:
        Circuit-breaker tuning: consecutive transient failures that
        open it, and how long it stays open before admitting a probe.
    """

    def __init__(
        self,
        data: Any,
        lock: Any,
        counters: Any,
        capacity: int = 4096,
        l1_capacity: int = 1024,
        claim_timeout: float = 30.0,
        poll_interval: float = 0.002,
        policy: Optional[FaultPolicy] = DEFAULT_FAULT_POLICY,
        breaker_failures: int = 3,
        breaker_reset_seconds: float = 0.25,
    ) -> None:
        if capacity < 1 or l1_capacity < 1:
            raise ValueError("store capacities must be at least 1")
        self._data = data
        self._lock = _TimedLock(lock)
        self._counters = counters
        self._capacity = capacity
        self._l1_capacity = l1_capacity
        self._claim_timeout = claim_timeout
        self._poll_interval = poll_interval
        self._policy = policy
        self._breaker_failures = breaker_failures
        self._breaker_reset_seconds = breaker_reset_seconds
        self._l1: "BoundedLRU[Any, Any]" = BoundedLRU(l1_capacity)
        self._claim_sequence = itertools.count()
        self._breaker = CircuitBreaker(
            failure_threshold=breaker_failures,
            reset_timeout_seconds=breaker_reset_seconds,
        )
        self._fallbacks: Dict[str, int] = _fallback_seed()
        self._pending_reconcile: Dict[Any, Any] = {}
        #: This process's counter totals, started by its first bump.
        self._tally: Optional[_Tally] = None

    # -- construction -------------------------------------------------------
    @classmethod
    def local(
        cls,
        capacity: int = 4096,
        l1_capacity: int = 1024,
        policy: Optional[FaultPolicy] = DEFAULT_FAULT_POLICY,
    ) -> "SharedStore":
        """An in-process store: plain dicts, a threading lock, no IPC.

        Semantically identical to the manager-backed form (including the
        claim protocol, exercised by multi-threaded callers), so the
        sequential service path reports the same counters the parallel
        path does.
        """
        return cls(
            data={},
            lock=threading.Lock(),
            counters=_counter_seed(),
            capacity=capacity,
            l1_capacity=l1_capacity,
            policy=policy,
        )

    @classmethod
    def managed(
        cls,
        manager: Any,
        capacity: int = 4096,
        l1_capacity: int = 1024,
        claim_timeout: float = 30.0,
        policy: Optional[FaultPolicy] = DEFAULT_FAULT_POLICY,
    ) -> "SharedStore":
        """A cross-process store backed by an already-running manager."""
        return cls(
            data=manager.dict(),
            lock=manager.Lock(),
            counters=manager.dict(_counter_seed()),
            capacity=capacity,
            l1_capacity=l1_capacity,
            claim_timeout=claim_timeout,
            policy=policy,
        )

    # -- pickling: ship the shared level, drop the process-local state ------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_l1"]
        del state["_claim_sequence"]
        del state["_breaker"]
        del state["_fallbacks"]
        del state["_pending_reconcile"]
        del state["_tally"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._l1 = BoundedLRU(self._l1_capacity)
        self._claim_sequence = itertools.count()
        self._breaker = CircuitBreaker(
            failure_threshold=self._breaker_failures,
            reset_timeout_seconds=self._breaker_reset_seconds,
        )
        self._fallbacks = _fallback_seed()
        self._pending_reconcile = {}
        self._tally = None

    def _new_claim(self) -> tuple:
        """A claim marker unique to this call.

        The pid is read *per call*, never baked in at construction: under
        the fork start method a pool ships this object to workers by
        memory inheritance (no unpickling), so a cached token would be
        the parent's in every worker and all their claims would compare
        equal — each worker would believe it owned the others' claims
        and recompute.  The sequence number separates concurrent calls
        from threads of one process.
        """
        return (_CLAIM_TAG, os.getpid(), id(self), next(self._claim_sequence))

    # -- the resilience wrapper ---------------------------------------------
    def _guard(
        self,
        op_name: str,
        operation: Callable[[], Any],
        deadline: Optional[DeadlineBudget] = None,
    ) -> Any:
        """Run one shared-level operation under the store's fault policy.

        Every raw proxy touch in this class goes through here (or is a
        single subscript assignment the PRX rules own): retries with
        jittered backoff on transient errors, reports outcomes to the
        per-process breaker, fast-fails with
        :class:`StoreUnavailableError` while the breaker is open.  With
        ``policy=None`` this is a transparent passthrough.
        """
        if self._policy is None:
            return operation()
        return self._policy.run(
            operation,
            op_name=op_name,
            breaker=self._breaker,
            deadline=deadline,
            on_retry=self._note_retry,
        )

    def _note_retry(self) -> None:
        self._fallbacks["retries"] += 1

    @property
    def breaker(self) -> CircuitBreaker:
        """This process's circuit breaker for the store's shared level."""
        return self._breaker

    def rebind(self, data: Any, lock: Any, counters: Any) -> None:
        """Point this store at replacement backings (post-failover).

        The L1 and the pending-reconcile queue survive — the fresh
        shared level is empty (cache semantics, safe to lose), and
        everything this process computed locally flows back into it on
        the next :meth:`get_or_compute`.  The breaker force-closes: the
        new backend is presumed healthy until it proves otherwise.  This
        process's counter totals start again from zero, as the new
        backend's counters do.
        """
        self._data = data
        self._lock = _TimedLock(lock)
        self._counters = counters
        self._tally = None
        self._breaker.reset()

    # -- counters -----------------------------------------------------------
    def _bump(self, name: str, amount: int = 1) -> None:
        """Add to this process's total of ``name`` and write the total.

        One assignment to this process's own entry, so no manager lock:
        no other process writes it.  The pid is read per call, as in
        :meth:`_new_claim`: a forked worker inherits the parent's tally
        by memory and must start its own.
        """
        tally = self._tally
        if tally is None or tally.pid != os.getpid():
            tally = self._tally = _start_tally()
        with tally.lock:
            total = tally.totals[name] = tally.totals.get(name, 0) + amount
            entry = (tally.token, name)

            def _bump_raw() -> None:
                self._counters[entry] = total

            try:
                self._guard("counter-update", _bump_raw)
            except StoreUnavailableError:
                # Counters are observability, not correctness: never let
                # a dead manager turn a bookkeeping bump into a failed
                # solve.  The next write of the total carries this bump.
                self._fallbacks["dropped_counter_updates"] += 1

    # -- the store protocol -------------------------------------------------
    def get_or_compute(
        self,
        key: Any,
        compute: Callable[[], Any],
        deadline: Optional[DeadlineBudget] = None,
    ) -> Any:
        """Return the stored value for ``key``, computing it at most once.

        The fast path is an L1 hit.  On an L1 miss the shared level is
        consulted; on a shared miss the caller races to *claim* the key,
        and exactly one process computes while the others wait for the
        published value.  Counters:

        * ``hits``/``misses`` — shared-level lookups (L1 traffic is
          visible in :meth:`info` under ``l1``),
        * ``computes`` — invocations of ``compute`` (the
          "classification calls" the service stats endpoint exposes),
        * ``waits`` — times a process waited on another's claim.

        When the shared level is unreachable (breaker open, or retries
        exhausted) the call **degrades instead of failing**: ``compute``
        runs locally, the result lands in the L1 and the reconcile
        queue, and the caller cannot tell the difference — same value,
        byte-identical.  ``deadline`` threads a per-batch budget through
        the claim wait; an exhausted budget raises
        :class:`~repro.exceptions.DeadlineExceededError`.
        """
        cached = self._l1.get(key)
        if cached is not None:
            return cached
        if deadline is not None:
            deadline.check("store get_or_compute")
        self._maybe_reconcile()
        try:
            return self._shared_get_or_compute(key, compute, deadline)
        except StoreUnavailableError:
            return self._degraded_compute(key, compute)

    def _shared_get_or_compute(
        self,
        key: Any,
        compute: Callable[[], Any],
        deadline: Optional[DeadlineBudget],
    ) -> Any:
        claim = self._new_claim()

        def _claim_raw() -> Any:
            return self._data.setdefault(key, claim)

        entry = self._guard("claim", _claim_raw, deadline=deadline)
        if entry != claim and entry[0] == _VALUE_TAG:
            self._bump("hits")
            value = entry[1]
            self._l1.put(key, value)
            return value
        if entry != claim:  # someone else holds the claim: wait for them
            self._bump("waits")
            value = self._await_claim(key, deadline)
            if value is not None:
                self._l1.put(key, value)
                return value
            # Claimant vanished: fall through and compute locally.
        self._bump("misses")
        published = False
        try:
            value = compute()
            self._bump("computes")
            try:
                self._publish(key, value)
                published = True
            except StoreUnavailableError:
                # The value is good — only the sharing failed.  Remember
                # it for reconciliation and keep the caller whole.
                self._note_degraded(key, value)
        finally:
            # Release the claim on *any* failure between claiming and
            # publishing — not just compute() raising.  A publish that
            # dies (manager hiccup) must not strand the claim, or every
            # waiter stalls out its full claim timeout.
            if not published:
                self._release_claim(key, claim)
        self._l1.put(key, value)
        return value

    def _release_claim(self, key: Any, claim: tuple) -> None:
        def _release_raw() -> None:
            with self._lock:
                if self._data.get(key) == claim:
                    self._data.pop(key, None)

        try:
            self._guard("claim-release", _release_raw)
        except StoreUnavailableError:
            # The manager that holds the claim is gone; there is nothing
            # left to strand.  A failed-over backend starts empty.
            self._fallbacks["dropped_claim_releases"] += 1

    def _await_claim(
        self, key: Any, deadline: Optional[DeadlineBudget] = None
    ) -> Optional[Any]:
        """Wait (jittered, growing backoff) for another process's value.

        Returns None, for the caller to compute, when the claim is gone,
        when its owner no longer runs, or after ``claim_timeout``.

        Each waiter starts at ``poll_interval`` and backs off
        geometrically to :data:`_MAX_CLAIM_POLL_SECONDS`, with every
        sleep scaled by a per-process random factor in ``[0.5, 1.5)`` —
        a herd of waiters de-synchronises within a round instead of
        hammering the manager in lock-step every 2 ms.  The per-process
        RNG is deterministically seeded, so tests replay exactly.
        """
        limit = self._claim_timeout
        if deadline is not None:
            clamped = deadline.clamp(limit)
            limit = clamped if clamped is not None else limit
        wait_until = time.monotonic() + limit
        interval = self._poll_interval
        rng = process_rng()

        def _read_raw() -> Any:
            return self._data.get(key)

        while True:
            entry = self._guard("claim-wait", _read_raw, deadline=deadline)
            if entry is not None and entry[0] == _VALUE_TAG:
                self._bump("hits")
                return entry[1]
            if entry is None:  # claim evicted or claimant gave up
                return None
            if _process_gone(entry[1]):  # the claimant died holding it
                return None
            now = time.monotonic()
            if now >= wait_until:
                break
            time.sleep(min(interval * (0.5 + rng.random()), wait_until - now))
            interval = min(interval * _CLAIM_POLL_GROWTH, _MAX_CLAIM_POLL_SECONDS)
        if deadline is not None:
            deadline.check("claim wait")
        return None

    def _publish(self, key: Any, value: Any) -> None:
        def _publish_raw() -> int:
            # One assignment replaces the key's own claim, if any, so the
            # level only grows when the key is new.
            self._data[key] = (_VALUE_TAG, value)
            return len(self._data)

        # The unlocked size only decides whether to take the lock.
        if self._guard("publish", _publish_raw) > self._capacity:
            self._evict(key)

    def _evict(self, key: Any) -> None:
        """Evict the oldest published values, in one batch, under the lock.

        The size is read again under the lock, so of the processes that
        found the level past capacity only the first evicts.  It evicts
        down to ``capacity - capacity // 8`` entries with one scan of the
        level and one deletion per victim.
        """
        target = self._capacity - self._capacity // 8

        def _evict_raw() -> int:
            with self._lock:
                size = len(self._data)
                if size <= self._capacity:
                    return 0
                victims = []
                for candidate, entry in self._data.copy().items():
                    if size - len(victims) <= target:
                        break
                    # Only published values are evictable: deleting a
                    # live *claim* would make its waiters recompute,
                    # breaking the exactly-once guarantee.  If the rest
                    # are claims, the level exceeds its bound transiently
                    # rather than break the protocol.
                    if candidate != key and entry[0] == _VALUE_TAG:
                        victims.append(candidate)
                for candidate in victims:
                    del self._data[candidate]
                return len(victims)

        try:
            evicted = self._guard("evict", _evict_raw)
        except StoreUnavailableError:
            # The value is published; the level stays past its bound
            # until the next publish past capacity evicts.
            return
        if evicted:
            self._bump("evictions", evicted)

    # -- degraded local mode -------------------------------------------------
    def _degraded_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        """Answer from local compute while the shared level is down.

        Dedup is suspended, correctness is not: ``compute`` is assumed
        pure (it is — classification and solving are functions of the
        key), so every process recomputing independently still returns
        byte-identical values.  The window is visible in
        ``resilience.degraded_computes``.
        """
        value = compute()
        self._fallbacks["degraded_computes"] += 1
        self._l1.put(key, value)
        self._note_degraded(key, value)
        return value

    def _note_degraded(self, key: Any, value: Any) -> None:
        if len(self._pending_reconcile) >= _RECONCILE_CAPACITY:
            self._fallbacks["reconcile_overflow"] += 1
            return
        self._pending_reconcile[key] = value

    def _maybe_reconcile(self) -> None:
        """Republish degraded-window entries once the breaker is closed."""
        if not self._pending_reconcile:
            return
        if self._policy is not None and self._breaker.state != BREAKER_CLOSED:
            return
        pending = list(self._pending_reconcile.items())
        self._pending_reconcile = {}
        for index, (key, value) in enumerate(pending):
            try:
                self._publish(key, value)
            except StoreUnavailableError:
                # Still (or again) unreachable: requeue what is left.
                for requeue_key, requeue_value in pending[index:]:
                    self._pending_reconcile.setdefault(requeue_key, requeue_value)
                return
            self._fallbacks["reconciled"] += 1

    # -- lookups -------------------------------------------------------------
    def peek(self, key: Any) -> Optional[Any]:
        """The value for ``key`` if fully published, else None (no counters)."""
        cached = self._l1.peek(key)
        if cached is not None:
            return cached

        def _peek_raw() -> Any:
            return self._data.get(key)

        try:
            entry = self._guard("peek", _peek_raw)
        except StoreUnavailableError:
            return None
        if entry is not None and entry[0] == _VALUE_TAG:
            return entry[1]
        return None

    def put(self, key: Any, value: Any) -> None:
        """Publish a value unconditionally (overwrites claims and values)."""
        try:
            self._publish(key, value)
        except StoreUnavailableError:
            self._note_degraded(key, value)
        self._l1.put(key, value)

    def __len__(self) -> int:
        def _len_raw() -> int:
            return len(self._data)

        try:
            return self._guard("len", _len_raw)
        except StoreUnavailableError:
            return len(self._l1)

    def resilience_info(self) -> Dict[str, Any]:
        """This process's fault-handling state (breaker + fallback counters)."""
        out: Dict[str, Any] = dict(self._fallbacks)
        out["pending_reconcile"] = len(self._pending_reconcile)
        out["breaker"] = self._breaker.info()
        out["wrapped"] = self._policy is not None
        return out

    def info(self) -> Dict[str, Any]:
        """Global shared-level counters plus this process's local state.

        The counters are every process's totals, read in one copy of the
        counters dict and summed by name.
        """

        def _info_raw() -> Dict[str, Any]:
            shared: Dict[str, Any] = _summed_counters(self._counters.copy())
            shared["size"] = len(self._data)
            return shared

        try:
            shared = self._guard("info", _info_raw)
            shared["available"] = True
        except StoreUnavailableError:
            shared = dict(_counter_seed())
            shared["size"] = 0
            shared["available"] = False
        shared["l1"] = self._l1.info()
        shared["resilience"] = self.resilience_info()
        return shared


class SolveSample(NamedTuple):
    """One realised solve: the route that ran and its wall seconds."""

    route: str
    seconds: float


class TelemetrySink:
    """The parent process's *bounded* buffer of solve samples.

    Every sample lands here in the parent: sequential batches record
    the in-process context's buffer, and a parallel batch records each
    chunk's samples as that chunk's results come back from the pool.
    Each :meth:`record` keeps one batch; the sink retains at most
    ``max_batches`` most-recent batches — a long-lived service records
    telemetry forever.

    The sink also counts every batch it ever recorded, which makes
    :meth:`since` a cursor read: a consumer asks for the batches after
    the count it last saw and gets exactly those still retained, even
    once the bound is dropping old batches.  A metrics scrape may read
    the sink from another thread while a batch records into it, so
    every access holds the lock.
    """

    def __init__(self, max_batches: int = 1024) -> None:
        if max_batches < 1:
            raise ValueError("max_batches must be at least 1")
        self._batches: Deque[Tuple[Any, ...]] = deque(maxlen=max_batches)
        self._lock = threading.Lock()
        #: Batches recorded over the sink's lifetime (the cursor space).
        self._recorded = 0
        #: Samples in the retained batches, so ``len()`` is O(1).
        self._retained = 0

    def record(self, samples: list) -> None:
        """Append one batch of samples, dropping the oldest batch when full."""
        if not samples:
            return
        batch = tuple(samples)
        with self._lock:
            if len(self._batches) == self._batches.maxlen:
                self._retained -= len(self._batches[0])
            self._batches.append(batch)
            self._retained += len(batch)
            self._recorded += 1

    def since(self, cursor: int) -> Tuple[list, int]:
        """Samples of the batches recorded after ``cursor``, and the new cursor.

        ``cursor`` is a batch count this method returned before (0 for
        the start).  Batches recorded after it but already dropped by
        the bound are gone; everything still retained comes back once.
        A cursor at the count returns at once, with nothing copied.
        """
        with self._lock:
            recorded = self._recorded
            if recorded == cursor:
                return [], cursor
            fresh = min(recorded - cursor, len(self._batches))
            batches = list(itertools.islice(reversed(self._batches), fresh))
        return [sample for batch in reversed(batches) for sample in batch], recorded

    def drain(self) -> list:
        """Return every retained sample (order of arrival), non-destructively."""
        with self._lock:
            batches = list(self._batches)
        return [sample for batch in batches for sample in batch]

    def __len__(self) -> int:
        with self._lock:
            return self._retained


def _board_size(board: Any) -> int:
    """Entry count of the heartbeat board; 0 when it is unreachable."""

    def _size_raw() -> int:
        return len(board)

    try:
        return DEFAULT_FAULT_POLICY.run(_size_raw, op_name="heartbeat-size")
    except StoreUnavailableError:
        return 0


@dataclass
class ServiceStores:
    """The bundle of shared state a service threads to workers.

    Any field may be None — the executor then falls back to its
    per-context behaviour for that concern.  The bundle deliberately
    excludes the manager itself (not picklable, owned by
    :class:`StoreManager` in the parent).  ``telemetry`` is the parent's
    in-process sink: pool workers get a copy of the bundle with it set
    to None, which leaves the copy picklable, and return their samples
    with each chunk's results.

    ``heartbeats`` is the worker-health board: each worker writes
    ``pid → (wall-clock time, event)`` around the part of a chunk that
    computes (from its first memo miss to its end; a chunk of memo hits
    writes nothing), and the service monitor
    (:mod:`repro.service.monitor`) reads it to tell a busy worker from a
    wedged one.

    After a :meth:`StoreManager.failover` the *same bundle object* is
    re-pointed in place (stores rebound, a fresh ``heartbeats`` proxy;
    the sink, having no manager state, stays as it is), so every
    parent-side holder — executor, monitor, metrics callbacks — sees the
    replacement without re-plumbing.  Pool workers hold copies and are
    restarted by the front-end.
    """

    profiles: Optional[SharedStore] = None
    answers: Optional[SharedStore] = None
    telemetry: Optional[TelemetrySink] = None
    heartbeats: Optional[Any] = None

    def info(self) -> Dict[str, Any]:
        return {
            "profiles": None if self.profiles is None else self.profiles.info(),
            "answers": None if self.answers is None else self.answers.info(),
            "telemetry_samples": None if self.telemetry is None else len(self.telemetry),
            "heartbeats": (
                None if self.heartbeats is None else _board_size(self.heartbeats)
            ),
        }


class StoreManager:
    """Owner of the stores' backing state (and manager process, if any).

    ``shared=True`` starts one ``multiprocessing.Manager`` process and
    backs every store with it — the configuration for a service with a
    worker pool.  ``shared=False`` builds in-process stores with the
    same interface and counters.  Use as a context manager or call
    :meth:`close`.

    The manager process is a single point of failure, so this class is
    also its supervisor: :meth:`manager_alive` is the liveness probe
    the front-end runs per batch, and :meth:`failover` replaces a dead
    manager wholesale — fresh manager process, fresh (empty) backings,
    every store re-pointed **in place** so the executor, monitor and
    metrics callbacks keep working through the same objects.  Shared
    state is cache-semantics by construction (profiles and answers are
    recomputable, heartbeats repopulate on the next chunk that
    computes), so nothing is copied out of the corpse; the stores' L1s
    and reconcile queues refill the new backend lazily.  The telemetry sink lives in the
    parent, not the manager, so it keeps its samples through a
    failover.
    """

    def __init__(
        self,
        shared: bool,
        profile_capacity: int = 4096,
        answer_capacity: int = 8192,
        claim_timeout: float = 30.0,
        policy: Optional[FaultPolicy] = DEFAULT_FAULT_POLICY,
    ) -> None:
        self._manager = None
        self._policy = policy
        #: Bumped on every :meth:`failover`; the front-end records it so
        #: stats can show how many managers this service outlived.
        self.generation = 0
        if shared:
            import multiprocessing

            self._manager = multiprocessing.Manager()
            profiles = SharedStore.managed(
                self._manager,
                capacity=profile_capacity,
                claim_timeout=claim_timeout,
                policy=policy,
            )
            answers = SharedStore.managed(
                self._manager,
                capacity=answer_capacity,
                claim_timeout=claim_timeout,
                policy=policy,
            )
            heartbeats: Any = self._manager.dict()
        else:
            profiles = SharedStore.local(capacity=profile_capacity, policy=policy)
            answers = SharedStore.local(capacity=answer_capacity, policy=policy)
            heartbeats = {}
        self.stores = ServiceStores(
            profiles=profiles,
            answers=answers,
            telemetry=TelemetrySink(),
            heartbeats=heartbeats,
        )

    @property
    def shared(self) -> bool:
        """True when a manager process backs the stores."""
        return self._manager is not None

    # -- supervision ---------------------------------------------------------
    def manager_pid(self) -> Optional[int]:
        """The backing manager process's pid (None for local stores)."""
        if self._manager is None:
            return None
        process = getattr(self._manager, "_process", None)
        return None if process is None else process.pid

    def manager_alive(self) -> bool:
        """Liveness probe: is the backing manager process still running?

        Local (in-process) stores have no separate process to die, so
        they always read alive.
        """
        if self._manager is None:
            return True
        process = getattr(self._manager, "_process", None)
        return bool(process is not None and process.is_alive())

    def failover(self) -> int:
        """Replace a dead manager process; returns the new generation.

        A fresh manager is started and every store in :attr:`stores` is
        re-pointed at fresh backings **in place** — same
        :class:`SharedStore` / bundle objects, new proxies inside — so
        parent-side holders recover without re-plumbing.  The shared state is rebuilt lazily: L1s and
        reconcile queues republish what this process knows, workers
        re-populate the rest on demand.  The caller (the front-end)
        still owns the follow-up: restart the pool so workers pickle the
        new proxies.
        """
        if self._manager is None:
            return self.generation
        import multiprocessing

        old = self._manager
        self._manager = multiprocessing.Manager()
        manager = self._manager
        stores = self.stores
        if stores.profiles is not None:
            stores.profiles.rebind(
                data=manager.dict(),
                lock=manager.Lock(),
                counters=manager.dict(_counter_seed()),
            )
        if stores.answers is not None:
            stores.answers.rebind(
                data=manager.dict(),
                lock=manager.Lock(),
                counters=manager.dict(_counter_seed()),
            )
        stores.heartbeats = manager.dict()
        self.generation += 1
        try:
            old.shutdown()
        except Exception:
            # The old manager is dead or dying — that is why we are
            # here; its shutdown raising must not fail the recovery.
            pass
        return self.generation

    def close(self) -> None:
        if self._manager is not None:
            try:
                self._manager.shutdown()
            except Exception:
                # A dead manager (the failover case, or a test killing
                # it) has nothing left to shut down.
                pass
            self._manager = None

    def __enter__(self) -> "StoreManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
