"""Control-plane resilience: retries, circuit breaking, deadline budgets.

Every shared-store miss, claim poll and heartbeat write crosses into
one ``multiprocessing.Manager`` process.  Before this
module the stack had exactly two answers to that process stalling or
dying: burn the full claim timeout per waiter, or let a raw
``ConnectionError``/``BrokenPipeError`` escape a worker chunk.  This
module is the shared fault layer the store, the executor and the
front-end all thread through:

* :class:`FaultPolicy` — bounded retries with jittered exponential
  backoff and transient-error classification.  :meth:`FaultPolicy.run`
  is *the* sanctioned way to execute a manager-proxy operation in the
  service layer (the ``API004`` analysis rule enforces this contract);
  raw proxy access lives only in ``*_raw`` functions invoked through
  it.
* :class:`CircuitBreaker` — the per-store closed → open → half-open
  state machine.  While open, operations fast-fail with
  :class:`~repro.exceptions.StoreUnavailableError` instead of paying
  retries against a dead manager; after ``reset_timeout_seconds`` the
  breaker admits **exactly one** probe, and only that probe's success
  closes it.  The store reacts to the fast-fail by degrading to
  L1-only local mode (:mod:`repro.service.store`).
* :class:`DeadlineBudget` — one wall-clock budget threaded
  ``QueryService`` batch → executor chunk → store wait, so the nested
  timeouts (claim wait, chunk deadline, batch deadline) compose by
  clamping against the same budget instead of stacking worst cases.

Backoff jitter is drawn from a per-process deterministically seeded RNG
(:func:`process_rng`): workers forked or spawned from the same parent
de-synchronise their claim polls (no thundering herd), while any single
process replays the same backoff sequence run to run — which is what
keeps the fault-injection tests deterministic.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.exceptions import DeadlineExceededError, StoreUnavailableError

__all__ = [
    "TRANSIENT_ERRORS",
    "process_rng",
    "FaultPolicy",
    "DEFAULT_FAULT_POLICY",
    "CircuitBreaker",
    "DeadlineBudget",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

#: Errors that mean "the manager side hiccuped or died" — worth a retry
#: and worth tripping the breaker, as opposed to programming errors
#: (KeyError, TypeError) which must propagate untouched.
TRANSIENT_ERRORS: Tuple[type, ...] = (
    ConnectionError,
    BrokenPipeError,
    EOFError,
    OSError,
    TimeoutError,
)

#: Breaker states.  Plain strings so they survive ``info()`` → JSON.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: Numeric projection for the ``store_breaker_state`` gauge.
_STATE_CODES = {BREAKER_CLOSED: 0.0, BREAKER_HALF_OPEN: 1.0, BREAKER_OPEN: 2.0}

#: Base seed of the per-process backoff RNG.  XOR-ed with the pid so
#: sibling workers draw different jitter while each process stays
#: deterministic for its lifetime.
_RNG_SEED = 0x5E111E

_rng_lock = threading.Lock()
_rng_pid: Optional[int] = None
_rng: Optional[random.Random] = None


def process_rng() -> random.Random:
    """The deterministically seeded per-process jitter RNG.

    Seeded from a fixed constant XOR the pid, and re-seeded whenever the
    pid changes (a fork inherits the parent's module state, so the check
    is per call): every process draws its own reproducible sequence.
    """
    global _rng_pid, _rng
    pid = os.getpid()
    with _rng_lock:
        if _rng is None or _rng_pid != pid:
            _rng = random.Random(_RNG_SEED ^ pid)
            _rng_pid = pid
        return _rng


class DeadlineBudget:
    """A wall-clock budget shared by every nested timeout of one batch.

    Construct with ``seconds`` (or ``expires_at``, a ``time.monotonic``
    timestamp — what crosses the process boundary to pool workers; on
    Linux the monotonic clock is system-wide, so the deadline means the
    same instant in the parent and every worker).  ``seconds=None``
    builds an unlimited budget, so call sites need no None-juggling.
    """

    def __init__(
        self, seconds: Optional[float] = None, *, expires_at: Optional[float] = None
    ) -> None:
        if expires_at is not None:
            self.expires_at: Optional[float] = expires_at
        elif seconds is None:
            self.expires_at = None
        else:
            if seconds < 0:
                raise ValueError("a deadline budget cannot be negative")
            self.expires_at = time.monotonic() + seconds

    def remaining(self) -> Optional[float]:
        """Seconds left (>= 0.0), or None for an unlimited budget."""
        if self.expires_at is None:
            return None
        return max(0.0, self.expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        return self.expires_at is not None and time.monotonic() >= self.expires_at

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self.expired:
            raise DeadlineExceededError(
                f"deadline budget exhausted before {what}"
            )

    def clamp(self, timeout: Optional[float]) -> Optional[float]:
        """The tighter of ``timeout`` and the remaining budget.

        This is how nested timeouts compose: a claim wait or a chunk
        wait passes its own limit through and gets back whichever bound
        bites first.  None means unlimited on both sides.
        """
        left = self.remaining()
        if left is None:
            return timeout
        if timeout is None:
            return left
        return min(timeout, left)

    def __repr__(self) -> str:  # pragma: no cover — debug aid
        return f"DeadlineBudget(expires_at={self.expires_at!r})"


class CircuitBreaker:
    """The per-store closed → open → half-open state machine.

    * **closed** — operations flow; consecutive transient failures are
      counted and ``failure_threshold`` of them trip the breaker open.
      Any success resets the count.
    * **open** — :meth:`allow` fast-fails (returns False) so callers
      degrade instead of stacking retries on a dead manager.  After
      ``reset_timeout_seconds`` the next :meth:`allow` transitions to
      half-open and admits that caller as the probe.
    * **half-open** — exactly one probe is in flight; every other
      :meth:`allow` returns False.  The probe's success closes the
      breaker, its failure re-opens it (restarting the reset timer).

    Thread-safe; pool workers each hold their own breaker (the state is
    process-local by design — one process's view of the manager's
    health is not another's).  The common case, closed with no failure
    counted, is mirrored in a second lock, held exactly while the
    breaker is anywhere else, whose ``locked()`` :meth:`allow` and
    :meth:`record_success` read without taking ``_lock``: in that state
    neither changes anything, and every operation through a store pays
    both.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout_seconds: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if reset_timeout_seconds < 0:
            raise ValueError("reset_timeout_seconds must be non-negative")
        self.failure_threshold = failure_threshold
        self.reset_timeout_seconds = reset_timeout_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probe_in_flight = False
        #: Held exactly while the breaker is not closed with no failure
        #: counted; taken and released under ``_lock`` only.
        self._unhealthy = threading.Lock()
        self._counts: Dict[str, int] = {
            "opens": 0,
            "closes": 0,
            "probes": 0,
            "rejections": 0,
        }

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def state_code(self) -> float:
        """0.0 closed, 1.0 half-open, 2.0 open (the gauge projection)."""
        return _STATE_CODES[self.state]

    def allow(self) -> bool:
        """May an operation proceed right now?

        In the open state this is also the transition edge: once the
        reset timeout has elapsed the calling operation becomes the
        half-open probe (exactly one — concurrent callers keep getting
        False until the probe reports).
        """
        if not self._unhealthy.locked():
            return True
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_OPEN:
                opened_at = self._opened_at if self._opened_at is not None else 0.0
                if self._clock() - opened_at >= self.reset_timeout_seconds:
                    self._state = BREAKER_HALF_OPEN
                    self._probe_in_flight = True
                    self._counts["probes"] += 1
                    return True
                self._counts["rejections"] += 1
                return False
            # Half-open: admit one probe only.
            if not self._probe_in_flight:
                self._probe_in_flight = True
                self._counts["probes"] += 1
                return True
            self._counts["rejections"] += 1
            return False

    def record_success(self) -> None:
        if not self._unhealthy.locked():
            return
        with self._lock:
            if self._state == BREAKER_HALF_OPEN:
                self._state = BREAKER_CLOSED
                self._counts["closes"] += 1
                self._probe_in_flight = False
                self._opened_at = None
            self._consecutive_failures = 0
            if self._state == BREAKER_CLOSED and self._unhealthy.locked():
                self._unhealthy.release()

    def record_failure(self) -> None:
        with self._lock:
            if not self._unhealthy.locked():
                self._unhealthy.acquire()
            if self._state == BREAKER_HALF_OPEN:
                self._state = BREAKER_OPEN
                self._opened_at = self._clock()
                self._probe_in_flight = False
                self._counts["opens"] += 1
                return
            if self._state == BREAKER_CLOSED:
                self._consecutive_failures += 1
                if self._consecutive_failures >= self.failure_threshold:
                    self._state = BREAKER_OPEN
                    self._opened_at = self._clock()
                    self._counts["opens"] += 1
            # Already open: nothing to do — refreshing ``opened_at``
            # here would let a steady trickle of failures postpone the
            # probe forever.

    def reset(self) -> None:
        """Force-close (after a failover installed a fresh backend)."""
        with self._lock:
            if self._state != BREAKER_CLOSED:
                self._counts["closes"] += 1
            self._state = BREAKER_CLOSED
            self._consecutive_failures = 0
            self._opened_at = None
            self._probe_in_flight = False
            if self._unhealthy.locked():
                self._unhealthy.release()

    def info(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                **dict(self._counts),
            }


@dataclass(frozen=True)
class FaultPolicy:
    """Bounded retries with jittered exponential backoff.

    ``max_attempts`` counts the first try; ``backoff_base_seconds``
    doubles (``backoff_multiplier``) per retry up to
    ``backoff_max_seconds``, and each delay is multiplied by a jitter
    factor drawn uniformly from ``[1 - jitter, 1 + jitter)`` — from the
    per-process deterministic RNG, so retry storms de-synchronise
    without making tests flaky.
    """

    max_attempts: int = 3
    backoff_base_seconds: float = 0.001
    backoff_multiplier: float = 2.0
    backoff_max_seconds: float = 0.05
    jitter: float = 0.5
    transient_errors: Tuple[type, ...] = TRANSIENT_ERRORS

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_seconds < 0 or self.backoff_max_seconds < 0:
            raise ValueError("backoff bounds must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be at least 1.0")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError("jitter must be in [0, 1)")

    def backoff_seconds(
        self, attempt: int, rng: Optional[random.Random] = None
    ) -> float:
        """The jittered delay before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        rng = rng if rng is not None else process_rng()
        base = min(
            self.backoff_base_seconds * self.backoff_multiplier ** (attempt - 1),
            self.backoff_max_seconds,
        )
        if self.jitter == 0.0:
            return base
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))

    def run(
        self,
        operation: Callable[[], Any],
        *,
        op_name: str = "operation",
        breaker: Optional[CircuitBreaker] = None,
        deadline: Optional[DeadlineBudget] = None,
        on_retry: Optional[Callable[[], None]] = None,
    ) -> Any:
        """Execute ``operation`` under this policy.

        Transient errors are retried with backoff (clamped to the
        deadline budget); anything else propagates untouched.  Every
        outcome is reported to the ``breaker`` (when given), and an open
        breaker fast-fails the call before the operation runs.  Raises
        :class:`StoreUnavailableError` when the attempts are exhausted
        or the breaker refuses, :class:`DeadlineExceededError` when the
        budget runs out first.
        """
        if deadline is not None:
            deadline.check(op_name)
        if breaker is not None and not breaker.allow():
            raise StoreUnavailableError(
                f"{op_name}: circuit breaker is {breaker.state}"
            )
        # The first attempt runs outside the retry loop: it is nearly
        # every attempt, and a store operation pays this per proxy call.
        try:
            value = operation()
        except self.transient_errors as exc:
            error: BaseException = exc
        else:
            if breaker is not None:
                breaker.record_success()
            return value
        return self._retry(operation, error, op_name, breaker, deadline, on_retry)

    def _retry(
        self,
        operation: Callable[[], Any],
        error: BaseException,
        op_name: str,
        breaker: Optional[CircuitBreaker],
        deadline: Optional[DeadlineBudget],
        on_retry: Optional[Callable[[], None]],
    ) -> Any:
        """The attempts after the first failed with ``error`` (see :meth:`run`)."""
        last_error = error
        for attempt in range(1, self.max_attempts + 1):
            if breaker is not None:
                breaker.record_failure()
            if attempt >= self.max_attempts:
                break
            if breaker is not None and not breaker.allow():
                # Our own failures (or a sibling thread's) tripped the
                # breaker mid-loop: stop burning retries.
                break
            delay = self.backoff_seconds(attempt)
            if deadline is not None:
                left = deadline.remaining()
                if left is not None:
                    if left <= 0.0:
                        deadline.check(op_name)
                    delay = min(delay, left)
            if on_retry is not None:
                on_retry()
            if delay > 0.0:
                time.sleep(delay)
            try:
                value = operation()
            except self.transient_errors as exc:
                last_error = exc
            else:
                if breaker is not None:
                    breaker.record_success()
                return value
        raise StoreUnavailableError(
            f"{op_name} failed after {self.max_attempts} attempt(s): {last_error!r}"
        ) from last_error


#: The stack-wide default: three attempts, 1 ms → 50 ms jittered backoff.
DEFAULT_FAULT_POLICY = FaultPolicy()
