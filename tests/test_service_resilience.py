"""The resilience layer under injected faults: retries, breakers, failover.

The contract every test here enforces is the one the README's failure
-mode table states: **faults cost time, never correctness**.  Whatever
is injected — transient proxy errors, latency spikes, a hard manager
kill mid-batch — the served answers must be byte-identical to the
fault-free sequential reference, and the detection/response must be
visible in the metrics registry (breaker state, retry counters,
failover counts).

Structure:

* pure-unit layers first (:class:`DeadlineBudget`, :class:`FaultPolicy`,
  the :class:`CircuitBreaker` state machine — including a property-style
  random-walk check against an explicit transition model);
* then :class:`SharedStore` under scripted backing faults
  (:class:`faultinject.FaultyData`): retry-through, degraded local
  mode, reconciliation on recovery;
* then the full service: manager killed between and *mid* batches,
  latency spikes, injected proxy errors — each converging to the
  sequential reference with the recovery visible in ``stats()``.
"""

import multiprocessing
import os
import random
import subprocess
import sys
import threading
import time

import pytest

import faultinject
from conftest import restated
from repro.classification import PlannerConfig, classify_structure
from repro.cq import ConjunctiveQuery, QueryAtom, evaluate_query_set_sequential
from repro.eval import ExecutorConfig, plan_query
from repro.exceptions import DeadlineExceededError, StoreUnavailableError
from repro.service import QueryService
from repro.service.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    DeadlineBudget,
    FaultPolicy,
    process_rng,
)
from repro.service.store import SharedStore, StoreManager, _VALUE_TAG
from repro.workloads import scenario_by_name

#: A fast policy for unit tests: real retry/backoff mechanics, microsecond
#: delays.
FAST_POLICY = FaultPolicy(
    max_attempts=3, backoff_base_seconds=0.0001, backoff_max_seconds=0.001
)


def triples(results):
    return [(str(query), result.answer, result.solver) for query, result in results]


@pytest.fixture(scope="module")
def scenario():
    return scenario_by_name("mixed_vocabulary", count=32, seed=17)


@pytest.fixture(scope="module")
def reference(scenario):
    return evaluate_query_set_sequential(scenario.queries, scenario.database)


def parallel_config(**overrides):
    defaults = dict(workers=2, chunk_size=4)
    defaults.update(overrides)
    return ExecutorConfig(**defaults)


@pytest.fixture(scope="module")
def again(scenario):
    """The batch restated, with its reference: a second wave the parent
    cannot answer by content key, so it reaches the pool."""
    queries = restated(scenario.queries)
    return queries, evaluate_query_set_sequential(queries, scenario.database)


def renamed(queries):
    """The queries with every variable renamed: patterns no memo or store
    holds, isomorphic to the originals, so their routes and answers are
    the originals'."""
    return [
        ConjunctiveQuery(
            [
                QueryAtom(atom.relation, tuple(f"{v}_r" for v in atom.variables))
                for atom in query.atoms
            ],
            extra_variables=[f"{v}_r" for v in query.variables],
        )
        for query in queries
    ]


def fast_store(**overrides):
    """A local-backed store with microsecond retry delays and a twitchy breaker."""
    defaults = dict(
        data={},
        lock=threading.Lock(),
        counters={},
        policy=FAST_POLICY,
        breaker_failures=2,
        breaker_reset_seconds=0.02,
    )
    defaults.update(overrides)
    return SharedStore(**defaults)


# ---------------------------------------------------------------------------
# DeadlineBudget
# ---------------------------------------------------------------------------

class TestDeadlineBudget:
    def test_unlimited_budget_is_inert(self):
        budget = DeadlineBudget(None)
        assert budget.remaining() is None
        assert not budget.expired
        budget.check("anything")  # never raises
        assert budget.clamp(1.5) == 1.5
        assert budget.clamp(None) is None

    def test_finite_budget_clamps_nested_timeouts(self):
        budget = DeadlineBudget(100.0)
        assert budget.clamp(1.0) == 1.0  # own timeout is tighter
        clamped = budget.clamp(500.0)  # budget is tighter
        assert clamped is not None and clamped <= 100.0
        assert budget.clamp(None) is not None  # unlimited inherits the budget

    def test_expiry_raises_with_context(self):
        budget = DeadlineBudget(0.0)
        assert budget.expired
        assert budget.remaining() == 0.0
        with pytest.raises(DeadlineExceededError, match="claim wait"):
            budget.check("claim wait")

    def test_expires_at_round_trips_across_construction(self):
        # What crosses the process boundary: an absolute monotonic stamp.
        original = DeadlineBudget(42.0)
        copy = DeadlineBudget(expires_at=original.expires_at)
        assert copy.expires_at == original.expires_at

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError):
            DeadlineBudget(-1.0)


# ---------------------------------------------------------------------------
# FaultPolicy
# ---------------------------------------------------------------------------

class TestFaultPolicy:
    def test_success_is_a_passthrough(self):
        calls = []
        assert FAST_POLICY.run(lambda: calls.append(1) or "ok") == "ok"
        assert calls == [1]

    def test_transient_errors_retry_to_success(self):
        attempts = []
        retries = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ConnectionError("hiccup")
            return "recovered"

        value = FAST_POLICY.run(flaky, on_retry=lambda: retries.append(1))
        assert value == "recovered"
        assert len(attempts) == 3
        assert len(retries) == 2

    def test_exhausted_attempts_raise_store_unavailable(self):
        def dead():
            raise BrokenPipeError("gone")

        with pytest.raises(StoreUnavailableError) as excinfo:
            FAST_POLICY.run(dead, op_name="claim")
        assert "claim" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, BrokenPipeError)

    def test_programming_errors_propagate_untouched(self):
        def buggy():
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            FAST_POLICY.run(buggy)

    def test_backoff_grows_and_caps_within_jitter_bounds(self):
        policy = FaultPolicy(
            backoff_base_seconds=0.01,
            backoff_multiplier=2.0,
            backoff_max_seconds=0.04,
            jitter=0.5,
        )
        rng = random.Random(0)
        for attempt, base in ((1, 0.01), (2, 0.02), (3, 0.04), (9, 0.04)):
            delay = policy.backoff_seconds(attempt, rng=rng)
            assert base * 0.5 <= delay <= base * 1.5

    def test_zero_jitter_is_deterministic(self):
        policy = FaultPolicy(jitter=0.0, backoff_base_seconds=0.01)
        assert policy.backoff_seconds(1) == 0.01
        assert policy.backoff_seconds(2) == 0.02

    def test_expired_deadline_beats_the_first_attempt(self):
        ran = []
        with pytest.raises(DeadlineExceededError):
            FAST_POLICY.run(lambda: ran.append(1), deadline=DeadlineBudget(0.0))
        assert ran == []

    def test_open_breaker_fast_fails_without_running(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_seconds=60.0)
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        ran = []
        with pytest.raises(StoreUnavailableError, match="circuit breaker is open"):
            FAST_POLICY.run(lambda: ran.append(1), breaker=breaker)
        assert ran == []

    def test_failures_feed_the_breaker(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_seconds=60.0)

        def dead():
            raise ConnectionError("gone")

        with pytest.raises(StoreUnavailableError):
            FAST_POLICY.run(dead, breaker=breaker)
        # Three attempts → three recorded failures → threshold reached.
        assert breaker.state == BREAKER_OPEN
        assert breaker.info()["opens"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            FaultPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            FaultPolicy(backoff_multiplier=0.5)

    def test_process_rng_is_deterministic_per_pid(self):
        # Same pid → same generator object → one reproducible sequence.
        assert process_rng() is process_rng()


# ---------------------------------------------------------------------------
# CircuitBreaker: explicit edges, then a property-style random walk
# ---------------------------------------------------------------------------

class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


#: Every legal (state before, state after) edge per operation.  The
#: random walk asserts observed transitions stay inside this model.
_ALLOWED = {
    "allow": {
        (BREAKER_CLOSED, BREAKER_CLOSED),
        (BREAKER_OPEN, BREAKER_OPEN),
        (BREAKER_OPEN, BREAKER_HALF_OPEN),
        (BREAKER_HALF_OPEN, BREAKER_HALF_OPEN),
    },
    "success": {
        (BREAKER_CLOSED, BREAKER_CLOSED),
        (BREAKER_OPEN, BREAKER_OPEN),
        (BREAKER_HALF_OPEN, BREAKER_CLOSED),
    },
    "failure": {
        (BREAKER_CLOSED, BREAKER_CLOSED),
        (BREAKER_CLOSED, BREAKER_OPEN),
        (BREAKER_OPEN, BREAKER_OPEN),
        (BREAKER_HALF_OPEN, BREAKER_OPEN),
    },
}


class TestCircuitBreaker:
    def _tripped(self, clock, threshold=3, reset=1.0):
        breaker = CircuitBreaker(
            failure_threshold=threshold,
            reset_timeout_seconds=reset,
            clock=clock.now,
        )
        for _ in range(threshold):
            breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        return breaker

    def test_threshold_counts_consecutive_failures_only(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN

    def test_half_open_admits_exactly_one_probe(self):
        clock = _FakeClock()
        breaker = self._tripped(clock)
        assert not breaker.allow()  # still open
        clock.advance(1.0)
        admitted = [breaker.allow() for _ in range(10)]
        assert admitted == [True] + [False] * 9
        assert breaker.state == BREAKER_HALF_OPEN
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_and_restarts_the_timer(self):
        clock = _FakeClock()
        breaker = self._tripped(clock)
        clock.advance(1.0)
        assert breaker.allow()  # the probe
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()  # the reset timer restarted
        clock.advance(1.0)
        assert breaker.allow()  # next probe admitted

    def test_failure_trickle_while_open_cannot_postpone_the_probe(self):
        clock = _FakeClock()
        breaker = self._tripped(clock)
        for _ in range(5):
            clock.advance(0.3)
            breaker.record_failure()  # must NOT refresh opened_at
        # 1.5s total elapsed > reset timeout: the probe is due.
        assert breaker.allow()
        assert breaker.state == BREAKER_HALF_OPEN

    def test_reset_force_closes(self):
        clock = _FakeClock()
        breaker = self._tripped(clock)
        breaker.reset()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_state_codes_project_for_the_gauge(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_seconds=1.0, clock=clock.now
        )
        assert breaker.state_code() == 0.0
        breaker.record_failure()
        assert breaker.state_code() == 2.0
        clock.advance(1.0)
        assert breaker.allow()
        assert breaker.state_code() == 1.0

    @pytest.mark.parametrize("seed", range(12))
    def test_random_walk_never_leaves_the_transition_model(self, seed):
        """Property-style: arbitrary op sequences only take legal edges.

        Also checks the half-open probe invariant continuously: between
        a probe admission and its report, no second ``allow`` may pass.
        """
        rng = random.Random(seed)
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=rng.randint(1, 4),
            reset_timeout_seconds=rng.choice([0.5, 1.0, 2.0]),
            clock=clock.now,
        )
        probe_outstanding = False
        for _ in range(400):
            op = rng.choice(("allow", "success", "failure", "tick"))
            if op == "tick":
                clock.advance(rng.choice([0.1, 0.4, 1.1]))
                continue
            before = breaker.state
            if op == "allow":
                admitted = breaker.allow()
                after = breaker.state
                if after == BREAKER_HALF_OPEN and admitted:
                    assert not probe_outstanding, "second probe admitted"
                    probe_outstanding = True
                if before == BREAKER_CLOSED:
                    assert admitted
            elif op == "success":
                breaker.record_success()
                after = breaker.state
                probe_outstanding = False
            else:
                breaker.record_failure()
                after = breaker.state
                probe_outstanding = False
            assert (before, after) in _ALLOWED[op], (op, before, after)
            info = breaker.info()
            assert info["state"] in (BREAKER_CLOSED, BREAKER_OPEN, BREAKER_HALF_OPEN)


# ---------------------------------------------------------------------------
# SharedStore under scripted backing faults
# ---------------------------------------------------------------------------

class TestStoreRetries:
    def test_transient_flake_is_retried_through(self):
        store = fast_store()
        faulty = faultinject.FaultyData(store._data, failures=1)
        store._data = faulty
        assert store.get_or_compute("k", lambda: 41 + 1) == 42
        resilience = store.resilience_info()
        assert resilience["retries"] >= 1
        assert resilience["degraded_computes"] == 0
        assert store.breaker.state == BREAKER_CLOSED
        # The value reached the shared level despite the flake.
        assert faulty.inner["k"] == (_VALUE_TAG, 42)

    def test_latency_spike_is_paid_not_failed(self):
        store = fast_store()
        store._data = faultinject.FaultyData(
            store._data, latency_seconds=0.005, latency_ops=3
        )
        start = time.monotonic()
        assert store.get_or_compute("k", lambda: "slow") == "slow"
        assert time.monotonic() - start < 1.0
        assert store.resilience_info()["degraded_computes"] == 0

    def test_deadline_bounds_a_latency_spike(self):
        store = fast_store()
        store._data = faultinject.FaultyData(
            store._data, latency_seconds=0.05, latency_ops=50
        )
        store.get_or_compute("warm", lambda: 1, deadline=DeadlineBudget(10.0))
        with pytest.raises(DeadlineExceededError):
            # Budget already spent: the pre-claim check must fire.
            store.get_or_compute("cold", lambda: 2, deadline=DeadlineBudget(0.0))


class TestDegradedMode:
    def test_outage_degrades_to_byte_identical_local_answers(self):
        store = fast_store()
        faulty = faultinject.FaultyData(store._data)
        store._data = faulty
        faulty.down()
        first = store.get_or_compute("k", lambda: {"answer": [1, 2, 3]})
        assert first == {"answer": [1, 2, 3]}
        assert store.breaker.state == BREAKER_OPEN
        # Repeats answer from L1 — no compute, still byte-identical.
        again = store.get_or_compute("k", lambda: pytest.fail("recomputed"))
        assert again == first
        resilience = store.resilience_info()
        assert resilience["degraded_computes"] == 1
        assert resilience["pending_reconcile"] == 1
        assert resilience["breaker"]["state"] == BREAKER_OPEN
        # Shared level never saw the value.
        assert faulty.inner == {}

    def test_open_breaker_fast_fails_instead_of_retrying(self):
        store = fast_store()
        faulty = faultinject.FaultyData(store._data)
        store._data = faulty
        faulty.down()
        store.get_or_compute("a", lambda: 1)  # opens the breaker
        fired_before = faulty.faults_fired
        store.get_or_compute("b", lambda: 2)  # breaker open: no proxy traffic
        assert faulty.faults_fired == fired_before

    def test_recovery_reconciles_the_degraded_window(self):
        store = fast_store()
        faulty = faultinject.FaultyData(store._data)
        store._data = faulty
        faulty.down()
        assert store.get_or_compute("a", lambda: 1) == 1
        assert store.get_or_compute("b", lambda: 2) == 2
        assert store.breaker.state == BREAKER_OPEN
        faulty.restore()
        time.sleep(0.03)  # past breaker_reset_seconds
        # The next shared op is the half-open probe; its success closes
        # the breaker...
        assert store.get_or_compute("c", lambda: 3) == 3
        assert store.breaker.state == BREAKER_CLOSED
        # ...and the op after that reconciles the degraded window back.
        assert store.get_or_compute("d", lambda: 4) == 4
        resilience = store.resilience_info()
        assert resilience["reconciled"] == 2
        assert resilience["pending_reconcile"] == 0
        for key, value in (("a", 1), ("b", 2), ("c", 3), ("d", 4)):
            assert faulty.inner[key] == (_VALUE_TAG, value)

    def test_info_reports_unavailable_but_keeps_local_state(self):
        store = fast_store()
        faulty = faultinject.FaultyData(store._data)
        store._data = faulty
        store.get_or_compute("k", lambda: 7)
        faulty.down()
        store.get_or_compute("dead", lambda: 8)  # opens the breaker
        info = store.info()
        assert info["available"] is False
        assert info["size"] == 0
        assert info["l1"]["size"] == 2
        assert info["resilience"]["breaker"]["state"] == BREAKER_OPEN
        assert len(store) == 2  # falls back to the L1 count

    def test_peek_and_len_degrade_quietly(self):
        store = fast_store()
        faulty = faultinject.FaultyData(store._data)
        store._data = faulty
        faulty.down()
        assert store.peek("missing") is None
        assert len(store) == 0


def live_claim():
    """A claim marker this store never made, owned by a running process.

    The waiter compares whole markers, so this process's pid stands for
    another live claimant.
    """
    return ("__repro_claim__", os.getpid(), 0, 0)


def reaped_pid():
    """The pid of a child process that has exited and been reaped."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


class TestClaimWait:
    def test_waiter_gets_anothers_published_value_with_backoff(self):
        store = fast_store(poll_interval=0.001)
        store._data["k"] = live_claim()  # another process holds the claim

        def publish_later():
            time.sleep(0.03)
            store._data["k"] = (_VALUE_TAG, 7)

        thread = threading.Thread(target=publish_later)
        thread.start()
        try:
            value = store.get_or_compute("k", lambda: pytest.fail("recomputed"))
        finally:
            thread.join()
        assert value == 7
        assert store.info()["waits"] == 1

    def test_claim_wait_respects_the_deadline_budget(self):
        store = fast_store(claim_timeout=30.0, poll_interval=0.001)
        store._data["k"] = live_claim()  # never released
        start = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            store.get_or_compute("k", lambda: 0, deadline=DeadlineBudget(0.05))
        # The 30s claim timeout was clamped by the 50ms budget.
        assert time.monotonic() - start < 5.0

    def test_a_dead_owners_claim_is_not_waited_on(self):
        store = fast_store(claim_timeout=5.0, poll_interval=0.001)
        store._data["k"] = ("__repro_claim__", reaped_pid(), 0, 0)
        start = time.monotonic()
        value = store.get_or_compute("k", lambda: 7)
        assert time.monotonic() - start < 1.0
        assert value == 7
        info = store.info()
        assert (info["waits"], info["computes"]) == (1, 1)
        # The value replaced the dead claim.
        assert store._data["k"] == (_VALUE_TAG, 7)

    @pytest.mark.skipif(
        not os.path.exists(f"/proc/{os.getpid()}/stat"), reason="needs /proc"
    )
    def test_a_zombie_owners_claim_is_not_waited_on(self):
        """A worker its broken pool terminated is a zombie until the pool
        joins it; signal 0 still reaches it, but it will never publish."""
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        try:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with open(f"/proc/{child.pid}/stat", "rb") as stat:
                    if stat.read().rpartition(b")")[2].split()[0] == b"Z":
                        break
                time.sleep(0.01)
            store = fast_store(claim_timeout=5.0, poll_interval=0.001)
            store._data["k"] = ("__repro_claim__", child.pid, 0, 0)
            start = time.monotonic()
            assert store.get_or_compute("k", lambda: 7) == 7
            assert time.monotonic() - start < 1.0
        finally:
            child.wait()

    def test_a_live_owners_claim_is_still_waited_on(self):
        store = fast_store(claim_timeout=0.3, poll_interval=0.001)
        store._data["k"] = live_claim()
        start = time.monotonic()
        value = store.get_or_compute("k", lambda: 7)
        # Only the timeout ended the wait.
        assert time.monotonic() - start >= 0.3
        assert value == 7
        assert store.info()["waits"] == 1


# ---------------------------------------------------------------------------
# degraded-mode dedup across processes, fork and spawn
# ---------------------------------------------------------------------------

def _degraded_child(store, manager_dead, out):
    """Child body: compute through a store whose manager just died."""
    manager_dead.wait(30.0)
    value = store.get_or_compute(("pattern", 1), lambda: ["byte", "identical", 1])
    out.put((value, store.resilience_info()["degraded_computes"]))


class TestDegradedDedupAcrossStartMethods:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_children_keep_answering_byte_identically(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method} unavailable")
        ctx = multiprocessing.get_context(method)
        manager_dead = ctx.Event()
        out = ctx.Queue()
        with StoreManager(shared=True, policy=FAST_POLICY) as store_manager:
            store = store_manager.stores.profiles
            child = ctx.Process(
                target=_degraded_child, args=(store, manager_dead, out)
            )
            child.start()  # pickles the store while the manager is alive
            try:
                faultinject.kill_manager(store_manager)
                manager_dead.set()
                child_value, child_degraded = out.get(timeout=30.0)
            finally:
                child.join(timeout=30.0)
                if child.is_alive():  # pragma: no cover — hang diagnostics
                    child.terminate()
            assert child.exitcode == 0
            parent_value = store.get_or_compute(
                ("pattern", 1), lambda: ["byte", "identical", 1]
            )
        # Dedup is suspended (each process computed its own copy — the
        # counters say so) but the answers are byte-identical.
        assert child_value == parent_value == ["byte", "identical", 1]
        assert child_degraded == 1
        assert store.resilience_info()["degraded_computes"] == 1


# ---------------------------------------------------------------------------
# the full service: kill, flake and stall the manager under real batches
# ---------------------------------------------------------------------------

_FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="deterministic fault injection requires the fork start method",
)


class TestServiceFaultMatrix:
    def test_injected_proxy_errors_converge(self, scenario, reference):
        """Transient store flakes: retried through, answers identical."""
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), shared=False
        ) as service:
            store = service.stores.profiles
            store._data = faultinject.FaultyData(store._data, failures=2)
            results = service.evaluate(scenario.queries)
            stats = service.stats()
        assert triples(results) == triples(reference)
        resilience = stats["stores"]["profiles"]["resilience"]
        assert resilience["retries"] >= 1
        assert resilience["breaker"]["state"] == BREAKER_CLOSED
        # The retry count is scraped through the metrics registry too.
        retry_metric = stats["metrics"]["repro_store_resilience_counter"]["samples"]
        assert retry_metric['{store="profiles",counter="retries"}'] >= 1.0

    def test_latency_spike_converges_within_bounded_time(self, scenario, reference):
        with QueryService(
            scenario.database,
            executor=ExecutorConfig(workers=1),
            shared=False,
            batch_deadline_seconds=60.0,
        ) as service:
            store = service.stores.profiles
            store._data = faultinject.FaultyData(
                store._data, latency_seconds=0.002, latency_ops=20
            )
            start = time.monotonic()
            results = service.evaluate(scenario.queries)
            elapsed = time.monotonic() - start
        assert triples(results) == triples(reference)
        assert elapsed < 60.0

    def test_full_outage_serves_degraded_but_identical(self, scenario, reference):
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), shared=False
        ) as service:
            store = service.stores.profiles
            faulty = faultinject.FaultyData(store._data)
            store._data = faulty
            faulty.down()
            results = service.evaluate(scenario.queries)
            stats = service.stats()
        assert triples(results) == triples(reference)
        resilience = stats["stores"]["profiles"]["resilience"]
        assert resilience["degraded_computes"] >= 1
        assert resilience["breaker"]["state"] == BREAKER_OPEN
        breaker_metric = stats["metrics"]["repro_store_breaker_state"]["samples"]
        assert breaker_metric['{store="profiles"}'] == 2.0

    def test_tiny_batch_deadline_raises_and_counts(self, scenario):
        with QueryService(
            scenario.database,
            executor=ExecutorConfig(workers=1),
            shared=False,
            batch_deadline_seconds=1e-9,
        ) as service:
            with pytest.raises(DeadlineExceededError):
                service.evaluate(scenario.queries)
            stats = service.stats()
        assert stats["metrics"]["repro_deadline_exceeded_total"]["samples"][""] == 1.0

    def test_invalid_batch_deadline_rejected(self, scenario):
        with pytest.raises(ValueError):
            QueryService(scenario.database, batch_deadline_seconds=0.0)


@_FORK_ONLY
class TestManagerFailover:
    def test_kill_between_batches_fails_over_and_converges(
        self, scenario, reference, again
    ):
        queries, expected = again
        with QueryService(
            scenario.database, executor=parallel_config()
        ) as service:
            warm = service.evaluate(scenario.queries, mode="parallel")
            assert triples(warm) == triples(reference)
            faultinject.kill_manager(service._store_manager)
            results = service.evaluate(queries, mode="parallel")
            stats = service.stats()
        assert triples(results) == triples(expected)
        monitor = stats["monitor"]
        assert monitor["failovers"] == 1
        assert monitor["failover_events"][0]["generation"] == 1
        assert stats["metrics"]["repro_store_failovers_total"]["samples"][""] == 1.0
        # The replacement backend answered the post-failover batch.
        assert stats["stores"]["profiles"]["available"] is True
        breaker_metric = stats["metrics"]["repro_store_breaker_state"]["samples"]
        assert breaker_metric['{store="profiles"}'] == 0.0

    def test_kill_mid_batch_degrades_then_fails_over(self, scenario, reference, again):
        """The hardest row of the failure-mode table.

        A worker SIGKILLs the manager at a chunk start, so the rest of
        the batch runs against dead proxies — every store call inside
        workers must degrade locally and the batch must still match the
        reference.  The next batch boundary detects the corpse, fails
        over, restarts the pool, and matches the reference again.
        """
        queries, expected = again
        with faultinject.chunk_fault(faultinject.kill_manager_action) as flags:
            with QueryService(
                scenario.database, executor=parallel_config()
            ) as service:
                flags["manager_pid"] = service._store_manager.manager_pid()
                mid_kill = service.evaluate(scenario.queries, mode="parallel")
                assert not service._store_manager.manager_alive()
                recovered = service.evaluate(queries, mode="parallel")
                stats = service.stats()
            assert "armed" not in flags, "the manager kill never fired"
        assert triples(mid_kill) == triples(reference)
        assert triples(recovered) == triples(expected)
        assert stats["monitor"]["failovers"] == 1
        assert stats["stores"]["profiles"]["available"] is True

    def test_failover_preserves_the_planner_config(self, scenario, reference):
        """The pool a failover restarts routes under the service's own
        planner: a non-default config takes the same routes after the
        kill as before it.  The second wave renames every variable, so
        its patterns are new to every memo and store and must be planned
        and solved again."""
        strict = PlannerConfig(
            treedepth_threshold=1, pathwidth_threshold=1, treewidth_threshold=1
        )
        planned = [
            plan_query(classify_structure(query.canonical_structure()), strict).degree
            for query in scenario.queries
        ]
        assert planned != [result.degree for _, result in reference]
        with QueryService(
            scenario.database, planner=strict, executor=parallel_config()
        ) as service:
            before = service.evaluate(scenario.queries, mode="parallel")
            solved = len(service.telemetry_samples())
            faultinject.kill_manager(service._store_manager)
            after = service.evaluate(renamed(scenario.queries), mode="parallel")
            stats = service.stats()
            assert service.planner == strict
            # The restarted workers solved afresh, not from a memo.
            assert len(service.telemetry_samples()) > solved
        assert stats["monitor"]["failovers"] == 1
        for results in (before, after):
            assert [result.degree for _, result in results] == planned
            assert [r.answer for _, r in results] == [r.answer for _, r in reference]

    def test_local_stores_never_fail_over(self, scenario):
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), shared=False
        ) as service:
            assert service._store_manager.manager_pid() is None
            assert service._store_manager.manager_alive()
            assert not service.check_store_health()
            service.evaluate(scenario.queries)
            assert service.stats()["monitor"]["failovers"] == 0
