"""Tests for the shared cross-worker stores (:mod:`repro.service.store`).

The multi-process tests run the same probe under both the ``fork`` and
``spawn`` start methods: under fork the store object reaches workers by
memory inheritance (no unpickling), under spawn by pickling — the claim
protocol must deliver exactly-once computes either way (the fork path is
exactly where a construction-time claim token would break).
"""

import multiprocessing
import pickle
import threading
import time
from collections import Counter, deque

import pytest

from repro.service import ServiceMonitor
from repro.service.monitor import beat
from repro.service.store import (
    ServiceStores,
    SharedStore,
    StoreManager,
    TelemetrySink,
    _TimedLock,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


# ---------------------------------------------------------------------------
# module-level probes (spawn pickles them by reference)
# ---------------------------------------------------------------------------

def _probe(args):
    """Hammer the store: compute-or-get every key, return observed values."""
    store, keys, delay = args
    out = {}
    for key in keys:
        out[key] = store.get_or_compute(key, lambda k=key: _slow_value(k, delay))
    return out


def _slow_value(key, delay):
    import os

    time.sleep(delay)
    return (key, os.getpid())


def _fixed_sequence(store, keys):
    """Child body: get or compute each key in turn, one process, no race."""
    for key in keys:
        store.get_or_compute(key, lambda key=key: key.upper())


def _run_pool(method, store, keys, tasks=4, workers=2, delay=0.01):
    import multiprocessing

    context = multiprocessing.get_context(method)
    with context.Pool(processes=workers) as pool:
        results = pool.map(_probe, [(store, keys, delay)] * tasks)
    return results


# ---------------------------------------------------------------------------
# single-process semantics
# ---------------------------------------------------------------------------

class TestLocalStore:
    def test_compute_once_then_hits(self):
        store = SharedStore.local()
        calls = []
        for _ in range(3):
            value = store.get_or_compute("k", lambda: calls.append(1) or "v")
            assert value == "v"
        assert len(calls) == 1
        info = store.info()
        assert info["computes"] == 1
        # The first lookup misses, the rest are L1 hits (not shared hits).
        assert info["misses"] == 1
        assert info["l1"]["hits"] == 2

    def test_peek_never_computes(self):
        store = SharedStore.local()
        assert store.peek("absent") is None
        store.put("k", 42)
        assert store.peek("k") == 42
        assert store.info()["computes"] == 0

    def test_shared_level_eviction_at_capacity(self):
        store = SharedStore.local(capacity=3, l1_capacity=1)
        for i in range(5):
            store.get_or_compute(i, lambda i=i: i * 10)
        info = store.info()
        assert info["size"] == 3
        assert info["evictions"] == 2
        # Evicted keys recompute; survivors are served from the store.
        assert store.get_or_compute(4, lambda: -1) == 40

    def test_eviction_never_removes_live_claims(self):
        store = SharedStore.local(capacity=2, l1_capacity=1)
        # A claim in flight (as another process would leave mid-compute).
        claim = store._new_claim()
        store._data.setdefault("claimed", claim)
        store.get_or_compute("a", lambda: 1)
        store.get_or_compute("b", lambda: 2)  # over capacity: must evict a value
        assert store._data.get("claimed") == claim
        assert store.info()["evictions"] >= 1

    @pytest.mark.parametrize("shared", [False, True])
    def test_a_batch_eviction_keeps_live_claims_and_fifo_order(self, shared):
        with StoreManager(shared=shared, profile_capacity=16) as manager:
            store = manager.stores.profiles
            claim = store._new_claim()
            store._data.setdefault("claimed", claim)  # the oldest entry, in flight
            for key in range(16):
                store.put(key, key)
            # The 17th entry takes the level past 16: one batch evicts the
            # three oldest values, down to 16 - 16 // 8 = 14 entries.
            assert list(store._data.keys()) == ["claimed"] + list(range(3, 16))
            assert store._data["claimed"] == claim
            assert store.info()["evictions"] == 3
            store.put(16, 16)
            assert store.info()["evictions"] == 3
            assert list(store._data.keys()) == ["claimed"] + list(range(3, 17))

    def test_eviction_tolerates_all_claim_contents(self):
        store = SharedStore.local(capacity=1, l1_capacity=1)
        store._data.setdefault("c1", store._new_claim())
        # Publishing with only claims present exceeds the bound
        # transiently instead of breaking the protocol.
        store.put("k", "v")
        assert store.peek("k") == "v"
        assert "c1" in store._data

    def test_compute_exception_releases_claim(self):
        store = SharedStore.local()
        with pytest.raises(RuntimeError):
            store.get_or_compute("k", self._boom)
        # The key is claimable again immediately, not wedged.
        assert store.get_or_compute("k", lambda: "ok") == "ok"

    @staticmethod
    def _boom():
        raise RuntimeError("compute failed")

    def test_publish_failure_releases_claim(self, monkeypatch):
        # Regression: the claim used to be released only when compute()
        # raised.  A failure *after* compute — the publish itself dying
        # on a manager hiccup — left the claim in place, stalling every
        # waiter for the full claim timeout.
        store = SharedStore.local()

        def doomed_publish(key, value):
            raise ConnectionError("manager went away")

        monkeypatch.setattr(store, "_publish", doomed_publish)
        with pytest.raises(ConnectionError):
            store.get_or_compute("k", lambda: "v")
        # No stranded claim: the key is immediately reclaimable.
        assert "k" not in store._data
        monkeypatch.undo()
        assert store.get_or_compute("k", lambda: "ok") == "ok"

    def test_publish_failure_unblocks_waiting_thread_quickly(self):
        store = SharedStore.local()
        original_publish = store._publish
        release = threading.Event()

        def slow_doomed_publish(key, value):
            release.wait(5.0)
            raise ConnectionError("manager went away")

        store._publish = slow_doomed_publish
        owner_error = []

        def owner():
            try:
                store.get_or_compute("k", lambda: "v")
            except ConnectionError:
                owner_error.append(1)

        owner_thread = threading.Thread(target=owner)
        owner_thread.start()
        time.sleep(0.05)  # let the owner claim the key
        store._publish = original_publish
        waiter_result = []
        waiter = threading.Thread(
            target=lambda: waiter_result.append(
                store.get_or_compute("k", lambda: "recomputed")
            )
        )
        start = time.monotonic()
        waiter.start()
        release.set()
        owner_thread.join(5.0)
        waiter.join(5.0)
        elapsed = time.monotonic() - start
        assert owner_error == [1]
        # The waiter recomputes as soon as the claim is released — far
        # inside the 30 s claim timeout it used to burn entirely.
        assert waiter_result == ["recomputed"]
        assert elapsed < 10.0

    def test_invalid_capacities_rejected(self):
        with pytest.raises(ValueError):
            SharedStore.local(capacity=0)

    def test_concurrent_threads_share_one_compute(self):
        store = SharedStore.local()
        computes = []

        def compute():
            computes.append(1)
            time.sleep(0.05)
            return "value"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(store.get_or_compute("k", compute))
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == ["value"] * 4
        assert len(computes) == 1
        assert store.info()["waits"] == 3

    def test_lock_never_released_degrades_instead_of_hanging(self):
        # A process that dies inside the critical section (a pool worker
        # terminated while its pool broke) never releases a manager lock.
        held = threading.Lock()
        held.acquire()
        store = SharedStore.local()
        store._lock = _TimedLock(held, timeout=0.01)
        assert store.get_or_compute("k", lambda: "v") == "v"
        assert store.get_or_compute("k", lambda: "other") == "v"


class TestPickling:
    def test_pickled_managed_store_shares_level_but_not_l1(self):
        with StoreManager(shared=True) as manager:
            store = manager.stores.profiles
            store.get_or_compute("k", lambda: "v")
            assert store.info()["l1"]["size"] == 1
            clone = pickle.loads(pickle.dumps(store))
            # Fresh private L1, same live shared level.
            assert clone.info()["l1"]["size"] == 0
            assert clone.peek("k") == "v"
            clone.put("k2", "w")
            assert store.peek("k2") == "w"


class TestTelemetrySink:
    def test_record_and_drain(self):
        sink = TelemetrySink()
        sink.record([1, 2])
        sink.record([])  # no-op
        sink.record([3])
        assert sink.drain() == [1, 2, 3]
        assert len(sink) == 3

    def test_bounded_retention_drops_oldest_batches(self):
        sink = TelemetrySink(max_batches=2)
        for batch in ([1], [2], [3], [4]):
            sink.record(batch)
        assert sink.drain() == [3, 4]

    def test_since_reads_each_new_batch_once_even_when_full(self):
        sink = TelemetrySink(max_batches=2)
        seen, cursor = sink.since(0)
        assert (seen, cursor) == ([], 0)
        for sample in "abcdef":
            sink.record([sample])
            new, cursor = sink.since(cursor)
            seen += new
        assert seen == list("abcdef")
        # Batches dropped before the consumer came back are lost, not
        # replayed; the retained ones come back once.
        for batch in (["g"], ["h", "i"], ["j"]):
            sink.record(batch)
        new, cursor = sink.since(cursor)
        assert new == ["h", "i", "j"]
        assert sink.since(cursor) == ([], cursor)
        assert len(sink) == 3

    def test_since_at_the_cursor_returns_at_once(self):
        sink = TelemetrySink(max_batches=4)
        sink.record(["a"])
        _, cursor = sink.since(0)
        reads = []

        class Watched(deque):
            def __reversed__(self):
                reads.append(1)
                return super().__reversed__()

        sink._batches = Watched(sink._batches, maxlen=4)
        assert sink.since(cursor) == ([], cursor)
        assert reads == []
        # A batch recorded later is still returned, once.
        sink.record(["b", "c"])
        new, cursor = sink.since(cursor)
        assert new == ["b", "c"]
        assert sink.since(cursor) == ([], cursor)
        assert reads == [1]

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            TelemetrySink(max_batches=0)

    def test_record_holds_the_sink_lock_across_append_and_trim(self):
        # Regression: append + trim used to run without the sink lock, so
        # two recorders trimming on a stale len() could over-pop or race
        # pop(0) into an IndexError on the manager proxy.
        sink = TelemetrySink(max_batches=2)
        acquisitions = []
        real_lock = sink._lock

        class SpyLock:
            def __enter__(self):
                acquisitions.append(1)
                return real_lock.__enter__()

            def __exit__(self, *exc):
                return real_lock.__exit__(*exc)

        sink._lock = SpyLock()
        sink.record([1])
        assert acquisitions == [1]
        sink.record([])  # empty batch never touches the lock
        assert acquisitions == [1]

    def test_concurrent_recorders_never_underflow_the_bound(self):
        sink = TelemetrySink(max_batches=8)
        barrier = threading.Barrier(4)
        errors = []

        def recorder(worker):
            try:
                barrier.wait()
                for i in range(50):
                    sink.record([worker * 1000 + i])
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=recorder, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # Exactly at the bound: no over-popping from stale len() reads.
        assert len(sink._batches) == 8

    def test_service_stores_info_shape(self):
        stores = ServiceStores(
            profiles=SharedStore.local(), answers=None, telemetry=TelemetrySink()
        )
        info = stores.info()
        assert info["answers"] is None
        assert info["profiles"]["computes"] == 0
        assert info["telemetry_samples"] == 0


# ---------------------------------------------------------------------------
# counters and manager round trips
# ---------------------------------------------------------------------------

@pytest.fixture
def proxy_calls(monkeypatch):
    """Every manager proxy call this process makes, counted by method."""
    from multiprocessing.managers import BaseProxy

    calls = Counter()
    original = BaseProxy._callmethod

    def counting(proxy, methodname, args=(), kwds={}):
        calls[methodname] += 1
        return original(proxy, methodname, args, kwds)

    monkeypatch.setattr(BaseProxy, "_callmethod", counting)
    return calls


def counts(store):
    info = store.info()
    return {name: info[name] for name in ("hits", "misses", "computes", "waits")}


class TestRoundTrips:
    def test_a_fresh_compute_makes_five_calls_and_a_put_two(self, proxy_calls):
        with StoreManager(shared=True) as manager:
            store = manager.stores.profiles
            assert store.get_or_compute("k", lambda: "v") == "v"
            # A claim, two counter writes, and a publish's write and size.
            assert sum(proxy_calls.values()) <= 5, proxy_calls
            proxy_calls.clear()
            store.put("p", 1)
            assert sum(proxy_calls.values()) <= 2, proxy_calls
            proxy_calls.clear()
            store._l1 = type(store._l1)(4)
            assert store.get_or_compute("k", lambda: "recomputed") == "v"
            assert sum(proxy_calls.values()) <= 2, proxy_calls

    def test_stats_read_the_board_and_each_store_in_one_call(self, proxy_calls):
        with StoreManager(shared=True) as manager:
            stores = manager.stores
            for worker in range(6):
                beat(stores.heartbeats, worker, "chunk-done")
            monitor = ServiceMonitor(heartbeats=stores.heartbeats)
            proxy_calls.clear()
            info = stores.info()
            assert info["heartbeats"] == 6
            # A counters copy and a size per store, and the board's size.
            assert sum(proxy_calls.values()) == 5, proxy_calls
            proxy_calls.clear()
            assert sorted(monitor.board_snapshot()) == list(range(6))
            assert sum(proxy_calls.values()) == 1, proxy_calls


class TestCounters:
    def test_copies_of_a_store_in_one_process_sum(self):
        with StoreManager(shared=True) as manager:
            store = manager.stores.profiles
            for key in "abc":
                store.get_or_compute(key, lambda: key)
            clone = pickle.loads(pickle.dumps(store))
            for key in "ab":
                clone.get_or_compute(key, lambda: pytest.fail("recomputed"))
            clone.get_or_compute("d", lambda: "d")
            assert counts(store) == {"hits": 2, "misses": 4, "computes": 4, "waits": 0}
            assert counts(clone) == counts(store)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the workers inherit the parent's store by fork",
    )
    def test_forked_workers_add_their_own_totals(self):
        context = multiprocessing.get_context("fork")

        def run(keys):
            child = context.Process(target=_fixed_sequence, args=(store, keys))
            child.start()
            return child

        with StoreManager(shared=True) as manager:
            store = manager.stores.profiles
            # The parent has a tally before the fork; the workers inherit
            # it by memory and must not write over its entries.
            store.get_or_compute("a", lambda: "A")
            for keys in (["x", "y"], ["x", "y", "z"]):
                child = run(keys)
                child.join(30)
                assert child.exitcode == 0
            store._data["w"] = store._new_claim()
            child = run(["w"])
            limit = time.monotonic() + 30
            while counts(store)["waits"] == 0 and time.monotonic() < limit:
                time.sleep(0.005)
            store.put("w", "published")
            child.join(30)
            assert child.exitcode == 0
            assert counts(store) == {"hits": 3, "misses": 4, "computes": 4, "waits": 1}

    def test_a_failed_over_backend_counts_from_zero(self):
        with StoreManager(shared=True) as manager:
            store = manager.stores.profiles
            store.get_or_compute("a", lambda: 1)
            store.get_or_compute("b", lambda: 2)
            assert counts(store)["computes"] == 2
            manager.failover()
            assert counts(store)["computes"] == 0
            store.get_or_compute("c", lambda: 3)
            assert counts(store) == {"hits": 0, "misses": 1, "computes": 1, "waits": 0}


# ---------------------------------------------------------------------------
# multi-process semantics, fork and spawn
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["fork", "spawn"])
class TestMultiProcess:
    def test_exactly_once_compute_per_distinct_key(self, method):
        with StoreManager(shared=True) as manager:
            store = manager.stores.profiles
            keys = [f"key{i}" for i in range(8)]
            results = _run_pool(method, store, keys)
            info = store.info()
            # The dedup guarantee: one compute per distinct key for the
            # whole store lifetime, across every worker and task.
            assert info["computes"] == len(keys), info
            assert info["size"] == len(keys)
            # Every caller observed the same value per key (the value
            # records the pid that computed it, so equality means the
            # losers really consumed the winner's result).
            merged = {}
            for result in results:
                for key, value in result.items():
                    assert merged.setdefault(key, value) == value

    def test_eviction_is_visible_across_processes(self, method):
        with StoreManager(shared=True) as manager:
            # Shrink the shared level so the second wave must evict.
            store = manager.stores.profiles
            store._capacity = 4
            _run_pool(method, store, [f"a{i}" for i in range(4)], tasks=1, workers=2)
            _run_pool(method, store, [f"b{i}" for i in range(4)], tasks=1, workers=2)
            info = store.info()
            assert info["size"] <= 4
            assert info["evictions"] >= 4
