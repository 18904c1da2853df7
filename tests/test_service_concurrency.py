"""Thread-stress tests for the shared in-process primitives.

:class:`BoundedLRU` backs the plan cache and the store L1s;
:class:`TelemetrySink` takes records, cursor reads and metrics-scrape
lengths from several threads at once.  Both claim thread safety — these
tests hammer them from many threads and check the structural
invariants afterwards (no exception, bounds respected, nothing lost
that could not legally be evicted/dropped).
"""

import random
import sys
import threading

import pytest

from repro.caching import BoundedLRU
from repro.service import TelemetrySink


def run_threads(worker, count):
    """Start ``count`` threads running ``worker(index)``; re-raise any
    exception a thread died with."""
    errors = []

    def wrapped(index):
        try:
            worker(index)
        except Exception as exc:  # pragma: no cover — failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(index,)) for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestBoundedLRUThreadStress:
    THREADS = 8
    OPS = 400

    def test_mixed_operations_keep_invariants(self):
        cache = BoundedLRU(capacity=32)

        def worker(index):
            rng = random.Random(1000 + index)
            for op in range(self.OPS):
                key = rng.randrange(64)
                choice = rng.randrange(6)
                if choice == 0:
                    cache.put(key, (index, op))
                elif choice == 1:
                    cache.get(key)
                elif choice == 2:
                    cache.peek(key)
                elif choice == 3:
                    value = cache.get_or_put(key, lambda: (index, op))
                    assert value is not None
                elif choice == 4:
                    keys = [key] + [rng.randrange(64) for _ in range(rng.randrange(8))]
                    assert len(cache.get_many(keys)) == len(keys)
                else:
                    key in cache  # noqa: B015 — exercising __contains__

        run_threads(worker, self.THREADS)
        assert len(cache) <= 32
        # The snapshot is internally consistent after the storm.
        keys = cache.keys()
        assert len(keys) == len(set(keys)) == len(cache)
        for key in keys:
            assert key in cache
        info = cache.info()
        assert info["size"] == len(cache)
        assert info["hits"] + info["misses"] > 0

    def test_no_put_lost_below_capacity(self):
        """Distinct keys from many threads, total under capacity: eviction
        never fires, so every put must be visible at the end."""
        threads, per_thread = 8, 20
        cache = BoundedLRU(capacity=threads * per_thread)

        def worker(index):
            for i in range(per_thread):
                cache.put((index, i), index)

        run_threads(worker, threads)
        assert len(cache) == threads * per_thread
        for index in range(threads):
            for i in range(per_thread):
                assert cache.peek((index, i)) == index

    def test_concurrent_clear_is_safe(self):
        cache = BoundedLRU(capacity=16)

        def worker(index):
            for op in range(200):
                if index == 0 and op % 50 == 0:
                    cache.clear()
                else:
                    cache.put(op % 24, op)
                    cache.get(op % 24)

        run_threads(worker, 4)
        assert len(cache) <= 16

    def test_eviction_order_is_lru_single_threaded(self):
        """The recency contract the stress test cannot see: ``get``
        refreshes, ``peek`` does not, ``keys()`` is coldest-first."""
        cache = BoundedLRU(capacity=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.get("a")  # refresh: "b" is now coldest
        cache.peek("b")  # must NOT refresh
        assert cache.keys() == ["b", "c", "a"]
        cache.put("d", 4)  # evicts the coldest: "b"
        assert "b" not in cache
        assert set(cache.keys()) == {"c", "a", "d"}


class TestTelemetrySinkThreadStress:
    def test_concurrent_records_all_retained_when_unbounded_enough(self):
        threads, per_thread = 8, 50
        sink = TelemetrySink(max_batches=threads * per_thread)

        def worker(index):
            for i in range(per_thread):
                sink.record([(index, i), (index, i, "b")])

        run_threads(worker, threads)
        drained = sink.drain()
        assert len(drained) == threads * per_thread * 2
        assert len(sink) == len(drained)
        # Exactly the recorded samples, each exactly once.
        pairs = [s for s in drained if len(s) == 2]
        assert sorted(pairs) == sorted(
            (index, i) for index in range(threads) for i in range(per_thread)
        )

    def test_cursor_reader_gets_each_sample_at_most_once(self):
        threads, per_thread = 8, 200
        sink = TelemetrySink(max_batches=16)
        stop = threading.Event()
        seen = []
        cursor = [0]

        def reader():
            while not stop.is_set():
                new, cursor[0] = sink.since(cursor[0])
                seen.extend(new)

        def recorder(index):
            for i in range(per_thread):
                sink.record([(index, i, 0), (index, i, 1)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        follower = threading.Thread(target=reader)
        try:
            follower.start()
            run_threads(recorder, threads)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        follower.join(timeout=30)
        assert not follower.is_alive()
        new, cursor[0] = sink.since(cursor[0])
        seen.extend(new)
        # No batch count lost, no sample read twice, and the O(1) length
        # agrees with what the sink retains.
        assert cursor[0] == threads * per_thread
        assert len(seen) == len(set(seen))
        assert len(sink) == len(sink.drain()) == 16 * 2
        for index in range(threads):
            mine = [i for thread, i, _ in seen if thread == index]
            assert mine == sorted(mine)

    def test_bounded_sink_drops_only_oldest_batches(self):
        sink = TelemetrySink(max_batches=8)

        def worker(index):
            for i in range(100):
                sink.record([(index, i)])

        run_threads(worker, 4)
        assert len(sink) <= 8
        # Per-thread sequence numbers of the survivors are each thread's
        # most recent — a dropped batch is always older than a retained
        # one from the same thread.
        survivors = {}
        for index, i in sink.drain():
            survivors.setdefault(index, []).append(i)
        for index, seen in survivors.items():
            assert seen == sorted(seen)
            assert max(seen) >= 100 - 8 - 1

    def test_empty_record_is_a_noop(self):
        sink = TelemetrySink(max_batches=4)
        sink.record([])
        assert len(sink) == 0
        assert sink.drain() == []

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            TelemetrySink(max_batches=0)
