"""Unit tests for the bounded classification-profile LRU in
:mod:`repro.cq.evaluation` (`_PROFILE_CACHE`)."""

import pytest

from repro.cq import evaluate_query_set_sequential, parse_query
from repro.cq import evaluation as evaluation_module
from repro.cq.evaluation import (
    _PROFILE_CACHE,
    _cached_profile,
    clear_profile_cache,
)
from repro.workloads import dense_graph_database, path_query


@pytest.fixture(autouse=True)
def fresh_cache():
    """Every test starts and ends with an empty profile cache."""
    clear_profile_cache()
    yield
    clear_profile_cache()


def pattern_of_length(length):
    """Distinct canonical structures: directed path queries of distinct lengths."""
    return path_query(length).canonical_structure()


class TestCachedProfile:
    def test_populates_on_miss_and_reuses_on_hit(self):
        pattern = pattern_of_length(2)
        first = _cached_profile(pattern)
        assert len(_PROFILE_CACHE) == 1
        assert _cached_profile(pattern) is first
        assert len(_PROFILE_CACHE) == 1

    def test_eviction_at_limit_drops_oldest(self, monkeypatch):
        monkeypatch.setattr(_PROFILE_CACHE, "_capacity", 3)
        patterns = [pattern_of_length(length) for length in range(1, 5)]
        for pattern in patterns[:3]:
            _cached_profile(pattern)
        assert len(_PROFILE_CACHE) == 3
        _cached_profile(patterns[3])  # forces an eviction
        assert len(_PROFILE_CACHE) == 3
        assert patterns[0] not in _PROFILE_CACHE  # FIFO end of the LRU
        assert patterns[3] in _PROFILE_CACHE

    def test_move_to_end_protects_recently_used_entries(self, monkeypatch):
        monkeypatch.setattr(_PROFILE_CACHE, "_capacity", 3)
        patterns = [pattern_of_length(length) for length in range(1, 5)]
        for pattern in patterns[:3]:
            _cached_profile(pattern)
        _cached_profile(patterns[0])  # hit: moves patterns[0] to the MRU end
        _cached_profile(patterns[3])  # evicts patterns[1], not patterns[0]
        assert patterns[0] in _PROFILE_CACHE
        assert patterns[1] not in _PROFILE_CACHE
        assert list(_PROFILE_CACHE) == [patterns[2], patterns[0], patterns[3]]

    def test_clear_profile_cache_empties_everything(self):
        for length in range(1, 4):
            _cached_profile(pattern_of_length(length))
        assert len(_PROFILE_CACHE) == 3
        clear_profile_cache()
        assert len(_PROFILE_CACHE) == 0


class TestEvaluateQuerySetCacheFlag:
    def test_use_cache_true_populates_the_shared_cache(self):
        database = dense_graph_database(8, 0.4, seed=1)
        queries = [parse_query("E(x, y)"), parse_query("E(x, y), E(y, z)")]
        evaluate_query_set_sequential(queries, database, use_cache=True)
        assert len(_PROFILE_CACHE) == 2

    def test_use_cache_false_bypasses_the_shared_cache(self):
        database = dense_graph_database(8, 0.4, seed=1)
        queries = [parse_query("E(x, y)"), parse_query("E(x, y), E(y, z)")]
        evaluate_query_set_sequential(queries, database, use_cache=False)
        assert len(_PROFILE_CACHE) == 0

    def test_use_cache_false_still_deduplicates_within_the_batch(self, monkeypatch):
        calls = []
        real = evaluation_module.classify_structure

        def counting_classify(structure):
            calls.append(structure)
            return real(structure)

        monkeypatch.setattr(evaluation_module, "classify_structure", counting_classify)
        database = dense_graph_database(8, 0.4, seed=1)
        queries = [parse_query("E(x, y)")] * 5
        evaluate_query_set_sequential(queries, database, use_cache=False)
        assert len(calls) == 1  # one classification for five identical queries

    def test_service_sequential_path_shares_the_cache_across_services(self):
        from repro.eval import EvalService, ExecutorConfig

        database = dense_graph_database(8, 0.4, seed=1)
        queries = [parse_query("E(a, b), E(b, c)")]
        with EvalService(database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(queries)
            assert service.classification_calls == 1
        assert len(_PROFILE_CACHE) == 1
        # A second service keeps its own context but classifies nothing:
        # without shared stores every context reads the module cache.
        with EvalService(database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(queries)
            assert service.classification_calls == 0
        assert len(_PROFILE_CACHE) == 1


class TestBoundedLRU:
    def test_capacity_validation(self):
        from repro.caching import BoundedLRU

        with pytest.raises(ValueError):
            BoundedLRU(0)

    def test_get_put_peek_and_counters(self):
        from repro.caching import BoundedLRU

        cache = BoundedLRU(2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        # peek neither counts nor refreshes recency
        assert cache.peek("a") == 1
        assert cache.info() == {"hits": 1, "misses": 1, "size": 1}

    def test_eviction_respects_recency(self):
        from repro.caching import BoundedLRU

        cache = BoundedLRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_overwrite_refreshes_without_evicting(self):
        from repro.caching import BoundedLRU

        cache = BoundedLRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # overwrite, no eviction
        assert len(cache) == 2 and cache.peek("a") == 10
        cache.put("c", 3)  # evicts "b" (coldest)
        assert "b" not in cache

    def test_clear_resets_counters(self):
        from repro.caching import BoundedLRU

        cache = BoundedLRU(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert cache.info() == {"hits": 0, "misses": 0, "size": 0}


class TestGetMany:
    @staticmethod
    def filled(order):
        from repro.caching import BoundedLRU

        cache = BoundedLRU(8)
        for key in order:
            cache.put(key, key.upper())
        return cache

    @pytest.mark.parametrize(
        "keys",
        [
            ["a", "b", "c"],
            ["c", "x", "a", "c", "y", "a"],
            ["x", "y"],
            [],
        ],
    )
    def test_equals_a_loop_of_get(self, keys):
        looped = self.filled("abcd")
        batched = self.filled("abcd")
        expected = [looped.get(key) for key in keys]
        assert batched.get_many(keys) == expected
        assert batched.keys() == looped.keys()
        assert batched.info() == looped.info()

    def test_refreshes_recency_for_eviction(self):
        cache = self.filled("abcdefgh")
        assert cache.get_many(["a", "z", "b"]) == ["A", None, "B"]
        cache.put("i", "I")  # evicts the coldest: "c"
        assert "c" not in cache and "a" in cache and "b" in cache
        assert cache.keys()[-3:] == ["a", "b", "i"]
        assert cache.info() == {"hits": 2, "misses": 1, "size": 8}


class TestGetOrPut:
    def test_computes_once_then_serves_from_cache(self):
        from repro.caching import BoundedLRU

        cache = BoundedLRU(4)
        calls = []
        for _ in range(3):
            value = cache.get_or_put("k", lambda: calls.append(1) or "v")
        assert value == "v"
        assert len(calls) == 1
        assert cache.info() == {"hits": 2, "misses": 1, "size": 1}

    def test_eviction_still_applies(self):
        from repro.caching import BoundedLRU

        cache = BoundedLRU(2)
        for i in range(3):
            cache.get_or_put(i, lambda i=i: i * 10)
        assert 0 not in cache and 2 in cache
