"""Metrics-registry units and the stats() schema-stability regression.

The schema test is deliberately strict: ``QueryService.stats()`` is the
service's public observability contract, so adding a top-level key is a
conscious act (update ``EXPECTED_STATS_KEYS`` here), and every value
must stay within pure JSON types — dashboards parse this dict.
"""

import json
import math

import pytest

from conftest import restated
from repro.eval import ExecutorConfig
from repro.service import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QueryService,
    register_store_metrics,
)
from repro.workloads import scenario_by_name


@pytest.fixture(scope="module")
def scenario():
    return scenario_by_name("mixed_vocabulary", count=12, seed=5)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("jobs_total", "jobs")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == pytest.approx(3.5)

    def test_counters_only_go_up(self):
        counter = Counter("jobs_total", "jobs")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_labelled_series_are_independent(self):
        counter = Counter("jobs_total", "jobs", labelnames=("kind",))
        counter.inc(kind="a")
        counter.inc(3, kind="b")
        assert counter.value(kind="a") == 1.0
        assert counter.value(kind="b") == 3.0
        assert counter.collect() == {'{kind="a"}': 1.0, '{kind="b"}': 3.0}

    def test_label_mismatch_rejected(self):
        counter = Counter("jobs_total", "jobs", labelnames=("kind",))
        with pytest.raises(ValueError):
            counter.inc(other="x")
        with pytest.raises(ValueError):
            counter.inc()  # labelled metric, no labels given

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("has space", "doc")

    def test_render_exposition_lines(self):
        counter = Counter("jobs_total", "processed jobs", labelnames=("kind",))
        counter.inc(2, kind="a")
        lines = counter.render()
        assert lines[0] == "# HELP jobs_total processed jobs"
        assert lines[1] == "# TYPE jobs_total counter"
        assert 'jobs_total{kind="a"} 2' in lines


class TestGauge:
    def test_set_inc_value(self):
        gauge = Gauge("depth", "queue depth")
        gauge.set(4.0)
        gauge.inc(-1.5)
        assert gauge.value() == pytest.approx(2.5)

    def test_callback_read_at_collection_time(self):
        gauge = Gauge("depth", "queue depth")
        state = {"value": 1.0}
        gauge.set_function(lambda: state["value"])
        assert gauge.value() == 1.0
        state["value"] = 7.0
        assert gauge.collect() == {"": 7.0}

    def test_failing_callback_degrades_to_nan(self):
        """A dead callback (closed store, shut-down manager) must not
        take the whole scrape down."""
        gauge = Gauge("depth", "queue depth")
        gauge.set_function(lambda: 1 / 0)
        collected = gauge.collect()
        assert math.isnan(collected[""])
        assert "NaN" in "\n".join(gauge.render())

    def test_labelled_callbacks(self):
        gauge = Gauge("size", "sizes", labelnames=("store",))
        gauge.set_function(lambda: 3.0, store="profiles")
        gauge.set(9.0, store="answers")
        assert gauge.collect() == {
            '{store="answers"}': 9.0,
            '{store="profiles"}': 3.0,
        }


class TestHistogram:
    def test_cumulative_buckets_sum_and_count(self):
        histogram = Histogram("latency", "seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        collected = histogram.collect()[""]
        assert collected["count"] == 4
        assert collected["sum"] == pytest.approx(6.05)
        # Buckets are cumulative: each bound counts every observation <= it.
        assert collected["buckets"] == {"0.1": 1, "1": 3, "10": 4}

    def test_observation_above_all_buckets_only_in_inf(self):
        histogram = Histogram("latency", "seconds", buckets=(1.0,))
        histogram.observe(100.0)
        collected = histogram.collect()[""]
        assert collected["buckets"] == {"1": 0}
        assert collected["count"] == 1
        lines = histogram.render()
        assert 'latency_bucket{le="+Inf"} 1' in lines
        assert "latency_count 1" in lines

    def test_bisected_buckets_collect_and_render_cumulatively(self):
        """A value on a bound counts in that bucket; one between bounds in
        the next bound's; one above the last bound, and a NaN, in no
        finite bucket, only in +Inf, the count and the sum."""
        histogram = Histogram(
            "latency", "seconds", labelnames=("route",), buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.1, 0.5, 100.0, float("nan")):
            histogram.observe(value, route="a")
        histogram.observe(1.0, route="b")
        collected = histogram.collect()
        assert collected['{route="b"}'] == {
            "count": 1,
            "sum": 1.0,
            "buckets": {"0.1": 0, "1": 1, "10": 1},
        }
        series = collected['{route="a"}']
        assert series["buckets"] == {"0.1": 1, "1": 2, "10": 2}
        assert series["count"] == 4
        assert math.isnan(series["sum"])
        assert histogram.render() == [
            "# HELP latency seconds",
            "# TYPE latency histogram",
            'latency_bucket{route="a",le="0.1"} 1',
            'latency_bucket{route="a",le="1"} 2',
            'latency_bucket{route="a",le="10"} 2',
            'latency_bucket{route="a",le="+Inf"} 4',
            'latency_sum{route="a"} NaN',
            'latency_count{route="a"} 4',
            'latency_bucket{route="b",le="0.1"} 0',
            'latency_bucket{route="b",le="1"} 1',
            'latency_bucket{route="b",le="10"} 1',
            'latency_bucket{route="b",le="+Inf"} 1',
            'latency_sum{route="b"} 1',
            'latency_count{route="b"} 1',
        ]

    def test_an_observation_bisects_the_buckets(self):
        """An observation compares the value with a logarithmic number of
        bounds, not with every bucket."""
        comparisons = []

        class Counted(float):
            def _counted(name):
                def compare(self, other):
                    comparisons.append(name)
                    return getattr(float, name)(self, other)

                return compare

            __lt__ = _counted("__lt__")
            __le__ = _counted("__le__")
            __gt__ = _counted("__gt__")
            __ge__ = _counted("__ge__")

        histogram = Histogram("latency", "seconds")
        assert len(histogram.buckets) == 14
        histogram.observe(Counted(0.003))
        assert 0 < len(comparisons) <= 4
        buckets = histogram.collect()[""]["buckets"]
        assert (buckets["0.0025"], buckets["0.005"], buckets["10"]) == (0, 1, 1)

    def test_mismatched_labels_rejected(self):
        histogram = Histogram("latency", "seconds", labelnames=("route",))
        with pytest.raises(ValueError):
            histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.observe(1.0, mode="x")
        with pytest.raises(ValueError):
            histogram.observe(1.0, route="a", mode="x")
        assert histogram.collect() == {}

    def test_buckets_are_sorted_on_construction(self):
        histogram = Histogram("latency", "seconds", buckets=(5.0, 1.0))
        assert histogram.buckets == (1.0, 5.0)

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("latency", "seconds", buckets=())


class TestMetricsRegistry:
    def test_namespace_prefix(self):
        registry = MetricsRegistry(namespace="svc")
        counter = registry.counter("jobs_total", "jobs")
        assert counter.name == "svc_jobs_total"
        assert registry.get("jobs_total") is counter

    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("jobs_total", "jobs", labelnames=("kind",))
        second = registry.counter("jobs_total", "ignored", labelnames=("kind",))
        assert first is second

    def test_shape_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs", labelnames=("kind",))
        with pytest.raises(ValueError):
            registry.counter("jobs_total", "jobs", labelnames=("other",))
        with pytest.raises(ValueError):
            registry.gauge("jobs_total", "jobs", labelnames=("kind",))

    def test_a_histogram_with_other_buckets_is_a_different_shape(self):
        registry = MetricsRegistry()
        first = registry.histogram("latency", "seconds", buckets=(0.1, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("latency", "seconds", buckets=(5.0,))
        assert registry.histogram("latency", "seconds", buckets=(0.1, 1.0)) is first
        # The same bounds given in another order are the same buckets.
        assert registry.histogram("latency", "seconds", buckets=(1, 0.1)) is first
        assert registry.get("latency").buckets == (0.1, 1.0)

    def test_collect_shape(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs").inc()
        collected = registry.collect()
        assert collected == {
            "repro_jobs_total": {"type": "counter", "samples": {"": 1.0}}
        }
        json.dumps(collected)

    def test_render_prometheus_interleaves_help_and_type(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs").inc()
        registry.gauge("depth", "queue depth").set(2)
        text = registry.render_prometheus()
        assert "# HELP repro_jobs_total jobs" in text
        assert "# TYPE repro_jobs_total counter" in text
        assert "# TYPE repro_depth gauge" in text
        assert text.endswith("\n")

    def test_label_values_escape_prometheus_specials(self):
        # One label value holding all three characters the exposition
        # format escapes: backslash (first — order matters), quote, LF.
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", "ops", labelnames=("path",))
        counter.inc(path='a\\b"c\nd')
        text = registry.render_prometheus()
        assert 'repro_ops_total{path="a\\\\b\\"c\\nd"} 1' in text
        # The sample still occupies exactly one physical line.
        sample_lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(sample_lines) == 1

    def test_help_text_escapes_backslash_and_newline(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", 'win\\path docs\nsecond "quoted" line')
        text = registry.render_prometheus()
        help_lines = [l for l in text.splitlines() if l.startswith("# HELP")]
        assert help_lines == [
            '# HELP repro_ops_total win\\\\path docs\\nsecond "quoted" line'
        ]

    def test_register_store_metrics_exports_breaker_gauges(self, scenario):
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1)
        ) as service:
            service.evaluate(scenario.queries)
            collected = service.metrics.collect()
        breaker = collected["repro_store_breaker_state"]["samples"]
        assert breaker['{store="profiles"}'] == 0.0  # closed
        assert breaker['{store="answers"}'] == 0.0
        resilience = collected["repro_store_resilience_counter"]["samples"]
        assert resilience['{store="profiles",counter="retries"}'] == 0.0
        assert resilience['{store="profiles",counter="degraded_computes"}'] == 0.0

    def test_register_store_metrics_exports_counters(self, scenario):
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1)
        ) as service:
            service.evaluate(scenario.queries)
            collected = service.metrics.collect()
            store_samples = collected["repro_store_counter"]["samples"]
            computes = store_samples['{store="profiles",counter="computes"}']
            assert computes == service.stats()["classification_calls"]
            assert '{store="answers",counter="hits"}' in store_samples
            retained = collected["repro_telemetry_samples"]["samples"][""]
            assert retained > 0


EXPECTED_STATS_KEYS = {
    "queries_served",
    "batches_served",
    "pending",
    "shared_stores",
    "classification_calls",
    "stores",
    "cutover",
    "mode_history",
    "monitor",
    "metrics",
}

EXPECTED_MONITOR_KEYS = {
    "recycles",
    "recycle_events",
    "redispatched_chunks",
    "deadline_expiries",
    "deadline_seconds",
    "workers",
    "failovers",
    "failover_events",
}

EXPECTED_CUTOVER_KEYS = {
    "pool_startup_seconds",
    "chunk_overhead_seconds",
}


def assert_json_types(value, path="stats"):
    """Every leaf must be a pure JSON type — no proxies, enums, tuples."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    if isinstance(value, dict):
        for key, item in value.items():
            assert isinstance(key, str), f"non-string key {key!r} at {path}"
            assert_json_types(item, f"{path}.{key}")
        return
    if isinstance(value, list):
        for i, item in enumerate(value):
            assert_json_types(item, f"{path}[{i}]")
        return
    raise AssertionError(f"non-JSON type {type(value).__name__} at {path}")


class TestStatsSchema:
    """The regression gate on the observability contract."""

    @pytest.fixture(scope="class")
    def stats(self, scenario):
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1)
        ) as service:
            service.evaluate(scenario.queries)
            return service.stats()

    def test_top_level_keys_are_exactly_the_contract(self, stats):
        assert set(stats) == EXPECTED_STATS_KEYS

    def test_nested_schemas(self, stats):
        assert set(stats["monitor"]) == EXPECTED_MONITOR_KEYS
        assert set(stats["cutover"]) == EXPECTED_CUTOVER_KEYS

    def test_every_value_is_pure_json(self, stats):
        assert_json_types(stats)

    def test_json_round_trip_is_lossless(self, stats):
        assert json.loads(json.dumps(stats)) == stats

    def test_spawn_overhead_gauge_reads_the_measured_chunk_overhead(self, scenario):
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1)
        ) as service:
            service.evaluate(scenario.queries[:4])
            assert "repro_spawn_overhead_seconds NaN" in service.render_prometheus()
            samples = service.stats()["metrics"]["repro_spawn_overhead_seconds"]
            assert samples["samples"] == {"": None}
        config = ExecutorConfig(workers=2, chunk_size=4)
        with QueryService(scenario.database, executor=config) as service:
            # The first batch starts the pool; the second, restated so
            # that the parent cannot answer it by content, runs on it.
            service.evaluate(scenario.queries, mode="parallel")
            service.evaluate(restated(scenario.queries), mode="parallel")
            cutover = service.stats()["cutover"]
            gauge = service.metrics.get("spawn_overhead_seconds")
            assert cutover["pool_startup_seconds"] >= 0.0
            assert cutover["chunk_overhead_seconds"] >= 0.0
            assert gauge.value() == cutover["chunk_overhead_seconds"]

    def test_render_prometheus_endpoint(self, scenario):
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1)
        ) as service:
            service.evaluate(scenario.queries[:4])
            text = service.render_prometheus()
        assert "# TYPE repro_queries_total counter" in text
        assert "# TYPE repro_batch_seconds histogram" in text
        assert 'repro_queries_total{mode="sequential"} 4' in text
