"""A Prometheus-style metrics registry for the query service.

The service layer already *has* most of its numbers — store counters,
mode history, solve samples — but each lives in its own ad-hoc dict
and none is consumable by standard tooling.
This module gives them one production-style home:

* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — the three
  Prometheus metric kinds, with optional label dimensions (``route``,
  ``mode``, ``store`` ...).  Gauges additionally accept a *callback*
  (:meth:`Gauge.set_function`), the pull-style collector idiom: the
  value is read at collection time, so counters that already live in a
  shared store (one authoritative copy in the manager process) are
  exported without a second write path.
* :class:`MetricsRegistry` — creates and owns metrics by name,
  :meth:`collect`\\ s them into one JSON-safe dict (what
  ``QueryService.stats()`` embeds) and :meth:`render_prometheus`\\ s the
  text exposition format a scrape endpoint would serve.

Everything is thread-safe: the front-end, the monitor and test threads
all bump metrics concurrently.  Cross-*process* aggregation is handled
one level up — pool workers never touch the registry directly; their
activity reaches it through the shared stores (already cross-process)
and through the telemetry samples they return with each chunk, via
callback gauges and the front-end's per-batch accounting
(:func:`register_store_metrics`).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from itertools import accumulate
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "register_store_metrics",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets (seconds scale): the service's batch and
#: solve latencies span sub-millisecond memo hits to multi-second
#: heavy-route solves.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

LabelValues = Tuple[str, ...]


def _label_key(
    labelnames: Sequence[str], labels: Mapping[str, Any]
) -> LabelValues:
    """Validate and order label values against the declared label names."""
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared {sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


def _render_labels(labelnames: Sequence[str], values: LabelValues) -> str:
    if not labelnames:
        return ""
    inner = ",".join(
        f'{name}="{_escape(value)}"' for name, value in zip(labelnames, values)
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    """Escape a label value for the text exposition format.

    The backslash must go first — escaping it after the quote/newline
    passes would double-escape the backslashes those introduce.
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """Escape HELP-line documentation.

    Per the exposition format, HELP text escapes backslash and newline
    only (a double quote is legal there) — an embedded newline would
    otherwise split the comment into a junk line that breaks scrapers.
    """
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class _Metric:
    """Shared bookkeeping of the three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, documentation: str, labelnames: Sequence[str]) -> None:
        if not name or not name.replace("_", "a").replace(":", "a").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.documentation = documentation
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    # Each subclass keeps its series in ``self._series`` keyed by the
    # ordered label-value tuple; the unlabeled series uses the empty key.
    def _key(self, labels: Mapping[str, Any]) -> LabelValues:
        if not labels and not self.labelnames:
            return ()
        return _label_key(self.labelnames, labels)


class Counter(_Metric):
    """A monotonically increasing count (events, solves, recycles)."""

    kind = "counter"

    def __init__(self, name: str, documentation: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, documentation, labelnames)
        self._series: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(self._key(labels), 0.0)

    def collect(self) -> Dict[str, float]:
        with self._lock:
            return {
                _render_labels(self.labelnames, key) or "": value
                for key, value in sorted(self._series.items())
            }

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {_escape_help(self.documentation)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        with self._lock:
            series = sorted(self._series.items())
        for key, value in series:
            lines.append(f"{self.name}{_render_labels(self.labelnames, key)} {_format(value)}")
        return lines


class Gauge(_Metric):
    """A value that can go up and down (queue depth, residuals, estimates).

    A gauge series is either *set* explicitly or backed by a zero-arg
    callback registered with :meth:`set_function` — the callback form is
    read at collection time, which is how state that already lives
    elsewhere (shared-store counters, pending-queue length) is exported
    without double bookkeeping.
    """

    kind = "gauge"

    def __init__(self, name: str, documentation: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, documentation, labelnames)
        self._series: Dict[LabelValues, float] = {}
        self._callbacks: Dict[LabelValues, Callable[[], float]] = {}

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def set_function(self, callback: Callable[[], float], **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._callbacks[key] = callback

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            callback = self._callbacks.get(key)
            if callback is None:
                return self._series.get(key, 0.0)
        return float(callback())

    def _snapshot(self) -> List[Tuple[LabelValues, float]]:
        with self._lock:
            static = dict(self._series)
            callbacks = dict(self._callbacks)
        for key, callback in callbacks.items():
            try:
                static[key] = float(callback())
            except Exception:
                # A dead callback (closed store, shut-down manager) must
                # never take the whole scrape down with it.
                static[key] = float("nan")
        return sorted(static.items())

    def collect(self) -> Dict[str, float]:
        return {
            _render_labels(self.labelnames, key) or "": value
            for key, value in self._snapshot()
        }

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {_escape_help(self.documentation)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key, value in self._snapshot():
            lines.append(f"{self.name}{_render_labels(self.labelnames, key)} {_format(value)}")
        return lines


def _bounds(buckets: Sequence[float]) -> Tuple[float, ...]:
    """A histogram's bucket bounds as it stores them: floats, ascending."""
    return tuple(sorted(float(bound) for bound in buckets))


class Histogram(_Metric):
    """A distribution with cumulative buckets plus sum and count.

    :meth:`observe` bisects the value into the count of the first bucket
    whose bound is at least the value, so an observation costs the same
    whatever the number of buckets; :meth:`collect` and :meth:`render`
    add those counts up into the cumulative buckets the exposition
    format reports.  A value above the last bound, and a NaN, counts in
    no finite bucket, only in ``+Inf``, the count and the sum.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        documentation: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, documentation, labelnames)
        bounds = _bounds(buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket")
        self.buckets = bounds
        #: Per series, the observations of each bucket alone (not
        #: cumulative): index ``i`` counts the values in
        #: ``(buckets[i - 1], buckets[i]]``.
        self._counts: Dict[LabelValues, List[int]] = {}
        self._sums: Dict[LabelValues, float] = {}
        self._totals: Dict[LabelValues, int] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        # ``bisect_left`` places a NaN at index 0; it belongs in no bucket.
        index = bisect_left(self.buckets, value) if value == value else len(self.buckets)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * len(self.buckets)
            if index < len(counts):
                counts[index] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._totals[key] = self._totals.get(key, 0) + 1

    def collect(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            out: Dict[str, Dict[str, float]] = {}
            for key, counts in sorted(self._counts.items()):
                label = _render_labels(self.labelnames, key) or ""
                out[label] = {
                    "count": self._totals.get(key, 0),
                    "sum": self._sums.get(key, 0.0),
                    "buckets": {
                        _format(bound): count
                        for bound, count in zip(self.buckets, accumulate(counts))
                    },
                }
            return out

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {_escape_help(self.documentation)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        with self._lock:
            keys = sorted(self._counts)
            for key in keys:
                for bound, count in zip(self.buckets, accumulate(self._counts[key])):
                    rendered = _render_labels(
                        tuple(self.labelnames) + ("le",),
                        tuple(key) + (_format(bound),),
                    )
                    lines.append(f"{self.name}_bucket{rendered} {count}")
                rendered = _render_labels(
                    tuple(self.labelnames) + ("le",), tuple(key) + ("+Inf",)
                )
                lines.append(f"{self.name}_bucket{rendered} {self._totals[key]}")
                suffix = _render_labels(self.labelnames, key)
                lines.append(f"{self.name}_sum{suffix} {_format(self._sums[key])}")
                lines.append(f"{self.name}_count{suffix} {self._totals[key]}")
        return lines


def _format(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """Creates, owns and exports the service's metrics.

    Metric constructors are idempotent per name: asking for an existing
    name with the same kind and labels (and, for a histogram, the same
    buckets) returns the existing metric, so independent components
    (front-end, monitor, store registration) can share series without
    coordination.  Asking for an existing name with a *different* shape
    raises — silent divergence is how monitoring lies.
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._metrics: "Dict[str, _Metric]" = {}
        self._lock = threading.Lock()

    def _full(self, name: str) -> str:
        return f"{self.namespace}_{name}" if self.namespace else name

    def _get_or_create(self, cls, name: str, documentation: str, labelnames, **kwargs):
        full = self._full(name)
        with self._lock:
            existing = self._metrics.get(full)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {full!r} already registered with a different shape"
                    )
                return existing
            metric = cls(full, documentation, labelnames, **kwargs)
            self._metrics[full] = metric
            return metric

    def counter(
        self, name: str, documentation: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, documentation, labelnames)

    def gauge(
        self, name: str, documentation: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, documentation, labelnames)

    def histogram(
        self,
        name: str,
        documentation: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        histogram = self._get_or_create(
            Histogram, name, documentation, labelnames, buckets=buckets
        )
        if histogram.buckets != _bounds(buckets):
            raise ValueError(
                f"metric {histogram.name!r} already registered with buckets "
                f"{histogram.buckets}"
            )
        return histogram

    def get(self, name: str) -> Optional[_Metric]:
        """The metric registered under ``name`` (namespaced), or None."""
        with self._lock:
            return self._metrics.get(self._full(name))

    def collect(self) -> Dict[str, Any]:
        """Every metric's current samples, one JSON-safe dict."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {
            name: {"type": metric.kind, "samples": metric.collect()}
            for name, metric in metrics
        }

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (what /metrics would serve)."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: List[str] = []
        for _, metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


def register_store_metrics(registry: MetricsRegistry, stores: Any) -> None:
    """Export the shared stores' counters as pull-style callback gauges.

    ``stores`` is a :class:`repro.service.store.ServiceStores` bundle
    (typed loosely to keep the import graph acyclic).  Each counter the
    stores already maintain — cross-process, one authoritative copy —
    becomes a ``store_<counter>`` gauge labelled by store name, read at
    scrape time; nothing is double-counted.
    """
    gauge = registry.gauge(
        "store_counter",
        "Shared-store counters (hits/misses/computes/evictions/waits/size)",
        labelnames=("store", "counter"),
    )
    l1_gauge = registry.gauge(
        "store_l1_counter",
        "Per-process L1 cache counters in the registering process",
        labelnames=("store", "counter"),
    )
    breaker_gauge = registry.gauge(
        "store_breaker_state",
        "Per-store circuit-breaker state (0=closed, 1=half-open, 2=open)",
        labelnames=("store",),
    )
    resilience_gauge = registry.gauge(
        "store_resilience_counter",
        "Per-store fault-policy counters (retries/degraded/reconciled/...)",
        labelnames=("store", "counter"),
    )

    def _bind(store: Any, store_name: str) -> None:
        for counter in ("hits", "misses", "computes", "evictions", "waits", "size"):
            gauge.set_function(
                lambda store=store, counter=counter: float(
                    store.info().get(counter, 0)
                ),
                store=store_name,
                counter=counter,
            )
        for counter in ("hits", "misses", "size"):
            l1_gauge.set_function(
                lambda store=store, counter=counter: float(
                    (store.info().get("l1") or {}).get(counter, 0)
                ),
                store=store_name,
                counter=counter,
            )
        breaker_gauge.set_function(
            lambda store=store: store.breaker.state_code(),
            store=store_name,
        )
        for counter in (
            "retries",
            "degraded_computes",
            "reconciled",
            "reconcile_overflow",
            "pending_reconcile",
            "dropped_counter_updates",
            "dropped_claim_releases",
        ):
            resilience_gauge.set_function(
                lambda store=store, counter=counter: float(
                    store.resilience_info().get(counter, 0)
                ),
                store=store_name,
                counter=counter,
            )

    if getattr(stores, "profiles", None) is not None:
        _bind(stores.profiles, "profiles")
    if getattr(stores, "answers", None) is not None:
        _bind(stores.answers, "answers")
    if getattr(stores, "telemetry", None) is not None:
        registry.gauge(
            "telemetry_samples",
            "Solve samples currently retained by the telemetry sink",
        ).set_function(lambda sink=stores.telemetry: float(len(sink)))
