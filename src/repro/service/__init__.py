"""The query-service layer: shared stores, observability, and the front-end.

Where :mod:`repro.eval` turns one batch of queries into answers as fast
as the hardware allows, this package turns the evaluator into a
*service*: state that outlives batches (and is shared across pool
workers), counters of what it did, and a front-end that batches
requests.  Whether a batch runs
in-process or on the pool is the executor's decision
(:class:`~repro.eval.executor.EvalService`), made from seconds it
measures itself.

* :mod:`repro.service.store` — :class:`SharedStore` (manager-backed
  cross-process KV with a process-local L1 and an exactly-once compute
  protocol), :class:`TelemetrySink` with its ``(route, seconds)``
  :class:`SolveSample` records, and the :class:`ServiceStores` bundle
  the executor threads to its workers.
* :mod:`repro.service.frontend` — :class:`QueryService`.
* :mod:`repro.service.metrics` — a Prometheus-style
  :class:`MetricsRegistry` (counters/gauges/histograms with a text
  exposition) every service registers its observables into.
* :mod:`repro.service.monitor` — :class:`ServiceMonitor`: worker
  heartbeats, wedge detection via chunk deadlines, and the recycle /
  re-dispatch event record.
* :mod:`repro.service.resilience` — the fault layer every proxy
  operation routes through: :class:`FaultPolicy` (bounded jittered
  retries with per-operation timeouts), :class:`CircuitBreaker`
  (closed → open → half-open), and :class:`DeadlineBudget` (a
  monotonic per-batch deadline that composes through nested waits).

Quickstart::

    from repro.service import QueryService

    with QueryService(database) as service:
        for query, result in service.evaluate(queries):
            ...
        print(service.stats())             # hit rates, modes, cutover inputs
        print(service.render_prometheus()) # the /metrics text body
"""

from repro.service.frontend import QueryService
from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    register_store_metrics,
)
from repro.service.monitor import ServiceMonitor, WorkerHealth
from repro.service.resilience import (
    DEFAULT_FAULT_POLICY,
    CircuitBreaker,
    DeadlineBudget,
    FaultPolicy,
)
from repro.service.store import (
    ServiceStores,
    SharedStore,
    SolveSample,
    StoreManager,
    TelemetrySink,
)

__all__ = [
    "QueryService",
    "SharedStore",
    "TelemetrySink",
    "ServiceStores",
    "StoreManager",
    "SolveSample",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "register_store_metrics",
    "ServiceMonitor",
    "WorkerHealth",
    "FaultPolicy",
    "CircuitBreaker",
    "DeadlineBudget",
    "DEFAULT_FAULT_POLICY",
]
