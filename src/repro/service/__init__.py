"""The query-service layer: shared stores, calibration, and the front-end.

Where :mod:`repro.eval` turns one batch of queries into answers as fast
as the hardware allows, this package turns the evaluator into a
*service*: state that outlives batches (and is shared across pool
workers), a planner that learns its own cost weights from realised
timings, and a front-end that batches requests.  Whether a batch runs
in-process or on the pool is the executor's decision
(:class:`~repro.eval.executor.EvalService`), made from seconds it
measures itself.

* :mod:`repro.service.store` — :class:`SharedStore` (manager-backed
  cross-process KV with a process-local L1 and an exactly-once compute
  protocol), :class:`TelemetrySink`, and the :class:`ServiceStores`
  bundle the executor threads to its workers.
* :mod:`repro.service.telemetry` — :class:`SolveSample` records,
  least-squares weight fitting, the no-regression guard
  (:func:`select_planner`) and :class:`CalibrationState` persistence.
* :mod:`repro.service.frontend` — :class:`QueryService`.
* :mod:`repro.service.autotune` — the background recalibration loop:
  :class:`AutoTuner` re-fits planner weights on a cadence or on
  telemetry-residual drift and hot-swaps the config (guarded, no pool
  restart).
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

    with QueryService(database, autotune=True) as service:
        for query, result in service.evaluate(queries):
            ...
        print(service.stats())             # hit rates, modes, calibration
        print(service.render_prometheus()) # the /metrics text body
"""

from repro.service.autotune import (
    AutoTuneConfig,
    AutoTuner,
    ResidualTracker,
)
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
    StoreManager,
    TelemetrySink,
)
from repro.service.telemetry import (
    CalibrationResult,
    CalibrationState,
    RouteTimingCase,
    SolveSample,
    calibrate_planner,
    fit_route_weights,
    make_sample,
    routed_seconds,
    select_planner,
)

__all__ = [
    "QueryService",
    "SharedStore",
    "TelemetrySink",
    "ServiceStores",
    "StoreManager",
    "SolveSample",
    "make_sample",
    "fit_route_weights",
    "calibrate_planner",
    "CalibrationResult",
    "CalibrationState",
    "RouteTimingCase",
    "routed_seconds",
    "select_planner",
    "AutoTuner",
    "AutoTuneConfig",
    "ResidualTracker",
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
