"""Background recalibration: the closed self-tuning loop.

PR 5 built the parts — telemetry samples per solve, least-squares weight
fitting, a no-regression guard, persistence — but left the trigger
manual: somebody had to call :meth:`QueryService.calibrate`, and
applying the result **restarted the worker pool**.  This module closes
the loop:

* :class:`AutoTuner` watches every served batch.  After
  ``every_n_solves`` solves, or as soon as the planner's wall-time
  predictions drift (:class:`ResidualTracker` keeps the median
  multiplicative error per route over a recent window), it re-fits the
  planner weights from the telemetry drain and — **only if the fitted
  config wins or ties the incumbent** on measured probe timings
  (:func:`~repro.service.telemetry.select_planner`) — hot-swaps it into
  the live service via the executor's versioned control slot.  No pool
  restart: workers adopt at their next chunk boundary.
* **Probing** solves the observability chicken-and-egg: telemetry only
  ever times the route that *ran*, so a mis-calibrated planner can park
  every query on one route and starve the fit of evidence about the
  others.  Before each recalibration the tuner times **all four routes**
  on the hottest recently-served patterns (bounded work in the parent),
  uses those timings both as guard cases and as extra fit samples.

The tuner fits the planner only: the serial/parallel decision is the
executor's, from seconds it measures itself.

Every attempt — adopted, rejected by the guard, or skipped for lack of
samples — is recorded as an event and mirrored into the metrics
registry (``recalibrations_total{outcome=...}``), so the tuning loop is
observable end to end.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.classification.degrees import ComplexityDegree
from repro.exceptions import DeadlineExceededError, StoreUnavailableError
from repro.classification.solver_dispatch import solve_with_degree
from repro.eval.planner import COST_CAP, route_weights
from repro.service.telemetry import (
    RouteTimingCase,
    SolveSample,
    calibrate_planner,
    make_sample,
    select_planner,
)

__all__ = [
    "AutoTuneConfig",
    "ResidualTracker",
    "AutoTuner",
]

#: Seconds floor when forming prediction/realisation ratios — keeps a
#: zero-time memo hit from producing an infinite residual factor.
_RESIDUAL_FLOOR = 1e-6


@dataclass(frozen=True)
class AutoTuneConfig:
    """Policy knobs of the background recalibration loop.

    ``every_n_solves`` is the steady-state cadence; ``residual_threshold``
    is the early trigger — when the median multiplicative error between
    the planner's wall-time predictions and realised solve times (per
    route, over the last ``residual_window`` samples) exceeds it, the
    workload has shifted and the tuner recalibrates without waiting for
    the cadence.  ``cooldown_solves`` keeps a noisy window from
    re-triggering back-to-back refits.  ``probe_patterns`` bounds the
    per-recalibration probing work (patterns × 4 routes, solved once
    each in the parent after a warm-up solve).
    """

    every_n_solves: int = 256
    residual_threshold: float = 3.0
    residual_window: int = 64
    min_residual_points: int = 8
    min_samples: int = 8
    cooldown_solves: int = 64
    probe_patterns: int = 4
    max_tracked_patterns: int = 128

    def __post_init__(self) -> None:
        if self.every_n_solves < 1:
            raise ValueError("every_n_solves must be at least 1")
        if self.residual_threshold <= 1.0:
            raise ValueError("residual_threshold must exceed 1.0")
        if self.residual_window < 2:
            raise ValueError("residual_window must be at least 2")
        if self.probe_patterns < 1:
            raise ValueError("probe_patterns must be at least 1")
        if self.cooldown_solves < 0:
            raise ValueError("cooldown_solves must be non-negative")


class ResidualTracker:
    """Median multiplicative prediction error per route, windowed.

    For each usable sample the planner's prediction is ``w_route · x``
    (seconds once calibrated; meaningless-but-consistent units before).
    The tracked residual is the symmetric factor
    ``max(pred, t) / min(pred, t)`` (floored) — 1.0 is a perfect
    prediction, 3.0 means off by 3× in either direction.  Medians over
    a bounded recent window make the signal robust to the occasional
    cold-cache outlier while still reacting to a genuine workload
    shift within one window.
    """

    def __init__(self, window: int = 64) -> None:
        if window < 2:
            raise ValueError("window must be at least 2")
        self._window = window
        self._by_route: Dict[str, Deque[float]] = {}

    def consume(self, samples: Sequence[SolveSample], planner: Any) -> None:
        weights = {
            degree.value: weight
            for degree, weight in route_weights(planner).items()
        }
        for sample in samples:
            weight = weights.get(sample.route)
            if weight is None:
                continue
            if not (0.0 < sample.raw_units < COST_CAP) or sample.seconds < 0.0:
                continue
            predicted = max(weight * sample.raw_units, _RESIDUAL_FLOOR)
            realised = max(sample.seconds, _RESIDUAL_FLOOR)
            factor = max(predicted, realised) / min(predicted, realised)
            bucket = self._by_route.setdefault(
                sample.route, deque(maxlen=self._window)
            )
            bucket.append(factor)

    def median_factors(self) -> Dict[str, float]:
        import statistics

        return {
            route: statistics.median(bucket)
            for route, bucket in self._by_route.items()
            if bucket
        }

    def points(self, route: str) -> int:
        return len(self._by_route.get(route, ()))

    def drifting_routes(
        self, threshold: float, min_points: int = 1
    ) -> List[str]:
        """Routes whose median error factor exceeds ``threshold``."""
        return sorted(
            route
            for route, factor in self.median_factors().items()
            if factor > threshold and self.points(route) >= min_points
        )

    def clear(self) -> None:
        """Forget everything — called after a planner swap, since the
        retained residuals were measured against the replaced config."""
        self._by_route.clear()


@dataclass
class _TrackedPattern:
    query: Any
    count: int = 0


class AutoTuner:
    """The background recalibration policy bound to one QueryService.

    The front-end calls :meth:`observe_batch` after every served batch
    (cheap bookkeeping); everything heavier — probing, fitting, the
    guard — happens inside :meth:`maybe_recalibrate` only when a
    trigger fires.  The tuner never *worsens* the service by
    construction: adoption goes through
    :func:`~repro.service.telemetry.select_planner` over measured probe
    timings, so a fitted config that loses on any probed pattern set is
    rejected and the incumbent keeps serving.
    """

    def __init__(
        self,
        service: Any,
        config: Optional[AutoTuneConfig] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self._service = service
        self.config = config if config is not None else AutoTuneConfig()
        self.residuals = ResidualTracker(window=self.config.residual_window)
        self.events: List[Dict[str, Any]] = []
        self._solves_since_recalibration = 0
        self._cooldown_remaining = 0
        self._total_solves = 0
        self._tracked: Dict[Tuple[Any, Any], _TrackedPattern] = {}
        self._recal_counter = None
        self._residual_gauge = None
        if metrics is not None:
            self._recal_counter = metrics.counter(
                "recalibrations_total",
                "Recalibration attempts by outcome",
                labelnames=("outcome",),
            )
            self._residual_gauge = metrics.gauge(
                "route_residual_factor",
                "Median multiplicative error of wall-time predictions per route",
                labelnames=("route",),
            )

    # -- per-batch bookkeeping ----------------------------------------------
    def observe_batch(
        self, queries: Sequence[Any], new_samples: Sequence[SolveSample]
    ) -> Optional[Dict[str, Any]]:
        """Feed one served batch; may trigger a recalibration.

        Returns the recalibration event if one fired, else None.
        """
        self._track_patterns(queries)
        self.residuals.consume(new_samples, self._service.planner)
        if self._residual_gauge is not None:
            for route, factor in self.residuals.median_factors().items():
                self._residual_gauge.set(factor, route=route)
        self._solves_since_recalibration += len(queries)
        self._total_solves += len(queries)
        self._cooldown_remaining = max(
            0, self._cooldown_remaining - len(queries)
        )
        return self.maybe_recalibrate()

    def _track_patterns(self, queries: Sequence[Any]) -> None:
        for query in queries:
            key = (query.canonical_structure(), query.vocabulary())
            entry = self._tracked.get(key)
            if entry is None:
                if len(self._tracked) >= self.config.max_tracked_patterns:
                    coldest = min(self._tracked, key=lambda k: self._tracked[k].count)
                    del self._tracked[coldest]
                entry = self._tracked[key] = _TrackedPattern(query=query)
            entry.count += 1

    # -- triggering ----------------------------------------------------------
    def trigger_reason(self) -> Optional[str]:
        """Why a recalibration should fire now, or None."""
        if self._cooldown_remaining > 0:
            return None
        if self._solves_since_recalibration >= self.config.every_n_solves:
            return "every-n-solves"
        drifting = self.residuals.drifting_routes(
            self.config.residual_threshold, self.config.min_residual_points
        )
        if drifting:
            return f"residual-drift:{','.join(drifting)}"
        return None

    def maybe_recalibrate(self) -> Optional[Dict[str, Any]]:
        reason = self.trigger_reason()
        if reason is None:
            return None
        return self.recalibrate(reason)

    # -- the recalibration pass ----------------------------------------------
    def recalibrate(self, reason: str = "manual") -> Dict[str, Any]:
        """Probe, re-fit, guard, and (maybe) hot-swap.  Returns the event.

        A store outage mid-pass (telemetry drain or probe solves hitting
        an open breaker / dead manager) degrades to a recorded
        ``store-unavailable`` event instead of crashing the serving
        thread — the next trigger retries after failover.
        """
        try:
            return self._recalibrate(reason)
        except (StoreUnavailableError, DeadlineExceededError) as error:
            return self._finish(reason, "store-unavailable", error=str(error))

    def _recalibrate(self, reason: str) -> Dict[str, Any]:
        service = self._service
        self._solves_since_recalibration = 0
        self._cooldown_remaining = self.config.cooldown_solves
        probe_cases, probe_samples = self._probe_cases()
        samples = list(service.telemetry_samples()) + probe_samples
        result = calibrate_planner(
            samples,
            base=service.base_planner,
            min_samples=self.config.min_samples,
        )
        if result.source != "fitted":
            event = self._finish(
                reason, "insufficient-samples", samples=len(samples)
            )
            return event
        if probe_cases:
            chosen, guard_report = select_planner(
                result.planner, service.planner, {"probe": probe_cases}
            )
            adopted = chosen is result.planner
        else:
            # Nothing served yet to probe against: trust the guard-free
            # fit only when there is no incumbent evidence either way.
            chosen, guard_report, adopted = result.planner, {}, True
        if adopted:
            version = service.apply_calibration(result)
            self.residuals.clear()
            return self._finish(
                reason,
                "adopted",
                samples=len(samples),
                guard=guard_report,
                version=version,
            )
        return self._finish(
            reason, "rejected", samples=len(samples), guard=guard_report
        )

    def _finish(self, reason: str, outcome: str, **details: Any) -> Dict[str, Any]:
        event = {
            "trigger": reason,
            "outcome": outcome,
            "at_solves": self._total_solves,
            "at": time.time(),
            **details,
        }
        self.events.append(event)
        if self._recal_counter is not None:
            self._recal_counter.inc(outcome=outcome)
        return event

    def _probe_cases(self) -> Tuple[List[RouteTimingCase], List[SolveSample]]:
        """Measured four-route timings for the hottest served patterns.

        Probing runs in the parent against the same targets the workers
        use; each (pattern, route) pair gets one warm-up solve and one
        timed solve, so the resulting :class:`RouteTimingCase` table is
        deterministic enough for the guard's priced comparison.  The
        timings are also returned as fit samples — the route
        exploration that keeps unexercised routes from going dark.
        """
        hot = sorted(
            self._tracked.values(), key=lambda entry: -entry.count
        )[: self.config.probe_patterns]
        context = self._service.eval_context()
        cases: List[RouteTimingCase] = []
        fit_samples: List[SolveSample] = []
        for entry in hot:
            query = entry.query
            pattern = query.canonical_structure()
            vocabulary = query.vocabulary()
            target = context.target_for(vocabulary)
            stats = context.stats_for(vocabulary)
            profile = context.profile_for(pattern)
            seconds: Dict[ComplexityDegree, float] = {}
            for degree in ComplexityDegree:
                solve_with_degree(pattern, target, degree, profile)  # warm-up
                start = time.perf_counter()
                solve_with_degree(pattern, target, degree, profile)
                seconds[degree] = time.perf_counter() - start
                fit_samples.append(
                    make_sample(
                        degree,
                        profile,
                        stats,
                        seconds[degree],
                        self._service.base_planner,
                    )
                )
            cases.append(
                RouteTimingCase(profile, stats, seconds, weight=entry.count)
            )
        return cases, fit_samples

    # -- the stats projection ------------------------------------------------
    def info(self) -> Dict[str, Any]:
        adopted = sum(1 for e in self.events if e["outcome"] == "adopted")
        rejected = sum(1 for e in self.events if e["outcome"] == "rejected")
        return {
            "enabled": True,
            "total_solves": self._total_solves,
            "solves_since_recalibration": self._solves_since_recalibration,
            "cooldown_remaining": self._cooldown_remaining,
            "attempts": len(self.events),
            "adopted": adopted,
            "rejected": rejected,
            "tracked_patterns": len(self._tracked),
            "median_residual_factors": self.residuals.median_factors(),
            "events": [dict(event) for event in self.events],
        }
