"""Telemetry-driven planner calibration: fit cost weights from solves.

The planner's per-route cost models (:mod:`repro.eval.planner`) estimate
``weight · prefactor · b^exponent`` elementary extension steps, with
hand-set weights calibrating the routes against each other.  Every solve
the service runs is evidence about what those weights *should* be: the
raw (unweighted) unit estimate ``x`` of the route that ran, and the wall
time ``t`` it realised.  This module closes the loop:

* :class:`SolveSample` — one ``(route, database features, x, t)``
  observation, recorded by the executor on every realised solve and
  collected in the parent's :class:`~repro.service.store.TelemetrySink`.
* :func:`fit_route_weights` — per-route least squares through the
  origin, ``w_r = Σ x·t / Σ x²`` over the route's samples.  The fitted
  weights are in **seconds per unit**, so the planner's cost estimates
  become wall-time predictions.  Routes the workload never exercised
  keep their hand-set weight, rescaled by the median fitted/hand-set
  ratio so cross-route comparisons stay coherent.
* :func:`calibrate_planner` — samples in, :class:`CalibrationResult`
  out: a cost-mode :class:`~repro.classification.solver_dispatch.PlannerConfig`
  with fitted weights.
* :func:`select_planner` — the **no-regression guard**: given measured
  per-route timings for representative workloads, the fitted config is
  adopted only if its route choices win or tie the incumbent's on
  *every* workload; otherwise the incumbent ships unchanged.
  Calibration can therefore never make a scenario slower than the
  hand-set configuration — the property the service benchmark gates.
* :class:`CalibrationState` — JSON persistence, so a restarted service
  starts from the previous lifetime's calibration instead of the
  hand-set guesses.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.classification.classifier import StructureProfile
from repro.classification.degrees import ComplexityDegree
from repro.classification.solver_dispatch import DEFAULT_PLANNER_CONFIG, PlannerConfig
from repro.eval.planner import COST_CAP, plan_query, route_units, route_weights
from repro.eval.stats import DatabaseStatistics

#: Fitted weights are floored here — a degenerate fit (all-zero timings)
#: must never produce a weight that erases a route's cost entirely.
_WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class SolveSample:
    """One realised solve: the route taken, its features, and the time.

    ``raw_units`` is the *unweighted* cost-model estimate of the route
    that ran (:func:`repro.eval.planner.route_units`) against the
    statistics in force — the regressor the weights are fitted on.  The
    remaining fields are the :class:`DatabaseStatistics`/profile
    features behind it, kept so calibration reports stay inspectable.
    """

    route: str
    raw_units: float
    seconds: float
    core_size: int
    universe_size: int
    branching: float
    certificate: Optional[str] = None


def make_sample(
    degree: ComplexityDegree,
    profile: StructureProfile,
    stats: DatabaseStatistics,
    seconds: float,
    config: PlannerConfig = DEFAULT_PLANNER_CONFIG,
) -> SolveSample:
    """Build the telemetry sample for one realised solve (pricing only its route)."""
    units = route_units(profile, stats, degree, config)
    return SolveSample(
        route=degree.value,
        raw_units=units,
        seconds=seconds,
        core_size=profile.core_size,
        universe_size=stats.universe_size,
        branching=stats.branching_factor(),
        certificate=profile.core_certificate,
    )


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def fit_route_weights(
    samples: Sequence[SolveSample],
    base: PlannerConfig = DEFAULT_PLANNER_CONFIG,
) -> Tuple[Dict[ComplexityDegree, float], Dict[str, Dict[str, float]]]:
    """Least-squares per-route weights (seconds per unit) from samples.

    For each route the model is ``t ≈ w · x`` through the origin, so the
    minimiser is ``w = Σ x·t / Σ x²`` over that route's samples (capped
    estimates are excluded — they carry no scale information).  Routes
    without usable samples inherit ``base``'s hand-set weight scaled by
    the median fitted/hand-set ratio of the routes that *were* fitted,
    keeping the four models mutually comparable.

    Returns ``(weights, report)`` where ``report`` maps route names to
    ``{"samples": n, "fitted": w or None, "weight": final w}``.
    """
    base_weights = route_weights(base)
    by_route: Dict[ComplexityDegree, List[SolveSample]] = {}
    for sample in samples:
        for degree in base_weights:
            if degree.value == sample.route:
                by_route.setdefault(degree, []).append(sample)
                break
    fitted: Dict[ComplexityDegree, float] = {}
    report: Dict[str, Dict[str, float]] = {}
    for degree, base_weight in base_weights.items():
        usable = [
            s
            for s in by_route.get(degree, [])
            if 0.0 < s.raw_units < COST_CAP and s.seconds >= 0.0
        ]
        xx = sum(s.raw_units * s.raw_units for s in usable)
        if usable and xx > 0.0:
            weight = max(
                _WEIGHT_FLOOR, sum(s.raw_units * s.seconds for s in usable) / xx
            )
            fitted[degree] = weight
        report[degree.value] = {
            "samples": len(usable),
            "fitted": fitted.get(degree),
            "weight": None,  # filled below
        }
    if fitted:
        scale = statistics.median(
            fitted[degree] / base_weights[degree] for degree in fitted
        )
    else:
        scale = 1.0
    weights = {
        degree: fitted.get(degree, max(_WEIGHT_FLOOR, base_weights[degree] * scale))
        for degree in base_weights
    }
    for degree, weight in weights.items():
        report[degree.value]["weight"] = weight
    return weights, report


@dataclass(frozen=True)
class CalibrationResult:
    """The outcome of one calibration pass over a telemetry drain."""

    planner: PlannerConfig
    sample_count: int
    source: str  # "fitted" | "insufficient-samples"
    per_route: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def state(self) -> "CalibrationState":
        """The persistable projection of this result."""
        return CalibrationState(
            planner=self.planner,
            sample_count=self.sample_count,
            source=self.source,
            per_route=dict(self.per_route),
        )


def calibrate_planner(
    samples: Sequence[SolveSample],
    base: PlannerConfig = DEFAULT_PLANNER_CONFIG,
    min_samples: int = 8,
) -> CalibrationResult:
    """Fit a cost-mode planner configuration from telemetry samples.

    With fewer than ``min_samples`` usable observations the hand-set
    configuration is returned untouched (``source ==
    "insufficient-samples"``) — a service that has barely run must not
    overwrite trustworthy defaults with noise.

    Because the fitted weights are seconds per unit, cost estimates
    under the returned config *are* wall-time predictions.
    """
    if len(samples) < min_samples:
        return CalibrationResult(
            planner=base,
            sample_count=len(samples),
            source="insufficient-samples",
        )
    weights, report = fit_route_weights(samples, base)
    planner = PlannerConfig(
        treedepth_threshold=base.treedepth_threshold,
        pathwidth_threshold=base.pathwidth_threshold,
        treewidth_threshold=base.treewidth_threshold,
        mode="cost",
        treedepth_cost_weight=weights[ComplexityDegree.PARA_L],
        path_cost_weight=weights[ComplexityDegree.PATH_COMPLETE],
        tree_cost_weight=weights[ComplexityDegree.TREE_COMPLETE],
        backtracking_cost_weight=weights[ComplexityDegree.W1_HARD],
        symmetry_discount=base.symmetry_discount,
    )
    return CalibrationResult(
        planner=planner,
        sample_count=len(samples),
        source="fitted",
        per_route=report,
    )


# ---------------------------------------------------------------------------
# the no-regression guard
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RouteTimingCase:
    """Measured per-route seconds for one distinct pattern of a workload.

    ``weight`` is the pattern's multiplicity in the workload, so totals
    reflect the traffic mix, not just the distinct-pattern set.
    """

    profile: StructureProfile
    stats: DatabaseStatistics
    seconds_by_route: Mapping[ComplexityDegree, float]
    weight: int = 1


def routed_seconds(
    cases: Sequence[RouteTimingCase], config: PlannerConfig
) -> float:
    """Total measured seconds if every case takes ``config``'s route."""
    total = 0.0
    for case in cases:
        degree = plan_query(case.profile, case.stats, config).degree
        total += case.weight * case.seconds_by_route[degree]
    return total


def select_planner(
    fitted: PlannerConfig,
    incumbent: PlannerConfig,
    cases_by_workload: Mapping[str, Sequence[RouteTimingCase]],
    rel_tol: float = 0.0,
) -> Tuple[PlannerConfig, Dict[str, Dict[str, float]]]:
    """Adopt ``fitted`` only if it wins or ties every workload.

    For each workload the two configs' route choices are priced against
    the *same* measured per-route timings, so the comparison is exact
    and deterministic given the measurements.  One loss (beyond
    ``rel_tol``) and the incumbent ships — calibration never regresses
    a known workload.  Returns the chosen config and a per-workload
    report with both totals and the verdict.
    """
    report: Dict[str, Dict[str, float]] = {}
    all_win_or_tie = True
    for name, cases in cases_by_workload.items():
        fitted_seconds = routed_seconds(cases, fitted)
        incumbent_seconds = routed_seconds(cases, incumbent)
        win_or_tie = fitted_seconds <= incumbent_seconds * (1.0 + rel_tol)
        all_win_or_tie = all_win_or_tie and win_or_tie
        report[name] = {
            "fitted_seconds": fitted_seconds,
            "incumbent_seconds": incumbent_seconds,
            "win_or_tie": win_or_tie,
        }
    return (fitted if all_win_or_tie else incumbent), report


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationState:
    """The persistable calibration outcome a service restarts from."""

    planner: PlannerConfig
    sample_count: int
    source: str
    per_route: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["planner"] = self.planner.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationState":
        payload = dict(data)
        payload["planner"] = PlannerConfig.from_dict(payload["planner"])
        # Files saved before the executor measured its own pool overhead
        # carry the per-chunk threshold calibration used to echo.
        payload.pop("spawn_cost_threshold", None)
        return cls(**payload)

    def save(self, path: str) -> None:
        """Write the state as JSON (atomically enough for a config file)."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "CalibrationState":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    @classmethod
    def load_or_none(cls, path: str) -> "Optional[CalibrationState]":
        """Load a state file, or None if it is missing or unusable.

        A calibration file is an *optimisation*, never a requirement: a
        service pointed at a missing, truncated, corrupted or
        wrong-shaped file must start (on its incumbent defaults) rather
        than crash.  Anything short of a well-formed state — I/O
        errors, invalid JSON, missing or mistyped fields, a non-dict
        payload — maps to None.
        """
        try:
            state = cls.load(path)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            # ValueError covers json.JSONDecodeError; KeyError/TypeError
            # cover structurally wrong payloads (missing planner, wrong
            # field types); AttributeError covers non-dict JSON roots.
            return None
        if not isinstance(state.planner, PlannerConfig):
            return None
        return state
