"""Cost-based query planning for EVAL(Φ).

The historical dispatch (:func:`repro.classification.solver_dispatch.choose_degree`)
picks a solver from the core widths alone, through fixed thresholds.  That
ignores the database entirely: a width-2 pattern against a 10-element
database and against a 10-million-row skewed table get the same plan.

This module adds the database side.  Every route is *correct* for every
pattern (a decomposition of some width always exists; the degree only
selects machinery), so planning is purely a cost decision:

========================  =======================================================
route                     cost model (elementary extension steps)
========================  =======================================================
para-L                    ``k · n · b^(td−1)``  — one branch per level of the
                          elimination forest, ``b`` candidates per branch
PATH                      ``k · n · b^pw``      — ``k`` vertices, a memo of at
                          most ``n · b^pw`` boundary assignments per vertex
TREE                      ``k · n · b^tw``      — same shape, bounded by the
                          treewidth
backtracking              ``n · b^(k−1)``       — one candidate set for the
                          first variable, ``b`` extensions for each further one
========================  =======================================================

where ``k`` is the core size, ``n`` the database universe, ``b`` the
effective branching factor ``min(n, fan-out)`` measured by
:class:`~repro.eval.stats.DatabaseStatistics`, and ``td/pw/tw`` the core
widths.  The :class:`~repro.classification.solver_dispatch.PlannerConfig`
weights calibrate the four models against each other.

``mode="threshold"`` (the default) reproduces the historical dispatch
exactly — the planner then only *annotates* the choice with estimates —
so results stay byte-identical with the reference path.  ``mode="cost"``
picks the cheapest estimate, breaking ties towards the lighter machinery
(PARA_L < PATH < TREE < W[1]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.caching import BoundedLRU
from repro.classification.classifier import StructureProfile
from repro.classification.degrees import ComplexityDegree
from repro.classification.solver_dispatch import (
    DEFAULT_PLANNER_CONFIG,
    PlannerConfig,
    choose_degree,
)
from repro.eval.stats import DatabaseStatistics

#: Estimates are capped here so exponent arithmetic never overflows and
#: comparisons between hopeless routes stay well defined.
COST_CAP = 1e30

#: Tie-break precedence of the routes: lighter machinery first.
_ROUTE_PRECEDENCE = (
    ComplexityDegree.PARA_L,
    ComplexityDegree.PATH_COMPLETE,
    ComplexityDegree.TREE_COMPLETE,
    ComplexityDegree.W1_HARD,
)


@dataclass(frozen=True)
class QueryPlan:
    """The planner's verdict for one (pattern, database) pair.

    ``certified`` records whether the width measure that drives the chosen
    route was computed exactly (engine window or recognised closed form,
    per the profile's ``core_*_exact`` flags).  A plan routed on a
    heuristic upper bound is still correct — every route is — but its
    cost estimate may be pessimistic, which is exactly the 13–25-element
    regime the width engines were built to eliminate.
    """

    degree: ComplexityDegree
    cost: float
    estimates: Dict[ComplexityDegree, float]
    mode: str
    certified: bool = True

    def summary(self) -> str:
        """Return a one-line human-readable account of the plan."""
        ranked = sorted(self.estimates.items(), key=lambda item: item[1])
        listing = ", ".join(f"{degree.value}≈{cost:.3g}" for degree, cost in ranked)
        flag = "" if self.certified else "; heuristic-width route"
        return f"route {self.degree.value} ({self.mode} mode{flag}; estimates: {listing})"


def _powcost(weight: float, prefactor: float, base: float, exponent: int) -> float:
    """Return ``weight · prefactor · base^exponent`` capped at :data:`COST_CAP`."""
    if prefactor <= 0:
        return 0.0
    base = max(1.0, base)
    exponent = max(0, exponent)
    log_cost = math.log(prefactor) + exponent * math.log(base)
    if log_cost >= math.log(COST_CAP):
        return COST_CAP
    return min(COST_CAP, weight * math.exp(log_cost))


#: Certificates naming vertex-transitive core families.  Those cores have
#: a rich automorphism group, so a first-witness search collapses
#: symmetric subtrees: the effective branching sits below the measured
#: fan-out, and the planner discounts it
#: (``PlannerConfig.symmetry_discount``).  Identity-only certificates
#: ("ac-rigid", "singleton") and search-proven cores (certificate None)
#: are rigid with no symmetry-collapse slack and keep the full estimate.
_SYMMETRIC_CERTIFICATES = frozenset({"clique", "odd-cycle"})


def route_raw_units(
    profile: StructureProfile,
    stats: DatabaseStatistics,
    config: PlannerConfig = DEFAULT_PLANNER_CONFIG,
) -> Dict[ComplexityDegree, float]:
    """The *unweighted* per-route estimates (elementary extension steps).

    These are the ``prefactor · b^exponent`` models of the module
    docstring before the config's calibration weights are applied — the
    quantity the telemetry layer regresses observed wall times against
    (:mod:`repro.service.telemetry`), so fitted weights are directly
    comparable with the hand-set ones.
    """
    return {
        route: route_units(profile, stats, route, config) for route in _ROUTE_PRECEDENCE
    }


def route_units(
    profile: StructureProfile,
    stats: DatabaseStatistics,
    degree: ComplexityDegree,
    config: PlannerConfig = DEFAULT_PLANNER_CONFIG,
) -> float:
    """The unweighted estimate of one route (see :func:`route_raw_units`).

    It reads only the width the route rests on, so pricing the route a
    threshold decision took reads the width that decision certified.
    """
    k = max(1, profile.core_size)
    n = max(1, stats.universe_size)
    branching = stats.branching_factor()
    if profile.core_certificate in _SYMMETRIC_CERTIFICATES:
        branching = max(1.0, branching * config.symmetry_discount)
    if degree is ComplexityDegree.PARA_L:
        return _powcost(1.0, k * n, branching, profile.core_treedepth - 1)
    if degree is ComplexityDegree.PATH_COMPLETE:
        return _powcost(1.0, k * n, branching, profile.core_pathwidth)
    if degree is ComplexityDegree.TREE_COMPLETE:
        return _powcost(1.0, k * n, branching, profile.core_treewidth)
    return _powcost(1.0, n, branching, k - 1)


def route_weights(config: PlannerConfig) -> Dict[ComplexityDegree, float]:
    """The config's calibration weights keyed by route."""
    return {
        ComplexityDegree.PARA_L: config.treedepth_cost_weight,
        ComplexityDegree.PATH_COMPLETE: config.path_cost_weight,
        ComplexityDegree.TREE_COMPLETE: config.tree_cost_weight,
        ComplexityDegree.W1_HARD: config.backtracking_cost_weight,
    }


def estimate_route_costs(
    profile: StructureProfile,
    stats: DatabaseStatistics,
    config: PlannerConfig = DEFAULT_PLANNER_CONFIG,
) -> Dict[ComplexityDegree, float]:
    """Return the estimated cost of every route (see the module docstring)."""
    raw = route_raw_units(profile, stats, config)
    weights = route_weights(config)
    return {
        route: (
            COST_CAP
            if units >= COST_CAP
            else min(COST_CAP, weights[route] * units)
        )
        for route, units in raw.items()
    }


def route_certified(profile: StructureProfile, degree: ComplexityDegree) -> bool:
    """Whether the width measure driving ``degree`` is exact on ``profile``.

    The backtracking route depends only on the core size (always exact);
    the other three each rest on one width measure.
    """
    if degree is ComplexityDegree.PARA_L:
        return getattr(profile, "core_treedepth_exact", True)
    if degree is ComplexityDegree.PATH_COMPLETE:
        return getattr(profile, "core_pathwidth_exact", True)
    if degree is ComplexityDegree.TREE_COMPLETE:
        return getattr(profile, "core_treewidth_exact", True)
    return True


def plan_query(
    profile: StructureProfile,
    stats: Optional[DatabaseStatistics] = None,
    config: PlannerConfig = DEFAULT_PLANNER_CONFIG,
) -> QueryPlan:
    """Plan one query: pick a route and report the per-route estimates.

    With ``config.mode == "threshold"`` (or when no statistics are
    available) the route is the historical threshold choice and the
    estimates are advisory.  With ``config.mode == "cost"`` the cheapest
    estimate wins, ties broken towards the lighter machinery.
    """
    if stats is None:
        estimates: Dict[ComplexityDegree, float] = {}
    else:
        estimates = estimate_route_costs(profile, stats, config)
    if config.mode == "cost" and estimates:
        degree = min(
            _ROUTE_PRECEDENCE,
            key=lambda route: (estimates[route], _ROUTE_PRECEDENCE.index(route)),
        )
    else:
        degree = choose_degree(profile, config)
    return QueryPlan(
        degree=degree,
        cost=estimates.get(degree, 0.0),
        estimates=estimates,
        mode=config.mode,
        certified=route_certified(profile, degree),
    )


# ---------------------------------------------------------------------------
# plan cache
# ---------------------------------------------------------------------------

#: Bounded LRU of query plans.  In cost mode the plan depends on the
#: (pattern, database statistics, config) triple; keying on the statistics
#: *fingerprint* instead of the object identity means a long-running
#: service re-planning the same pattern against an unchanged vocabulary
#: hits the cache even across fresh :class:`DatabaseStatistics` instances.
_PLAN_CACHE_LIMIT = 512
_PLAN_CACHE: "BoundedLRU[Tuple, QueryPlan]" = BoundedLRU(_PLAN_CACHE_LIMIT)


def plan_query_cached(
    profile: StructureProfile,
    stats: Optional[DatabaseStatistics] = None,
    config: PlannerConfig = DEFAULT_PLANNER_CONFIG,
) -> QueryPlan:
    """LRU-cached :func:`plan_query`.

    The key is ``(pattern, stats fingerprint, config)`` — the pattern
    structure determines the profile (profiles are deterministic per
    structure), so two calls with equal keys would have produced equal
    plans.  Plans are immutable, so sharing the object is safe.
    """
    key = (
        profile.structure,
        None if stats is None else stats.fingerprint(),
        config,
    )
    return _PLAN_CACHE.get_or_put(key, lambda: plan_query(profile, stats, config))


def plan_cache_info() -> Dict[str, int]:
    """Return hit/miss/size counters of the plan cache."""
    return _PLAN_CACHE.info()


def clear_plan_cache() -> None:
    """Drop all cached plans and reset the counters (mainly for tests)."""
    _PLAN_CACHE.clear()
