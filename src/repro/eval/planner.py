"""Query planning for EVAL(Φ): the Theorem 3.1 degree picks the route.

:func:`plan_query` routes a query by its degree,
:func:`~repro.classification.solver_dispatch.choose_degree`: the core's
tree depth, pathwidth and treewidth against the
:class:`~repro.classification.solver_dispatch.PlannerConfig` thresholds.
Every route is correct for every pattern (the degree only selects
machinery), and three of the four run the same memoised forest engine,
so the plan depends on the pattern alone, never on the database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.caching import BoundedLRU
from repro.classification.classifier import StructureProfile
from repro.classification.degrees import ComplexityDegree
from repro.classification.solver_dispatch import (
    DEFAULT_PLANNER_CONFIG,
    PlannerConfig,
    choose_degree,
)


@dataclass(frozen=True)
class QueryPlan:
    """The planner's verdict for one pattern.

    ``certified`` records whether the width measure that drives the chosen
    route was computed exactly (engine window or recognised closed form,
    per the profile's ``core_*_exact`` flags).  A plan routed on a
    heuristic upper bound is still correct — every route is.
    """

    degree: ComplexityDegree
    certified: bool = True

    def summary(self) -> str:
        """Return a one-line human-readable account of the plan."""
        flag = "" if self.certified else " (heuristic-width route)"
        return f"route {self.degree.value}{flag}"


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
    config: PlannerConfig = DEFAULT_PLANNER_CONFIG,
) -> QueryPlan:
    """Plan one query: its route is its degree under ``config``."""
    degree = choose_degree(profile, config)
    return QueryPlan(degree=degree, certified=route_certified(profile, degree))


# ---------------------------------------------------------------------------
# plan cache
# ---------------------------------------------------------------------------

_PLAN_CACHE_LIMIT = 512
_PLAN_CACHE: "BoundedLRU[Tuple, QueryPlan]" = BoundedLRU(_PLAN_CACHE_LIMIT)


def plan_query_cached(
    profile: StructureProfile,
    config: PlannerConfig = DEFAULT_PLANNER_CONFIG,
) -> QueryPlan:
    """LRU-cached :func:`plan_query`, keyed on ``(pattern, config)``.

    The pattern structure determines the profile (profiles are
    deterministic per structure), so two calls with equal keys would
    have produced equal plans.  Plans are immutable, so sharing the
    object is safe.
    """
    key = (profile.structure, config)
    return _PLAN_CACHE.get_or_put(key, lambda: plan_query(profile, config))


def plan_cache_info() -> Dict[str, int]:
    """Return hit/miss/size counters of the plan cache."""
    return _PLAN_CACHE.info()


def clear_plan_cache() -> None:
    """Drop all cached plans and reset the counters (mainly for tests)."""
    _PLAN_CACHE.clear()
