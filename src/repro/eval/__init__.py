"""The EVAL(Φ) execution service: cost-based planning + parallel execution.

The paper's motivating problem — answering many boolean conjunctive
queries against a database — becomes a service here: database statistics
(:mod:`repro.eval.stats`) feed a cost-based planner
(:mod:`repro.eval.planner`) that picks a solver route per query, and a
chunked multi-process executor (:mod:`repro.eval.executor`) streams
deterministic results for batches of any size.
:func:`repro.cq.evaluation.evaluate_query_set` routes through this
package; the pieces are exported here for direct use.
"""

from repro.classification.solver_dispatch import (
    DEFAULT_PLANNER_CONFIG,
    PlannerConfig,
    SlimSolveResult,
)
from repro.eval.executor import EvalService, ExecutorConfig
from repro.eval.planner import (
    COST_CAP,
    QueryPlan,
    clear_plan_cache,
    estimate_route_costs,
    plan_cache_info,
    plan_query,
    plan_query_cached,
    route_raw_units,
    route_weights,
)
from repro.eval.stats import DatabaseStatistics

__all__ = [
    "DatabaseStatistics",
    "PlannerConfig",
    "DEFAULT_PLANNER_CONFIG",
    "SlimSolveResult",
    "QueryPlan",
    "plan_query",
    "plan_query_cached",
    "plan_cache_info",
    "clear_plan_cache",
    "estimate_route_costs",
    "route_raw_units",
    "route_weights",
    "COST_CAP",
    "EvalService",
    "ExecutorConfig",
]
