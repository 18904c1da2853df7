"""The EVAL(Φ) execution service: degree-routed planning + parallel execution.

The paper's motivating problem — answering many boolean conjunctive
queries against a database — becomes a service here: the planner
(:mod:`repro.eval.planner`) routes each query by its Theorem 3.1 degree,
and a chunked multi-process executor (:mod:`repro.eval.executor`)
streams deterministic results for batches of any size;
:mod:`repro.eval.stats` summarises a database's relation sizes and
fan-outs.
:func:`repro.cq.evaluation.evaluate_query_set` routes through this
package; the pieces are exported here for direct use.
"""

from repro.classification.solver_dispatch import (
    DEFAULT_PLANNER_CONFIG,
    PlannerConfig,
)
from repro.eval.executor import EvalService, ExecutorConfig
from repro.eval.planner import (
    QueryPlan,
    clear_plan_cache,
    plan_cache_info,
    plan_query,
    plan_query_cached,
)
from repro.eval.stats import DatabaseStatistics

__all__ = [
    "DatabaseStatistics",
    "PlannerConfig",
    "DEFAULT_PLANNER_CONFIG",
    "QueryPlan",
    "plan_query",
    "plan_query_cached",
    "plan_cache_info",
    "clear_plan_cache",
    "EvalService",
    "ExecutorConfig",
]
