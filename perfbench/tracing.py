"""Spans around the program's layer entry points, recorded from outside.

:class:`Tracer` rebinds each entry point below to a timing wrapper — in
the calling process only — and restores the originals on
:meth:`Tracer.uninstall`.  A span is ``(layer, start, end, parent,
batch)``: ``parent`` is the index of the enclosing span (-1 at top
level) and ``batch`` the benchmark batch it ran in.  A layer's self time
is its spans' durations minus the parts their child spans cover.

Spans are kept in the calling process only: the rounds' pools are forked
while no wrapper is installed, and pool workers' work shows only through
the service's own counters.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.classification.classifier as classifier_module
import repro.eval.executor as executor_module
import repro.eval.planner as planner_module
from repro.classification.degrees import ComplexityDegree
from repro.cq.database import Database
from repro.cq.query import ConjunctiveQuery
from repro.eval.executor import EvalService
from repro.eval.stats import DatabaseStatistics
from repro.service.frontend import QueryService
from repro.service.store import TelemetrySink

#: The layer of each solver route, by the degree ``solve_with_degree`` gets.
ROUTE_LAYERS = {
    ComplexityDegree.PARA_L: "solve.para_l",
    ComplexityDegree.PATH_COMPLETE: "solve.path",
    ComplexityDegree.TREE_COMPLETE: "solve.tree",
    ComplexityDegree.W1_HARD: "solve.w1",
}

#: ``(owner, attribute, layer)`` of every wrapped entry point.  The
#: ``solve_with_degree`` layer (None here) is picked per call from its
#: degree argument.
ENTRY_POINTS: Tuple[Tuple[Any, str, Optional[str]], ...] = (
    (ConjunctiveQuery, "canonical_structure", "cq.canonical"),
    (Database, "to_structure", "cq.to_structure"),
    (DatabaseStatistics, "of", "eval.stats"),
    (classifier_module, "compute_core", "classification.core"),
    (classifier_module, "width_profile_report_with_forest", "classification.widths"),
    (planner_module, "plan_query", "eval.planner"),
    (executor_module, "solve_with_degree", None),
    (EvalService, "evaluate", "eval.executor"),
    (TelemetrySink, "record", "service.telemetry"),
    (TelemetrySink, "drain", "service.telemetry"),
    (QueryService, "flush", "service.frontend"),
)

#: The layers reported as metrics.  ``solve.w1`` is traced but not
#: reported: no workload routes a query to W[1], so its figures would be
#: zero on every run.
LAYERS = (
    "cq.canonical",
    "cq.to_structure",
    "eval.stats",
    "classification.core",
    "classification.widths",
    "eval.planner",
    "solve.para_l",
    "solve.path",
    "solve.tree",
    "eval.executor",
    "service.telemetry",
    "service.frontend",
)

Span = Tuple[str, float, float, int, int]

_MARK = "__perfbench_wrapper__"


def _route_layer(args: tuple, kwargs: dict) -> str:
    degree = kwargs["degree"] if "degree" in kwargs else args[2]
    return ROUTE_LAYERS[degree]


class Tracer:
    """Records spans of the wrapped entry points while installed."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        #: The benchmark batch the next spans belong to (set by the caller;
        #: -1 during set-up).
        self.batch = -1
        self.origin = time.perf_counter()
        self._stack: List[int] = []
        self._originals: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for owner, attribute, layer in ENTRY_POINTS:
            raw = vars(owner)[attribute]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(raw.__func__, layer))
            else:
                wrapped = self._wrap(raw, layer)
            setattr(owner, attribute, wrapped)
            self._originals.append((owner, attribute, raw))

    def uninstall(self) -> None:
        for owner, attribute, raw in reversed(self._originals):
            setattr(owner, attribute, raw)
        self._originals = []

    def _wrap(self, function: Callable, layer: Optional[str]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            name = layer if layer is not None else _route_layer(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.batch)

        setattr(wrapper, _MARK, True)
        return wrapper

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: span count and self seconds."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for index, (name, start, end, _, _) in enumerate(spans):
            entry = table.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered[index]
        return table

    def top_level_seconds(self) -> float:
        """Seconds covered by spans with no enclosing span."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write_spans(self, path: str) -> None:
        """Write the spans as JSON lines, times in seconds since the tracer was made."""
        origin = self.origin
        with open(path, "w") as handle:
            for name, start, end, parent, batch in self.spans:
                handle.write(
                    json.dumps([name, round(start - origin, 7), round(end - origin, 7), parent, batch])
                )
                handle.write("\n")


def installed_wrappers() -> List[str]:
    """The entry points currently bound to a perfbench wrapper (should be none)."""
    found = []
    for owner, attribute, _ in ENTRY_POINTS:
        raw = vars(owner)[attribute]
        function = raw.__func__ if isinstance(raw, classmethod) else raw
        if getattr(function, _MARK, False):
            found.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
    return found
