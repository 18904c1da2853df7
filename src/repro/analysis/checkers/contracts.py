"""Metrics/API contract rules.

Three layering contracts the repo established and nothing enforced:

* metrics are created through ``MetricsRegistry``'s get-or-create
  methods so re-registration is idempotent and every metric appears in
  one scrape — never by direct constructor outside the metrics module;
* ``solve_with_degree`` is the dispatch boundary; only the dispatcher
  itself and the executor's evaluation context may call it — everything
  else goes through ``EvalService`` / ``QueryService`` so the stores and
  telemetry apply;
* service-layer code talks to manager proxies only through the
  resilience wrapper (``FaultPolicy.run`` / the store's ``_guard``),
  with the raw proxy operation quarantined in a ``*_raw`` function — a
  bare proxy call bypasses retries, the circuit breaker and degraded
  mode, so one dead manager turns into an unhandled ``ConnectionError``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.checkers.proxy_races import _Taint
from repro.analysis.findings import Finding
from repro.analysis.registry import register
from repro.analysis.scopes import ModuleInfo, dotted_name

_METRIC_CLASSES = {"Counter", "Gauge", "Histogram"}

#: Modules allowed to call the dispatch entrypoint directly.
_DISPATCH_ALLOWLIST = {
    "classification/solver_dispatch.py",
    "eval/executor.py",
}


@register
class DirectMetricConstructor:
    rule = "API001"
    severity = "warning"
    description = (
        "metric built by direct constructor; use MetricsRegistry."
        "counter/gauge/histogram so registration is idempotent"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.rel_path.endswith("service/metrics.py"):
            return
        metric_imports = {
            local
            for local, origin in module.imported_names.items()
            if local in _METRIC_CLASSES and origin.rsplit(".", 1)[0].endswith("metrics")
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func) or ""
            parts = name.split(".")
            direct = parts[-1] in _METRIC_CLASSES and (
                parts[0] in metric_imports
                or (len(parts) > 1 and "metrics" in parts[-2])
            )
            if direct:
                yield Finding(
                    self.rule, self.severity, module.rel_path, node.lineno,
                    f"'{name}(…)' bypasses the registry; a second "
                    "registration of the same name will collide instead of "
                    "reusing the metric",
                )


@register
class DispatchBypass:
    rule = "API002"
    severity = "warning"
    description = (
        "solve_with_degree called outside the dispatch allowlist; route "
        "through EvalService/QueryService instead"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if any(module.rel_path.endswith(allowed) for allowed in _DISPATCH_ALLOWLIST):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = (dotted_name(node.func) or "").split(".")[-1]
            if name == "solve_with_degree":
                yield Finding(
                    self.rule, self.severity, module.rel_path, node.lineno,
                    "direct solve_with_degree call bypasses the service "
                    "dispatch (stores, telemetry)",
                )


#: Proxy operations that must route through the resilience wrapper.
#: Subscript reads/writes/deletes stay out of scope — the PRX rules own
#: atomicity, this rule owns *availability* of the composed operations.
_GUARDED_PROXY_OPS = {
    "get", "setdefault", "pop", "append", "extend", "update", "items",
    "keys", "values", "clear", "popitem", "remove",
}

#: Builtins whose call performs a full proxy scan (one IPC round trip
#: that fails exactly like any other when the manager is gone).
_GUARDED_PROXY_BUILTINS = {"list", "dict", "len"}


@register
class UnwrappedProxyOperation:
    rule = "API004"
    severity = "warning"
    description = (
        "manager-proxy operation in service/ outside the resilience "
        "wrapper; quarantine it in a *_raw function run via "
        "FaultPolicy.run / the store's _guard"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if "service/" not in module.rel_path:
            return
        if module.rel_path.endswith("service/resilience.py"):
            # The wrapper itself is the one place raw ops are expected.
            return
        taint = _Taint(module)
        if not taint.attrs and not taint.names:
            return
        exempt = self._exempt_nodes(module.tree)
        for node in ast.walk(module.tree):
            if id(node) in exempt or not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute):
                if node.func.attr in _GUARDED_PROXY_OPS and taint.is_tainted(
                    node.func.value
                ):
                    yield Finding(
                        self.rule, self.severity, module.rel_path, node.lineno,
                        f"'.{node.func.attr}()' on proxy "
                        f"'{taint.render(node.func.value)}' bypasses the "
                        "fault policy — no retry, breaker, or degraded "
                        "fallback when the manager dies",
                    )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in _GUARDED_PROXY_BUILTINS
                and node.args
                and taint.is_tainted(node.args[0])
            ):
                yield Finding(
                    self.rule, self.severity, module.rel_path, node.lineno,
                    f"'{node.func.id}(…)' over proxy "
                    f"'{taint.render(node.args[0])}' bypasses the fault "
                    "policy — wrap the scan in a *_raw function",
                )

    def _exempt_nodes(self, tree: ast.AST) -> Set[int]:
        """Node ids living inside a resilience-wrapped quarantine zone.

        Two shapes qualify: a function whose name ends with ``_raw``
        (the store/monitor convention — the def is only ever invoked
        through ``_guard`` / ``FaultPolicy.run``), and a lambda or def
        passed directly as an argument to a ``*guard*`` or ``*.run``
        call.
        """
        roots = []
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.endswith("_raw")
            ):
                roots.append(node)
            elif isinstance(node, ast.Call):
                callee = dotted_name(node.func) or ""
                short = callee.split(".")[-1]
                if "guard" in short or short == "run":
                    roots.extend(
                        arg for arg in node.args if isinstance(arg, ast.Lambda)
                    )
        exempt: Set[int] = set()
        for root in roots:
            exempt.update(id(inner) for inner in ast.walk(root))
        return exempt
