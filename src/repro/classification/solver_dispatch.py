"""Degree-aware homomorphism solving.

Once a query (structure) has been classified, the degree follows from the
Classification Theorem, and it picks the machinery:

* bounded tree depth  → the Lemma 3.3 recursion (:class:`TreeDepthSolver`)
  along the elimination forest that certified the core's tree depth,
* bounded pathwidth or treewidth → the same recursion along a min-fill
  elimination tree of the core,
* otherwise           → the generic backtracking solver (the W[1]-hard
  regime, where nothing better is expected).

The recursion memoises each subtree on its boundary (the ancestors
adjacent to it).  That memo is the bag-keyed table of the Theorem 4.6
sweep and of Lemma 3.4's dynamic programming, and on a min-fill tree no
boundary exceeds the ordering's width, so one engine serves all three
bounded degrees.  The path sweep and the tree-decomposition DP stay in
:mod:`repro.homomorphism.join_engine` for counting and direct callers.

:func:`solve_hom` performs the dispatch per pattern structure and reports
which route was taken, so the benchmarks can attribute running time to the
degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.classification.classifier import StructureProfile, classify_structure
from repro.classification.degrees import ComplexityDegree
from repro.decomposition.heuristics import min_fill_elimination_forest
from repro.homomorphism.backtracking import has_homomorphism
from repro.homomorphism.treedepth_solver import TreeDepthSolver
from repro.structures.gaifman import gaifman_graph
from repro.structures.structure import Structure

#: Default width thresholds used to pick a solver for a *single* structure.
#: For a single structure every measure is trivially "bounded"; the
#: thresholds express which algorithm is worthwhile, mirroring how a
#: class-level bound would be used.  They are the defaults of
#: :class:`PlannerConfig`; kept as module constants for backwards
#: compatibility.
TREEDEPTH_THRESHOLD = 4
PATHWIDTH_THRESHOLD = 3
TREEWIDTH_THRESHOLD = 4


@dataclass(frozen=True)
class PlannerConfig:
    """How to pick a solver route for a query structure.

    ``mode="threshold"`` reproduces the historical dispatch: compare the
    core widths against the three thresholds (the family-level bounds a
    single structure stands in for).  ``mode="cost"`` asks the cost-based
    planner of :mod:`repro.eval.planner` to estimate the work of every
    route from database statistics and pick the cheapest; the threshold
    fields then act as the tie-break precedence, not as a gate.  The cost
    weights calibrate the per-route models against each other (they are
    multiplicative fudge factors on the estimated number of elementary
    extension steps).
    """

    treedepth_threshold: int = TREEDEPTH_THRESHOLD
    pathwidth_threshold: int = PATHWIDTH_THRESHOLD
    treewidth_threshold: int = TREEWIDTH_THRESHOLD
    mode: str = "threshold"
    #: Multiplicative weights of the per-route cost models (see
    #: :func:`repro.eval.planner.plan_query`).  The decomposition engines
    #: pay index-build and table bookkeeping overhead per bag, the
    #: treedepth recursion and the backtracking solver run leaner loops.
    treedepth_cost_weight: float = 1.0
    path_cost_weight: float = 2.0
    tree_cost_weight: float = 3.0
    backtracking_cost_weight: float = 0.5
    #: Branching multiplier applied when the core's rigidity certificate
    #: names a *symmetric* family ("clique", "odd-cycle"): those cores
    #: carry a vertex-transitive automorphism group, so a first-witness
    #: search collapses symmetric subtrees and the effective branching is
    #: below the fan-out statistic.  Identity-only certificates
    #: ("ac-rigid", "singleton") and search-proven cores have no such
    #: slack and keep the full estimate.  1.0 disables the adjustment.
    symmetry_discount: float = 0.85

    def __post_init__(self) -> None:
        if self.mode not in ("threshold", "cost"):
            raise ValueError(f"unknown planner mode {self.mode!r}")
        if not 0.0 < self.symmetry_discount <= 1.0:
            raise ValueError("symmetry_discount must be in (0, 1]")

    def to_dict(self) -> dict:
        """A JSON-serialisable snapshot (see :meth:`from_dict`).

        The calibration layer (:mod:`repro.service.telemetry`) persists
        fitted configurations across service restarts through this pair.
        """
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PlannerConfig":
        """Rebuild a config saved by :meth:`to_dict` (unknown keys rejected)."""
        return cls(**data)


#: The configuration the library uses when the caller supplies none —
#: byte-identical to the historical threshold dispatch.
DEFAULT_PLANNER_CONFIG = PlannerConfig()


@dataclass(frozen=True)
class SlimSolveResult:
    """The wire-size-conscious projection of a :class:`SolveResult`.

    Carries the answer and the provenance scalars (solver string, route
    degree, core certificate tag) but none of the embedded structures —
    no pattern, no core, no elimination forest.  Pool workers ship these
    back when the executor runs with ``slim_results=True``, cutting IPC
    for large batches to a few dozen bytes per query.
    """

    answer: bool
    solver: str
    degree: ComplexityDegree
    core_certificate: Optional[str] = None


@dataclass
class SolveResult:
    """Answer plus provenance of a dispatched homomorphism query.

    ``degree`` records the *route taken* — which of the four solver
    machineries ran.  Under the default threshold dispatch this equals
    the Theorem 3.1 classification of the query, but a cost-mode planner
    may force a different route (e.g. backtracking on a para-L query
    because the database is tiny); use :meth:`classification` for the
    width-derived degree regardless of routing.
    """

    answer: bool
    solver: str
    degree: ComplexityDegree
    profile: StructureProfile

    @property
    def core_certificate(self) -> Optional[str]:
        """How the core engine proved the query core rigid (None = search).

        Provenance from the rigidity-certified core computation behind
        the profile; lets benchmarks attribute classification time to
        certified vs searched cores.
        """
        return self.profile.core_certificate

    def classification(
        self, config: Optional[PlannerConfig] = None
    ) -> ComplexityDegree:
        """The threshold classification of the query's core widths."""
        return choose_degree(self.profile, config)

    def slim(self) -> SlimSolveResult:
        """Project to the IPC-friendly result (drops the profile)."""
        return SlimSolveResult(
            answer=self.answer,
            solver=self.solver,
            degree=self.degree,
            core_certificate=self.profile.core_certificate,
        )


def choose_degree(
    profile: StructureProfile, config: Optional[PlannerConfig] = None
) -> ComplexityDegree:
    """Map a single structure's core profile to the degree its *family* would have.

    A single structure always has bounded widths; the (configurable)
    thresholds stand in for the family-level bounds (e.g. "the core tree
    depth stays below ``config.treedepth_threshold`` across the family").
    tw > threshold is W[1]-hard, else pw > threshold TREE, else
    td > threshold PATH, else para-L.  Widths the profile has not computed
    yet are decided by capped searches
    (:meth:`~repro.classification.classifier.StructureProfile.threshold_degree`).
    """
    if config is None:
        config = DEFAULT_PLANNER_CONFIG
    return profile.threshold_degree(
        config.treedepth_threshold, config.pathwidth_threshold, config.treewidth_threshold
    )


#: The PATH and TREE routes' solver strings: one engine, named with the
#: theorem behind each degree's upper bound.
_FOREST_SOLVERS = {
    ComplexityDegree.PATH_COMPLETE: "memoised forest recursion, min-fill elimination tree (Theorem 4.6)",
    ComplexityDegree.TREE_COMPLETE: "memoised forest recursion, min-fill elimination tree (Lemma 3.4)",
}


def solve_with_degree(
    pattern: Structure,
    target: Structure,
    degree: ComplexityDegree,
    profile: StructureProfile,
    use_core: bool = True,
) -> SolveResult:
    """Decide ``hom(pattern → target)`` along an already-chosen route.

    Every route is correct for every structure (a decomposition of some
    width always exists); the degree only selects which machinery runs.
    This is the dispatch body of :func:`solve_hom`, exposed so the
    cost-based planner of :mod:`repro.eval` can force a route while
    reporting the same provenance strings.
    """
    effective = profile.core if use_core else pattern

    if degree is ComplexityDegree.PARA_L:
        # The profile already carries an elimination forest witnessing the
        # core's tree depth; handing it over skips a per-solve recomputation
        # (it only fits when the recursion runs on the core itself).
        forest = profile.core_elimination_forest if use_core else None
        answer = TreeDepthSolver(effective, forest=forest, use_core=False).exists(target)
        solver = "treedepth-recursion (Lemma 3.3)"
    elif degree in (ComplexityDegree.PATH_COMPLETE, ComplexityDegree.TREE_COMPLETE):
        forest = min_fill_elimination_forest(gaifman_graph(effective))
        answer = TreeDepthSolver(effective, forest=forest, use_core=False).exists(target)
        solver = _FOREST_SOLVERS[degree]
    else:
        answer = has_homomorphism(effective, target)
        solver = "generic backtracking (W[1]-hard regime)"
    return SolveResult(answer=answer, solver=solver, degree=degree, profile=profile)


def solve_hom(
    pattern: Structure,
    target: Structure,
    profile: Optional[StructureProfile] = None,
    use_core: bool = True,
    config: Optional[PlannerConfig] = None,
) -> SolveResult:
    """Decide ``hom(pattern → target)`` with the degree-appropriate algorithm."""
    if profile is None:
        profile = classify_structure(pattern)
    degree = choose_degree(profile, config)
    return solve_with_degree(pattern, target, degree, profile, use_core=use_core)
