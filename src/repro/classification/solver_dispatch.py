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
bounded degrees; counting (:func:`repro.counting.count_hom`) runs it
too.  The path sweep and the tree-decomposition DP are kept with the
tests, as the oracle the engine is checked against.

:func:`solve_hom` performs the dispatch per pattern structure and reports
which route was taken, so the benchmarks can attribute running time to the
degrees.

Route and answer depend on the core alone: :func:`choose_degree` reads
only the core's widths, and with ``use_core`` every route decides
``hom(core(A) → B)``, which holds iff ``hom(A → B)`` does.
:func:`solve_hom`, and the reference evaluator built on it, still
dispatches once per pattern.  The executor of :mod:`repro.eval` calls
:func:`solve_with_degree` once per distinct core in each evaluation
context, and a pattern that folds to a core solved there gets that
solve's route, solver string and answer.
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
    """The width thresholds that pick a solver route for a query structure.

    The core's widths are compared against them (the family-level bounds
    a single structure stands in for): tw past its threshold is the
    W[1]-hard route, else pw past its threshold TREE, else td past its
    threshold PATH, else para-L (:func:`choose_degree`).
    """

    treedepth_threshold: int = TREEDEPTH_THRESHOLD
    pathwidth_threshold: int = PATHWIDTH_THRESHOLD
    treewidth_threshold: int = TREEWIDTH_THRESHOLD


#: The configuration the library uses when the caller supplies none.
DEFAULT_PLANNER_CONFIG = PlannerConfig()


@dataclass
class SolveResult:
    """Answer plus provenance of a dispatched homomorphism query.

    ``degree`` records the *route taken* — which of the four solver
    machineries ran.  Under the service's config it equals the Theorem
    3.1 classification of the query; a caller of :func:`solve_with_degree`
    may force another route, and :meth:`classification` reports the
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
    executor of :mod:`repro.eval` can run the route its planner chose
    while reporting the same provenance strings; it runs it once per
    distinct core.
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
