"""Theorem 6.1: the fine classification of counting homomorphisms.

For a bounded-arity class ``A`` of bounded treewidth the *counting*
problem ``p-#HOM(A)`` sits in one of three degrees determined by the
pathwidth and tree depth of the structures themselves (cores no longer
help: counting is not invariant under homomorphic equivalence):

* unbounded pathwidth  — interreducible with ``p-#HOM(T*)``,
* bounded pathwidth, unbounded tree depth — interreducible with
  ``p-#HOM(P*)``,
* bounded tree depth   — computable in para-L (the sum–product–sum
  recursion along an elimination forest).

This module exposes the degree decision (reusing the width machinery, but
on the structures rather than their cores) and the counting entry point.
:func:`count_hom` counts on the forest engine
(:class:`~repro.homomorphism.treedepth_solver.TreeDepthSolver`), whose
recursion memoises each vertex's subtree on its boundary: run along the
pattern's min-fill elimination tree it is the sum–product–sum recursion of
case 3 and, read as a tree decomposition with one bag per vertex and its
boundary, the counting DP of the other two bounded cases.  A pattern
whose min-fill tree is wider than :data:`COUNT_TREEWIDTH_THRESHOLD` is
counted by brute force.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Tuple

from repro.classification.classifier import looks_bounded
from repro.classification.degrees import ComplexityDegree, degree_from_width_bounds
from repro.decomposition.heuristics import min_fill_elimination_forest
from repro.decomposition.width import width_profile
from repro.homomorphism.backtracking import count_homomorphisms
from repro.homomorphism.treedepth_solver import TreeDepthSolver
from repro.structures.gaifman import gaifman_graph
from repro.structures.structure import Structure

#: Per-structure thresholds standing in for family-level bounds (cf. the
#: decision thresholds in repro.classification.solver_dispatch).
COUNT_TREEDEPTH_THRESHOLD = 4
COUNT_PATHWIDTH_THRESHOLD = 3
COUNT_TREEWIDTH_THRESHOLD = 4

#: ``CountResult.solver`` of a count made by the forest engine.
FOREST_COUNT_SOLVER = "memoised forest recursion, min-fill elimination tree"
#: ``CountResult.solver`` of a count made by brute force.
BRUTE_FORCE_COUNT_SOLVER = (
    f"brute force (min-fill elimination tree wider than {COUNT_TREEWIDTH_THRESHOLD})"
)


@dataclass
class CountResult:
    """A homomorphism count, the algorithm that produced it, and the
    pattern's Theorem 6.1 degree and widths.

    The degree and the widths are computed from ``pattern`` when one of
    them is first read, so a caller that reads only ``count`` starts no
    width engine.
    """

    count: int
    solver: str
    pattern: Structure = field(repr=False)

    @cached_property
    def _widths(self) -> Tuple[int, int, int]:
        return width_profile(self.pattern)

    @property
    def treewidth(self) -> int:
        """The pattern's treewidth."""
        return self._widths[0]

    @property
    def pathwidth(self) -> int:
        """The pattern's pathwidth."""
        return self._widths[1]

    @property
    def treedepth(self) -> int:
        """The pattern's tree depth."""
        return self._widths[2]

    @property
    def degree(self) -> ComplexityDegree:
        """The pattern's Theorem 6.1 degree, read off its own widths."""
        tw, pw, td = self._widths
        return degree_from_width_bounds(
            tw <= COUNT_TREEWIDTH_THRESHOLD,
            pw <= COUNT_PATHWIDTH_THRESHOLD,
            td <= COUNT_TREEDEPTH_THRESHOLD,
        )


def counting_degree_for_family(
    treewidths: Sequence[int], pathwidths: Sequence[int], treedepths: Sequence[int]
) -> ComplexityDegree:
    """Apply Theorem 6.1 to sampled width series of a family (no cores!)."""
    return degree_from_width_bounds(
        looks_bounded(list(treewidths)),
        looks_bounded(list(pathwidths)),
        looks_bounded(list(treedepths)),
    )


def count_hom(pattern: Structure, target: Structure) -> CountResult:
    """Count the homomorphisms from ``pattern`` to ``target``.

    The forest engine counts along the pattern's own min-fill elimination
    tree — never its core: Theorem 6.1 classifies by the structures, and
    counts change under homomorphic equivalence — whenever that tree's
    largest boundary is at most :data:`COUNT_TREEWIDTH_THRESHOLD`;
    otherwise the count is brute force.
    """
    forest = min_fill_elimination_forest(gaifman_graph(pattern))
    solver = TreeDepthSolver(pattern, forest=forest, use_core=False)
    if solver.max_boundary <= COUNT_TREEWIDTH_THRESHOLD:
        return CountResult(solver.count(target), FOREST_COUNT_SOLVER, pattern)
    return CountResult(count_homomorphisms(pattern, target), BRUTE_FORCE_COUNT_SOLVER, pattern)
