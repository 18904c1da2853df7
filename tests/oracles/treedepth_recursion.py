"""The Lemma 3.3 recursion, run literally: the reference for ``TreeDepthSolver``.

This is the algorithm as the proof states it, in the space it claims.
The recursion walks an elimination forest; its live state is one
assignment of the current root path, and at every vertex it tries every
universe value of the target and accepts it when the root-path assignment
is a partial homomorphism — which :func:`is_partial_homomorphism` decides
by building the substructure induced by the root path and checking every
atom in it.  Nothing is indexed or cached, so the space is
``O(height · log |B|)`` beyond the input.

:class:`repro.homomorphism.treedepth_solver.TreeDepthSolver` compiles the
same recursion (children lists, atoms attached to their deepest vertex,
hash-index candidates); the tests require it to agree with these two
functions.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.decomposition.treedepth import EliminationForest
from repro.exceptions import VocabularyError
from repro.homomorphism.backtracking import is_partial_homomorphism
from repro.homomorphism.obstructions import nullary_obstruction
from repro.structures.structure import Structure

Element = Hashable


def _check_arities(source: Structure, target: Structure) -> None:
    """Refuse a target that lacks a source symbol or gives it another arity."""
    for symbol in source.vocabulary:
        if target.vocabulary.arity(symbol.name) != symbol.arity:
            raise VocabularyError(
                f"arity mismatch for {symbol.name!r} between source and target"
            )


def exists(source: Structure, forest: EliminationForest, target: Structure) -> bool:
    """Decide ``hom(source → target)`` along ``forest`` (which must witness ``source``)."""
    _check_arities(source, target)
    # The recursion walks Gaifman-graph components, so an arity-0 atom
    # (which touches no element) must be checked before it starts.
    if nullary_obstruction(source, target):
        return False
    return all(
        _component_satisfiable(source, forest, root, target) for root in forest.roots
    )


def _component_satisfiable(
    source: Structure, forest: EliminationForest, root: Element, target: Structure
) -> bool:
    for value in sorted(target.universe, key=repr):
        if _satisfiable(source, forest, root, {root: value}, target):
            return True
    return False


def _satisfiable(
    source: Structure,
    forest: EliminationForest,
    vertex: Element,
    assignment: Dict[Element, Element],
    target: Structure,
) -> bool:
    """Check φ_vertex under ``assignment`` of the root path (Lemma 3.3 recursion)."""
    if not is_partial_homomorphism(assignment, source, target):
        return False
    for child in forest.children(vertex):
        found = False
        for value in sorted(target.universe, key=repr):
            assignment[child] = value
            if _satisfiable(source, forest, child, assignment, target):
                found = True
            del assignment[child]
            if found:
                break
        if not found:
            return False
    return True


def count(source: Structure, forest: EliminationForest, target: Structure) -> int:
    """Count homomorphisms ``source → target`` along ``forest``."""
    _check_arities(source, target)
    if nullary_obstruction(source, target):
        return 0
    total = 1
    for root in forest.roots:
        component_total = 0
        for value in sorted(target.universe, key=repr):
            component_total += _count_below(source, forest, root, {root: value}, target)
        total *= component_total
        if total == 0:
            return 0
    return total


def _count_below(
    source: Structure,
    forest: EliminationForest,
    vertex: Element,
    assignment: Dict[Element, Element],
    target: Structure,
) -> int:
    """Count extensions of ``assignment`` to the subtree rooted at ``vertex``.

    Mirrors the sum–product–sum recursion of the counting classification
    (Theorem 6.1, case 3).
    """
    if not is_partial_homomorphism(assignment, source, target):
        return 0
    product = 1
    for child in forest.children(vertex):
        child_total = 0
        for value in sorted(target.universe, key=repr):
            assignment[child] = value
            child_total += _count_below(source, forest, child, assignment, target)
            del assignment[child]
        product *= child_total
        if product == 0:
            return 0
    return product
