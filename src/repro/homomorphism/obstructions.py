"""Vocabulary-level homomorphism obstructions shared by every solver.

A homomorphism ``h : A → B`` maps every atom of ``A`` to an atom of
``B``.  For a *nullary* relation symbol ``R`` (arity 0) the only possible
atom is ``R()``, and ``h`` has nothing to say about it: ``R() ∈ A``
forces ``R() ∈ B`` outright, before any search over element images
starts.  Element-driven solvers (CSP backtracking, the tree-depth
recursion, and the decomposition DP kept with the tests) all build their
state from positive-arity atoms, so each of them must apply this check
separately — differential fuzzing once caught the backtracking solver
skipping it and disagreeing with the join engine on vocabularies with
arity-0 symbols.  This module is the single shared implementation.
"""

from __future__ import annotations

from repro.structures.structure import Structure


def nullary_obstruction(source: Structure, target: Structure) -> bool:
    """Return True when a nullary atom of the source fails in the target.

    When this holds there is no homomorphism ``source → target`` at all;
    when it does not hold, nullary symbols are irrelevant to the search
    and the positive-arity atoms decide the answer.
    """
    for symbol in source.vocabulary:
        if symbol.arity == 0 and source.relation(symbol.name):
            if not target.relation(symbol.name):
                return True
    return False
