"""Cores and homomorphic equivalence (Section 2.1).

A structure is a *core* when all of its endomorphisms are embeddings.
Every structure has, up to isomorphism, a unique core: a weak substructure
to which it maps homomorphically and which is itself a core.  The
Classification Theorem is stated in terms of the width measures of
``core(A)``, so the classifier needs an executable core computation.

The public API (:func:`core`, :func:`is_core`, :func:`core_with_witness`,
:func:`find_proper_retraction`) is backed by the rigidity-certified
engine of :mod:`repro.homomorphism.core_engine`: fold elimination,
degree/AC rigidity certificates, and a single non-surjective-endomorphism
search.  The seed algorithm — one fresh backtracking search
``hom(A, A − {a})`` per element, restarted after every retraction — is
kept with the tests (``tests/oracles/seeds.py``), and the equivalence
fuzz harness checks engine cores against seed cores up to isomorphism.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.homomorphism.backtracking import HomomorphismProblem, has_homomorphism
from repro.homomorphism.core_engine import (
    CoreComputation,
    compute_core,
    proper_retraction,
)
from repro.structures.structure import Structure

Element = Hashable


def find_proper_retraction(structure: Structure) -> Optional[Dict[Element, Element]]:
    """Return an endomorphism with a proper image, or None when none exists.

    Engine-backed: a fold (dominated-element elimination) is returned
    without any search; otherwise a rigidity certificate may prove that
    no proper retraction exists; otherwise one backtracking search for a
    non-surjective endomorphism decides.
    """
    return proper_retraction(structure)


def is_core(structure: Structure) -> bool:
    """Return True when the structure is a core (all endomorphisms are embeddings)."""
    return proper_retraction(structure) is None


def core(structure: Structure) -> Structure:
    """Return the core of the structure (an induced substructure of it).

    The result is a weak substructure of the input that is a core and to
    which the input maps homomorphically; it is unique up to isomorphism.
    """
    return compute_core(structure).core


def core_with_witness(structure: Structure) -> tuple[Structure, Dict[Element, Element]]:
    """Return ``(core, retraction)`` where ``retraction`` maps the structure onto its core."""
    computation: CoreComputation = compute_core(structure)
    return computation.core, dict(computation.retraction)


def homomorphically_equivalent(left: Structure, right: Structure) -> bool:
    """Return True when there are homomorphisms in both directions."""
    return has_homomorphism(left, right) and has_homomorphism(right, left)


def count_automorphisms(structure: Structure) -> int:
    """Return the number of bijective endomorphisms of the structure.

    Used by the counting Turing reduction (Lemma 6.2), where the number of
    homomorphisms from ``A*`` to ``B`` equals ``M_h / S`` with ``S`` the
    number of bijective homomorphisms from ``A`` to ``A``.  For a core,
    every endomorphism is an embedding hence (by finiteness) bijective, so
    this counts automorphisms.
    """
    problem = HomomorphismProblem(structure, structure, injective=True)
    return sum(
        1
        for mapping in problem.solutions()
        if set(mapping.values()) == set(structure.universe)
    )
