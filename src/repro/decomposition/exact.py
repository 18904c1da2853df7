"""Exact treewidth and pathwidth.

The entry points (:func:`exact_treewidth`, :func:`exact_pathwidth` and
their ordering/layout variants) delegate to the branch-and-bound engines
of :mod:`repro.decomposition.width_engine`, which handle the
13–25-element window the seed subset DPs could not reach.  The seed DPs
are kept with the tests (``tests/oracles/seeds.py``), which gate the
engines against them.
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

from repro.graphlib.graph import Graph

Vertex = Hashable


def exact_treewidth(graph: Graph) -> int:
    """Return the exact treewidth of ``graph`` (branch-and-bound engine)."""
    from repro.decomposition.width_engine import engine_treewidth

    return engine_treewidth(graph)


def exact_treewidth_ordering(graph: Graph) -> Tuple[int, List[Vertex]]:
    """Return ``(treewidth, optimal elimination ordering)``."""
    from repro.decomposition.width_engine import engine_treewidth_ordering

    return engine_treewidth_ordering(graph)


def exact_pathwidth(graph: Graph) -> int:
    """Return the exact pathwidth of ``graph`` (branch-and-bound engine)."""
    from repro.decomposition.width_engine import engine_pathwidth

    return engine_pathwidth(graph)


def exact_pathwidth_layout(graph: Graph) -> Tuple[int, List[Vertex]]:
    """Return ``(pathwidth, optimal linear layout)``.

    The layout realises the pathwidth through
    :func:`repro.decomposition.path_decomposition.path_decomposition_from_ordering`.
    """
    from repro.decomposition.width_engine import engine_pathwidth_layout

    return engine_pathwidth_layout(graph)
