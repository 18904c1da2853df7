"""The seed algorithms the engines replaced: cores, treewidth, pathwidth, tree depth.

Each function is the first implementation the library shipped, kept
unchanged so the tests and the benchmarks can compare the engines
against it:

* cores — one fresh backtracking search ``hom(A, A − {a})`` per element,
  restarted after every retraction (the engine is
  :mod:`repro.homomorphism.core_engine`);
* treewidth and pathwidth — the ``O*(2^n)`` subset dynamic programs (the
  engines are :mod:`repro.decomposition.width_engine`):

  - **pathwidth** uses the vertex-separation formulation: a layout is
    built one vertex at a time and the state is the set of already-placed
    vertices; the cost of a state is the minimum over extensions of the
    maximum boundary size;
  - **treewidth** uses the elimination-ordering formulation (treewidth
    equals the minimum over orderings of the maximum "later
    neighbourhood" in the fill-in graph), again with a subset DP where
    ``Q(S, v)`` — the set of vertices reachable from ``v`` through ``S``
    — gives the bag size;

* tree depth — the subset recursion ``td(G) = 1 + min_v td(G − v)`` on a
  connected graph (the engine is
  :mod:`repro.decomposition.treedepth_engine`).

All of them are exponential in ways the engines are not: don't call the
core seed past ~17 elements, the width seeds past ~15 or the tree-depth
seed past ~13.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.decomposition.path_decomposition import path_decomposition_from_ordering
from repro.decomposition.treedepth import EliminationForest
from repro.exceptions import DecompositionError
from repro.graphlib.components import connected_components
from repro.graphlib.graph import Graph
from repro.homomorphism.backtracking import find_homomorphism
from repro.structures.structure import Structure

Element = Hashable
Vertex = Hashable


# ---------------------------------------------------------------------------
# Cores
# ---------------------------------------------------------------------------

def legacy_find_proper_retraction(
    structure: Structure,
) -> Optional[Dict[Element, Element]]:
    """The seed retraction search: one ``hom(A, A − {a})`` run per element.

    The search tries, for each element ``a``, to find a homomorphism from
    the structure into the substructure induced by ``universe − {a}``; any
    such homomorphism (viewed into the original structure) has a proper
    image.
    """
    if len(structure) == 1:
        return None
    for element in sorted(structure.universe, key=repr):
        smaller = structure.induced_substructure(structure.universe - {element})
        mapping = find_homomorphism(structure, smaller)
        if mapping is not None:
            return mapping
    return None


def legacy_is_core(structure: Structure) -> bool:
    """The seed core test (per-element retraction searches)."""
    return legacy_find_proper_retraction(structure) is None


def legacy_core(structure: Structure) -> Structure:
    """The seed core computation: restart the retraction search per round."""
    current = structure
    while True:
        retraction = legacy_find_proper_retraction(current)
        if retraction is None:
            return current
        image = frozenset(retraction.values())
        current = current.induced_substructure(image)


def legacy_core_with_witness(
    structure: Structure,
) -> tuple[Structure, Dict[Element, Element]]:
    """The seed witnessed core computation (per-element retraction searches)."""
    current = structure
    composed: Dict[Element, Element] = {a: a for a in structure.universe}
    while True:
        retraction = legacy_find_proper_retraction(current)
        if retraction is None:
            return current, composed
        image = frozenset(retraction.values())
        current = current.induced_substructure(image)
        composed = {a: retraction[composed[a]] for a in composed}


# ---------------------------------------------------------------------------
# Treewidth and pathwidth
# ---------------------------------------------------------------------------

def _reachable_through(
    graph: Graph, source: Vertex, allowed: FrozenSet[Vertex]
) -> FrozenSet[Vertex]:
    """Return vertices outside ``allowed`` adjacent to the component of
    ``source`` inside ``allowed ∪ {source}``.

    This is the quantity Q(S, v) from the Bodlaender et al. treewidth DP:
    the neighbours of ``v`` in the fill-in graph after eliminating ``S``.
    """
    seen = {source}
    stack = [source]
    boundary = set()
    while stack:
        current = stack.pop()
        for neighbour in graph.neighbors(current):
            if neighbour in seen:
                continue
            if neighbour in allowed:
                seen.add(neighbour)
                stack.append(neighbour)
            else:
                boundary.add(neighbour)
    return frozenset(boundary)


def legacy_exact_treewidth(graph: Graph) -> int:
    """Return the exact treewidth of ``graph`` (O*(2^n) subset DP)."""
    n = len(graph)
    if n == 0:
        raise DecompositionError("treewidth of the empty graph is undefined")
    if graph.number_of_edges() == 0:
        return 0
    vertices = sorted(graph.vertices, key=repr)

    @lru_cache(maxsize=None)
    def tw(eliminated: FrozenSet[Vertex]) -> int:
        """Minimum over orderings of S of the max later-neighbourhood size,
        considering only the vertices in ``eliminated`` as already eliminated."""
        if len(eliminated) == n:
            return -1  # no more vertices to place; width contribution vacuous
        best = n  # upper bound
        for vertex in vertices:
            if vertex in eliminated:
                continue
            bag_minus_one = len(_reachable_through(graph, vertex, eliminated))
            rest = tw(eliminated | {vertex})
            best = min(best, max(bag_minus_one, rest))
        return best

    result = tw(frozenset())
    tw.cache_clear()
    return result


def legacy_exact_treewidth_ordering(graph: Graph) -> Tuple[int, List[Vertex]]:
    """Return ``(treewidth, optimal elimination ordering)`` via the seed DP."""
    n = len(graph)
    if n == 0:
        raise DecompositionError("treewidth of the empty graph is undefined")
    vertices = sorted(graph.vertices, key=repr)

    memo: Dict[FrozenSet[Vertex], Tuple[int, Optional[Vertex]]] = {}

    def tw(eliminated: FrozenSet[Vertex]) -> Tuple[int, Optional[Vertex]]:
        if eliminated in memo:
            return memo[eliminated]
        if len(eliminated) == n:
            memo[eliminated] = (-1, None)
            return memo[eliminated]
        best = (n, None)
        for vertex in vertices:
            if vertex in eliminated:
                continue
            bag_minus_one = len(_reachable_through(graph, vertex, eliminated))
            rest, _ = tw(eliminated | {vertex})
            candidate = max(bag_minus_one, rest)
            if candidate < best[0]:
                best = (candidate, vertex)
        memo[eliminated] = best
        return best

    width, _ = tw(frozenset())
    ordering: List[Vertex] = []
    eliminated: FrozenSet[Vertex] = frozenset()
    while len(ordering) < n:
        _, choice = tw(eliminated)
        if choice is None:
            remaining = [v for v in vertices if v not in eliminated]
            ordering.extend(remaining)
            break
        ordering.append(choice)
        eliminated = eliminated | {choice}
    return width, ordering


def legacy_exact_pathwidth(graph: Graph) -> int:
    """Return the exact pathwidth of ``graph`` (vertex-separation subset DP)."""
    width, _ = legacy_exact_pathwidth_layout(graph)
    return width


def legacy_exact_pathwidth_layout(graph: Graph) -> Tuple[int, List[Vertex]]:
    """Return ``(pathwidth, optimal linear layout)`` via the seed DP."""
    n = len(graph)
    if n == 0:
        raise DecompositionError("pathwidth of the empty graph is undefined")
    vertices = sorted(graph.vertices, key=repr)

    def boundary_size(placed: FrozenSet[Vertex]) -> int:
        return sum(
            1
            for u in placed
            if any(w not in placed for w in graph.neighbors(u))
        )

    memo: Dict[FrozenSet[Vertex], Tuple[int, Optional[Vertex]]] = {}

    def best_cost(placed: FrozenSet[Vertex]) -> Tuple[int, Optional[Vertex]]:
        """Minimum over completions of the maximum boundary size encountered
        strictly after the prefix ``placed`` has been laid out."""
        if placed in memo:
            return memo[placed]
        if len(placed) == n:
            memo[placed] = (0, None)
            return memo[placed]
        best = (n + 1, None)
        for vertex in vertices:
            if vertex in placed:
                continue
            extended = placed | {vertex}
            here = boundary_size(extended)
            rest, _ = best_cost(extended)
            candidate = max(here, rest)
            if candidate < best[0]:
                best = (candidate, vertex)
        memo[placed] = best
        return best

    best_cost(frozenset())
    layout: List[Vertex] = []
    placed: FrozenSet[Vertex] = frozenset()
    while len(layout) < n:
        _, choice = best_cost(placed)
        if choice is None:
            layout.extend(v for v in vertices if v not in placed)
            break
        layout.append(choice)
        placed = placed | {choice}
    # The DP optimises the vertex separation number, which equals pathwidth;
    # report the width realised by the reconstructed layout (they coincide).
    realised = path_decomposition_from_ordering(graph, layout).width()
    return realised, layout


# ---------------------------------------------------------------------------
# Tree depth
# ---------------------------------------------------------------------------

def _exact_treedepth(
    graph: Graph,
    vertices: FrozenSet[Vertex],
    memo: Dict[FrozenSet[Vertex], Tuple[int, Optional[Vertex]]],
    budget: int,
) -> Tuple[int, Optional[Vertex]]:
    """Return (td, best root) for the induced subgraph on ``vertices``."""
    if vertices in memo:
        return memo[vertices]
    if len(vertices) == 1:
        memo[vertices] = (1, next(iter(vertices)))
        return memo[vertices]
    subgraph = graph.subgraph(vertices)
    components = connected_components(subgraph)
    if len(components) > 1:
        worst = 0
        for component in components:
            value, _ = _exact_treedepth(graph, component, memo, budget)
            worst = max(worst, value)
        memo[vertices] = (worst, None)
        return memo[vertices]
    best = (len(vertices), None)
    for vertex in sorted(vertices, key=repr):
        rest, _ = _exact_treedepth(graph, vertices - {vertex}, memo, budget)
        candidate = 1 + rest
        if candidate < best[0]:
            best = (candidate, vertex)
        if best[0] == 2:  # cannot do better for a connected graph with an edge
            break
    memo[vertices] = best
    return best


def legacy_exact_treedepth(graph: Graph) -> int:
    """The seed exact tree depth (subset recursion).

    Exponential in a way the engine is not (it tries every vertex of
    every connected induced subgraph it meets, rebuilding ``Graph``
    objects as it goes); kept verbatim as the differential-testing
    baseline for ``treedepth_engine`` and ``benchmarks/bench_treedepth.py``.
    """
    if len(graph) == 0:
        raise DecompositionError("tree depth of the empty graph is undefined")
    memo: Dict[FrozenSet[Vertex], Tuple[int, Optional[Vertex]]] = {}
    value, _ = _exact_treedepth(graph, graph.vertices, memo, len(graph))
    return value


def legacy_exact_elimination_forest(graph: Graph) -> EliminationForest:
    """The seed optimal elimination forest construction."""
    if len(graph) == 0:
        raise DecompositionError("tree depth of the empty graph is undefined")
    memo: Dict[FrozenSet[Vertex], Tuple[int, Optional[Vertex]]] = {}
    parent: Dict[Vertex, Vertex] = {}
    roots: List[Vertex] = []

    def build(vertices: FrozenSet[Vertex], attach: Optional[Vertex]) -> None:
        subgraph = graph.subgraph(vertices)
        components = connected_components(subgraph)
        if len(components) > 1:
            for component in components:
                build(component, attach)
            return
        _, root = _exact_treedepth(graph, vertices, memo, len(graph))
        if root is None:
            root = min(vertices, key=repr)
        if attach is None:
            roots.append(root)
        else:
            parent[root] = attach
        remaining = vertices - {root}
        if remaining:
            build(remaining, root)

    build(graph.vertices, None)
    forest = EliminationForest(parent, roots)
    if not forest.witnesses(graph):
        raise DecompositionError("internal error: elimination forest does not witness the graph")
    return forest
