"""Heuristic orderings for treewidth / pathwidth upper bounds.

The classifier only needs *exact* widths on the (small, parameter-sized)
left-hand structures, but the benchmark workloads also exercise larger
graphs where exact computation is infeasible; these heuristics provide the
standard min-degree and min-fill elimination orderings, the elimination
tree of a min-fill ordering (the forest the PATH and TREE routes solve
on), and a BFS-based ordering for path decompositions.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterator, List, Set, Tuple

from repro.decomposition.treedepth import EliminationForest
from repro.exceptions import DecompositionError
from repro.graphlib.graph import Graph
from repro.graphlib.traversal import bfs_order

Vertex = Hashable


def min_degree_ordering(graph: Graph) -> List[Vertex]:
    """Return an elimination ordering choosing a minimum-degree vertex each step."""
    if len(graph) == 0:
        raise DecompositionError("cannot order the empty graph")
    adjacency: Dict[Vertex, set] = {v: set(graph.neighbors(v)) for v in graph.vertices}
    remaining = set(graph.vertices)
    ordering: List[Vertex] = []
    while remaining:
        vertex = min(remaining, key=lambda v: (len(adjacency[v] & remaining), repr(v)))
        ordering.append(vertex)
        neighbours = sorted(adjacency[vertex] & remaining, key=repr)
        for i, a in enumerate(neighbours):
            for b in neighbours[i + 1:]:
                adjacency[a].add(b)
                adjacency[b].add(a)
        remaining.remove(vertex)
    return ordering


def min_fill_ordering(graph: Graph) -> List[Vertex]:
    """Return an elimination ordering choosing a minimum-fill vertex each step.

    Ties go to the vertex with the smallest ``repr``.  Eliminating a
    vertex changes the fill count only of its neighbours (their
    neighbourhoods change) and of their neighbours (edges appear among
    their neighbours), so only those are recounted; a heap keyed on
    ``(fill, repr)`` with stale entries skipped yields the next vertex.
    """
    if len(graph) == 0:
        raise DecompositionError("cannot order the empty graph")
    vertices = list(graph.vertices)
    # Adjacency among the vertices not yet eliminated, fill edges included.
    adjacency: Dict[Vertex, set] = {v: set(graph.neighbors(v)) for v in vertices}
    label = {v: repr(v) for v in vertices}
    index = {v: i for i, v in enumerate(vertices)}

    def fill_count(vertex: Vertex) -> int:
        neighbours = list(adjacency[vertex])
        missing = 0
        for i, a in enumerate(neighbours):
            row = adjacency[a]
            for b in neighbours[i + 1:]:
                if b not in row:
                    missing += 1
        return missing

    fill = {v: fill_count(v) for v in vertices}
    heap = [(fill[v], label[v], index[v]) for v in vertices]
    heapq.heapify(heap)
    ordering: List[Vertex] = []
    while heap:
        count, _, position = heapq.heappop(heap)
        vertex = vertices[position]
        if fill.get(vertex) != count:
            continue  # eliminated already, or recounted since
        ordering.append(vertex)
        del fill[vertex]
        neighbours = adjacency.pop(vertex)
        affected = set(neighbours)
        for a in neighbours:
            row = adjacency[a]
            row.discard(vertex)
            row.update(neighbours)
            row.discard(a)
        for a in neighbours:
            affected.update(adjacency[a])
        for u in affected:
            count = fill_count(u)
            if count != fill[u]:
                fill[u] = count
                heapq.heappush(heap, (count, label[u], index[u]))
    return ordering


def _eliminated_neighbourhoods(
    graph: Graph, ordering: List[Vertex]
) -> Iterator[Tuple[Vertex, Set[Vertex]]]:
    """Eliminate the vertices in ``ordering``, yielding each with its
    later-eliminated neighbours at that point, fill edges included."""
    position = {v: i for i, v in enumerate(ordering)}
    adjacency: Dict[Vertex, set] = {v: set(graph.neighbors(v)) for v in graph.vertices}
    for v in ordering:
        later = {u for u in adjacency[v] if position[u] > position[v]}
        yield v, later
        later_list = sorted(later, key=repr)
        for i, a in enumerate(later_list):
            for b in later_list[i + 1:]:
                adjacency[a].add(b)
                adjacency[b].add(a)


def ordering_width(graph: Graph, ordering: List[Vertex]) -> int:
    """Return the width of an elimination ordering (treewidth upper bound)."""
    return max(
        (len(later) for _, later in _eliminated_neighbourhoods(graph, ordering)),
        default=0,
    )


def min_fill_elimination_forest(graph: Graph) -> EliminationForest:
    """Return the elimination tree of a min-fill ordering of ``graph``.

    A vertex's parent is the earliest-eliminated of its neighbours at
    elimination, fill edges included; a vertex with none is a root.  The
    fill edges make every graph edge an ancestor/descendant pair, so the
    forest witnesses the graph, and a vertex's neighbours at elimination
    are exactly its ancestors adjacent to its subtree — at most the
    ordering's width of them.
    """
    if len(graph) == 0:
        return EliminationForest({}, [])
    ordering = min_fill_ordering(graph)
    position = {v: i for i, v in enumerate(ordering)}
    parent: Dict[Vertex, Vertex] = {}
    roots: List[Vertex] = []
    for vertex, later in _eliminated_neighbourhoods(graph, ordering):
        if later:
            parent[vertex] = min(later, key=position.__getitem__)
        else:
            roots.append(vertex)
    return EliminationForest(parent, roots)


def bfs_layout(graph: Graph) -> List[Vertex]:
    """Return a BFS-based linear layout (a pathwidth-upper-bound ordering).

    BFS layouts are exact for paths and caterpillars and a reasonable
    heuristic elsewhere.
    """
    if len(graph) == 0:
        raise DecompositionError("cannot lay out the empty graph")
    remaining = set(graph.vertices)
    layout: List[Vertex] = []
    while remaining:
        # Start each component from a vertex of minimum degree (an endpoint
        # for paths) to keep the frontier small.
        start = min(remaining, key=lambda v: (graph.degree(v), repr(v)))
        component_order = bfs_order(graph.subgraph(remaining), start)
        layout.extend(component_order)
        remaining -= set(component_order)
    return layout


def vertex_separation_of_layout(graph: Graph, layout: List[Vertex]) -> int:
    """Return the vertex separation number of a layout (pathwidth upper bound)."""
    position = {v: i for i, v in enumerate(layout)}
    worst = 0
    for i in range(len(layout)):
        boundary = {
            u
            for u in layout[: i + 1]
            if any(position[w] > i for w in graph.neighbors(u))
        }
        worst = max(worst, len(boundary))
    return worst
