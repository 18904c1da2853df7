"""The incremental min-fill ordering equals the literal one, ties included.

:func:`min_fill_ordering` recounts fill only around each eliminated
vertex and keeps candidates in a heap.  :func:`reference_min_fill_ordering`
below is the literal definition it replaced: recount every remaining
vertex's fill at every step and take the least ``(fill, repr)``.  The two
must return the same list on every corpus, so every min-fill tree the
PATH and TREE routes solve on stays the same.

:func:`min_fill_elimination_forest` turns that ordering into the tree
the PATH and TREE routes recurse along.  The recursion memoises each
subtree on its boundary (the ancestors adjacent to the subtree), so the
tree must witness the graph and each boundary must be exactly the
vertex's later neighbours at elimination, never more than the
ordering's width of them.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from test_core_engine_oracle import graph_patterns, mixed_patterns

from repro.decomposition import (
    min_fill_elimination_forest,
    min_fill_ordering,
    ordering_width,
)
from repro.exceptions import DecompositionError
from repro.graphlib import Graph
from repro.homomorphism.core_engine import compute_core
from repro.structures import clique, cycle, grid, path, random_graph_structure
from repro.structures.gaifman import gaifman_graph


def reference_min_fill_ordering(graph: Graph) -> List:
    """Eliminate the remaining vertex of least ``(fill count, repr)``."""
    adjacency: Dict = {v: set(graph.neighbors(v)) for v in graph.vertices}
    remaining = set(graph.vertices)
    ordering = []

    def fill_count(vertex) -> int:
        neighbours = [u for u in adjacency[vertex] if u in remaining]
        missing = 0
        for i, a in enumerate(neighbours):
            for b in neighbours[i + 1:]:
                if b not in adjacency[a]:
                    missing += 1
        return missing

    while remaining:
        vertex = min(remaining, key=lambda v: (fill_count(v), repr(v)))
        ordering.append(vertex)
        neighbours = sorted(adjacency[vertex] & remaining, key=repr)
        for i, a in enumerate(neighbours):
            for b in neighbours[i + 1:]:
                adjacency[a].add(b)
                adjacency[b].add(a)
        remaining.remove(vertex)
    return ordering


def assert_same_ordering(graph: Graph) -> None:
    assert min_fill_ordering(graph) == reference_min_fill_ordering(graph)


def core_graphs(patterns) -> List[Graph]:
    graphs = {}
    for pattern in patterns:
        graph = gaifman_graph(compute_core(pattern).core)
        if len(graph):
            graphs[graph] = None
    return list(graphs)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    return Graph(range(n), edges)


class TestSameOrdering:
    @pytest.mark.parametrize("rows, cols", [(2, 2), (3, 3), (3, 5), (4, 4), (5, 6)])
    def test_grids(self, rows, cols):
        assert_same_ordering(gaifman_graph(grid(rows, cols)))

    def test_random_graphs(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(1, 24)
            assert_same_ordering(random_graph(rng, n, rng.choice((0.1, 0.2, 0.35, 0.6))))
        for seed in range(20):
            structure = random_graph_structure(14, 0.3, seed=seed)
            assert_same_ordering(gaifman_graph(structure))

    def test_classify_cold_shaped_cores(self):
        graphs = core_graphs(graph_patterns())
        assert len(graphs) >= 300
        for graph in graphs:
            assert_same_ordering(graph)

    def test_mixed_vocabulary_cores(self):
        graphs = core_graphs(mixed_patterns())
        assert len(graphs) >= 50
        for graph in graphs:
            assert_same_ordering(graph)

    def test_graphs_full_of_ties(self):
        # Every vertex of a clique, a cycle or an edgeless graph ties on
        # fill, so the order is the reprs' order: 10 sorts before 2, and
        # the int 1 and the string "1" are different vertices.
        tied = [
            Graph(range(12), []),
            gaifman_graph(clique(7)),
            gaifman_graph(cycle(11)),
            Graph([1, "1", 2, "2", (1, 2)], [(1, "1"), ("1", 2), (2, "2"), ("2", (1, 2))]),
            Graph(range(14), [(0, v) for v in range(1, 14)]),
            Graph(range(12), [(a, b) for a in range(6) for b in range(6, 12)]),
            Graph(range(20), [(v, v + 1) for v in range(0, 20, 2)]),
        ]
        for graph in tied:
            assert_same_ordering(graph)

    def test_long_path(self):
        assert_same_ordering(gaifman_graph(path(300)))


def later_neighbourhoods(graph: Graph, ordering: List) -> Dict:
    """Each vertex's neighbours eliminated after it, fill edges included."""
    position = {v: i for i, v in enumerate(ordering)}
    adjacency: Dict = {v: set(graph.neighbors(v)) for v in graph.vertices}
    later = {}
    for vertex in ordering:
        later[vertex] = {u for u in adjacency[vertex] if position[u] > position[vertex]}
        for a in later[vertex]:
            adjacency[a] |= later[vertex] - {a}
    return later


def subtree(forest, vertex) -> set:
    members, stack = set(), [vertex]
    while stack:
        current = stack.pop()
        members.add(current)
        stack.extend(forest.children(current))
    return members


FOREST_CORPUS = {
    "grid-3x4": gaifman_graph(grid(3, 4)),
    "cycle-9": gaifman_graph(cycle(9)),
    "clique-6": gaifman_graph(clique(6)),
    "path-40": gaifman_graph(path(40)),
    "star-10": Graph(range(11), [(0, v) for v in range(1, 11)]),
    "biclique-3x4": Graph(range(7), [(a, b) for a in range(3) for b in range(3, 7)]),
    "components": Graph(range(9), [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7)]),
    "edgeless-5": Graph(range(5), []),
    "random-14": gaifman_graph(random_graph_structure(14, 0.3, seed=4)),
}


class TestMinFillEliminationTree:
    @pytest.mark.parametrize("name", list(FOREST_CORPUS))
    def test_forest_witnesses_the_graph(self, name):
        graph = FOREST_CORPUS[name]
        forest = min_fill_elimination_forest(graph)
        assert sorted(forest.vertices(), key=repr) == sorted(graph.vertices, key=repr)
        assert forest.witnesses(graph)

    @pytest.mark.parametrize("name", list(FOREST_CORPUS))
    def test_parents_are_the_earliest_later_neighbours(self, name):
        graph = FOREST_CORPUS[name]
        ordering = min_fill_ordering(graph)
        position = {v: i for i, v in enumerate(ordering)}
        later = later_neighbourhoods(graph, ordering)
        forest = min_fill_elimination_forest(graph)
        parent = forest.parent
        for vertex in ordering:
            if later[vertex]:
                assert parent[vertex] == min(later[vertex], key=position.__getitem__)
            else:
                assert vertex in forest.roots

    @pytest.mark.parametrize("name", list(FOREST_CORPUS))
    def test_boundaries_stay_within_the_ordering_width(self, name):
        graph = FOREST_CORPUS[name]
        ordering = min_fill_ordering(graph)
        later = later_neighbourhoods(graph, ordering)
        forest = min_fill_elimination_forest(graph)
        width = ordering_width(graph, ordering)
        for vertex in ordering:
            members = subtree(forest, vertex)
            boundary = {
                ancestor
                for ancestor in forest.ancestors(vertex)
                if any(ancestor in graph.neighbors(member) for member in members)
            }
            assert boundary == later[vertex]
            assert len(boundary) <= width
        assert max(len(neighbours) for neighbours in later.values()) == width

    def test_empty_graph(self):
        empty = Graph([], [])
        forest = min_fill_elimination_forest(empty)
        assert forest.vertices() == [] and forest.height() == 0
        with pytest.raises(DecompositionError):
            min_fill_ordering(empty)
