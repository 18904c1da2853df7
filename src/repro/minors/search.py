"""Backtracking search for minor maps.

The reductions of Lemma 3.7 need an explicit minor map from a pattern to a
host; the classification experiments (E13) also verify excluded-minor
characterizations on small graph families.  Minor containment is NP-hard
in general; the implementation here is a branch-set backtracking search
with light pruning that is entirely adequate for the parameter-sized
patterns the library manipulates.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.graphlib.components import connected_components
from repro.graphlib.graph import Graph
from repro.minors.minor_map import MinorMap

Vertex = Hashable


def _pattern_order(pattern: Graph) -> List[Vertex]:
    """Order pattern vertices so each (after the first) has an earlier neighbour."""
    if len(pattern) == 0:
        return []
    order: List[Vertex] = []
    placed: Set[Vertex] = set()
    remaining = set(pattern.vertices)
    while remaining:
        candidates = [v for v in remaining if placed & set(pattern.neighbors(v))]
        if not candidates:
            candidates = sorted(remaining, key=lambda v: (-pattern.degree(v), repr(v)))
        vertex = min(
            candidates, key=lambda v: (-len(placed & set(pattern.neighbors(v))), repr(v))
        )
        order.append(vertex)
        placed.add(vertex)
        remaining.remove(vertex)
    return order


def _connected_subsets_containing(
    host: Graph, seed: Vertex, forbidden: Set[Vertex], max_size: int
):
    """Yield connected subsets of the host containing ``seed``, avoiding ``forbidden``."""
    initial = frozenset({seed})
    stack: List[FrozenSet[Vertex]] = [initial]
    emitted: Set[FrozenSet[Vertex]] = set()
    while stack:
        current = stack.pop()
        if current in emitted:
            continue
        emitted.add(current)
        yield current
        if len(current) >= max_size:
            continue
        frontier = set()
        for vertex in current:
            frontier |= set(host.neighbors(vertex))
        frontier -= current
        frontier -= forbidden
        for vertex in sorted(frontier, key=repr):
            stack.append(current | {vertex})


def _cyclomatic_number(graph: Graph) -> int:
    """Return ``m − n + c``, the number of independent cycles of ``graph``."""
    return graph.number_of_edges() - len(graph) + len(connected_components(graph))


def find_minor_map(
    pattern: Graph, host: Graph, max_branch_size: Optional[int] = None
) -> Optional[MinorMap]:
    """Return a minor map witnessing ``pattern`` ≤_minor ``host``, or None.

    ``max_branch_size`` caps the size of each branch set (default: enough to
    use every spare host vertex).  The search is exponential in the worst
    case but fast for the small patterns used by the reductions and tests.

    A pattern with more vertices or edges than the host, or a larger
    cyclomatic number, is no minor of it, and the search is skipped:
    deleting a vertex or an edge, or contracting an edge of a simple
    graph, raises none of the three.
    """
    if len(pattern) == 0:
        return MinorMap({})
    if (
        len(pattern) > len(host)
        or pattern.number_of_edges() > host.number_of_edges()
        or _cyclomatic_number(pattern) > _cyclomatic_number(host)
    ):
        return None
    return _search_minor_map(pattern, host, max_branch_size)


def _search_minor_map(
    pattern: Graph, host: Graph, max_branch_size: Optional[int] = None
) -> Optional[MinorMap]:
    """The branch-set backtracking behind :func:`find_minor_map`, unpruned."""
    if max_branch_size is None:
        max_branch_size = len(host) - len(pattern) + 1
    max_branch_size = max(1, max_branch_size)
    order = _pattern_order(pattern)

    assignment: Dict[Vertex, FrozenSet[Vertex]] = {}
    used: Set[Vertex] = set()

    def edge_ok(pattern_vertex: Vertex, branch: FrozenSet[Vertex]) -> bool:
        for neighbour in pattern.neighbors(pattern_vertex):
            if neighbour not in assignment:
                continue
            other = assignment[neighbour]
            if not any(host.has_edge(u, v) for u in branch for v in other):
                return False
        return True

    def backtrack(index: int) -> bool:
        if index == len(order):
            return True
        pattern_vertex = order[index]
        remaining_pattern = len(order) - index - 1
        for seed in sorted(host.vertices - used, key=repr):
            for branch in _connected_subsets_containing(host, seed, used, max_branch_size):
                if len(host.vertices) - len(used) - len(branch) < remaining_pattern:
                    continue
                if not edge_ok(pattern_vertex, branch):
                    continue
                assignment[pattern_vertex] = branch
                used.update(branch)
                if backtrack(index + 1):
                    return True
                used.difference_update(branch)
                del assignment[pattern_vertex]
        return False

    if backtrack(0):
        minor_map = MinorMap(assignment)
        minor_map.validate(pattern, host)
        return minor_map
    return None


def has_minor(pattern: Graph, host: Graph, max_branch_size: Optional[int] = None) -> bool:
    """Return True when ``pattern`` is a minor of ``host``."""
    return find_minor_map(pattern, host, max_branch_size) is not None


def excludes_minor(graphs: List[Graph], pattern: Graph) -> bool:
    """Return True when none of ``graphs`` contains ``pattern`` as a minor.

    This is the notion "the class excludes the pattern as a minor" from
    Theorem 2.3, evaluated on a finite sample of the class.
    """
    return all(not has_minor(pattern, graph) for graph in graphs)


def largest_path_minor(graph: Graph, upper_bound: Optional[int] = None) -> int:
    """Return the largest ``k`` such that the path ``P_k`` is a minor of ``graph``.

    A path is a minor of ``G`` exactly when ``G`` contains a path on ``k``
    vertices as a subgraph, so this equals the number of vertices on a
    longest path.  Computed by exhaustive DFS (exponential; small graphs
    only), optionally capped by ``upper_bound``.
    """
    if len(graph) == 0:
        return 0
    best = 1
    limit = upper_bound if upper_bound is not None else len(graph)

    def extend(path: List[Vertex], on_path: Set[Vertex]) -> None:
        nonlocal best
        best = max(best, len(path))
        if best >= limit:
            return
        for neighbour in sorted(graph.neighbors(path[-1]), key=repr):
            if neighbour not in on_path:
                path.append(neighbour)
                on_path.add(neighbour)
                extend(path, on_path)
                on_path.remove(neighbour)
                path.pop()

    for start in sorted(graph.vertices, key=repr):
        extend([start], {start})
        if best >= limit:
            break
    return min(best, limit)


def random_minor(
    graph: Graph, contractions: int, deletions: int, seed: int = 0
) -> Tuple[Graph, MinorMap]:
    """Return a random minor of ``graph`` together with a witnessing minor map.

    Performs the requested number of random edge contractions and vertex
    deletions (skipping operations that would empty the graph).  Useful for
    property-based tests of minor-monotonicity of the width measures.
    """
    import random as _random

    rng = _random.Random(seed)
    current = graph
    # branch bookkeeping: current vertex -> set of original vertices
    branches: Dict[Vertex, Set[Vertex]] = {v: {v} for v in graph.vertices}
    for _ in range(contractions):
        edges = sorted(current.edges, key=repr)
        if not edges:
            break
        edge = rng.choice(edges)
        u, v = tuple(edge)
        current = current.contract_edge(u, v)
        branches[u] = branches[u] | branches.pop(v)
    for _ in range(deletions):
        if len(current) <= 1:
            break
        vertex = rng.choice(sorted(current.vertices, key=repr))
        current = current.remove_vertex(vertex)
        branches.pop(vertex)
    minor_map = MinorMap({v: branches[v] for v in current.vertices})
    minor_map.validate(current, graph)
    return current, minor_map
