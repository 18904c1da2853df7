"""Tree depth (Section 2.2; Nešetřil & Ossona de Mendez).

The tree depth ``td(G)`` of a graph is the minimum height ``h`` such that
every connected component of ``G`` is a subgraph of the closure of a rooted
tree of height ``h``.  Equivalently (the recursion the branch-and-bound
engine of :mod:`repro.decomposition.treedepth_engine` searches):

* ``td`` of a single vertex is 1,
* ``td`` of a disconnected graph is the maximum over its components,
* ``td`` of a connected graph ``G`` with ≥ 2 vertices is
  ``1 + min_v td(G − v)``.

Here *height* counts vertices on a root-to-leaf path (a single vertex has
height 1), matching the convention under which ``td(P_k) = ⌈log2(k+1)⌉``
and the paper's claim ``qr(φ_A) ≤ td + 1`` in Lemma 3.3 / Theorem 3.12.

Besides the number we also return an *elimination forest* (a rooted forest
whose closure contains the graph) because the para-L solver and the
tree-depth sentence construction of Lemma 3.3 both need it.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.exceptions import DecompositionError
from repro.graphlib.graph import Graph

Vertex = Hashable


class EliminationForest:
    """A rooted forest witnessing a tree-depth bound.

    ``parent[v]`` is the parent of ``v`` (absent for roots).  The *height*
    is the maximum number of vertices on a root-to-leaf path.  The forest's
    *closure* contains an edge between every vertex and each of its
    ancestors; a forest witnesses ``td(G) ≤ height`` when every edge of
    ``G`` joins an ancestor/descendant pair.
    """

    def __init__(self, parent: Dict[Vertex, Vertex], roots: List[Vertex]) -> None:
        self._parent = dict(parent)
        self._roots = list(roots)
        if not roots and parent:
            raise DecompositionError("a non-empty forest needs at least one root")
        #: Each parent's children in ``repr`` order, built on first use.
        self._children: Optional[Dict[Vertex, List[Vertex]]] = None

    def __getstate__(self) -> Tuple[Dict[Vertex, Vertex], List[Vertex]]:
        # Forests travel inside pickled solve results, many per batch; the
        # children map is derived from the parent map, so it stays out of
        # the pickle and a receiver that needs it builds it.
        return self._parent, self._roots

    def __setstate__(self, state: Tuple[Dict[Vertex, Vertex], List[Vertex]]) -> None:
        self._parent, self._roots = state
        self._children = None

    def __eq__(self, other: object) -> bool:
        # Two forests are the same forest when every vertex has the same
        # parent and the same vertices are roots, in whatever order.
        if not isinstance(other, EliminationForest):
            return NotImplemented
        return self._parent == other._parent and set(self._roots) == set(other._roots)

    def __hash__(self) -> int:
        return hash((frozenset(self._parent.items()), frozenset(self._roots)))

    @property
    def parent(self) -> Dict[Vertex, Vertex]:
        """Copy of the parent map (roots absent)."""
        return dict(self._parent)

    @property
    def roots(self) -> List[Vertex]:
        """The forest's roots."""
        return list(self._roots)

    def vertices(self) -> List[Vertex]:
        """All vertices of the forest."""
        return list(self._roots) + list(self._parent.keys())

    def children(self, vertex: Vertex) -> List[Vertex]:
        """Return the children of ``vertex`` in a deterministic order."""
        if self._children is None:
            children: Dict[Vertex, List[Vertex]] = {}
            for child, par in self._parent.items():
                children.setdefault(par, []).append(child)
            for siblings in children.values():
                siblings.sort(key=repr)
            self._children = children
        return list(self._children.get(vertex, ()))

    def ancestors(self, vertex: Vertex) -> List[Vertex]:
        """Return the ancestors of ``vertex``, nearest first (excluding itself)."""
        chain = []
        current = vertex
        while current in self._parent:
            current = self._parent[current]
            chain.append(current)
        return chain

    def root_path(self, vertex: Vertex) -> List[Vertex]:
        """Return the path from the root down to ``vertex`` (inclusive)."""
        return list(reversed([vertex] + self.ancestors(vertex)))

    def depth(self, vertex: Vertex) -> int:
        """Return the number of vertices on the root path of ``vertex``."""
        return len(self.ancestors(vertex)) + 1

    def height(self) -> int:
        """Return the forest's height (max root-path length; 0 when empty)."""
        vertices = self.vertices()
        if not vertices:
            return 0
        return max(self.depth(v) for v in vertices)

    def closure_contains_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return True when ``u`` and ``v`` are in ancestor/descendant relation."""
        return u in self.ancestors(v) or v in self.ancestors(u) or u == v

    def witnesses(self, graph: Graph) -> bool:
        """Return True when every edge of ``graph`` is covered by the closure
        and the forest's vertex set equals the graph's."""
        if set(self.vertices()) != set(graph.vertices):
            return False
        return all(self.closure_contains_edge(u, v) for u, v in graph.edge_pairs())


def exact_treedepth(graph: Graph) -> int:
    """Return the exact tree depth of ``graph``.

    Delegates to the branch-and-bound engine of
    :mod:`repro.decomposition.treedepth_engine`, which replaced the seed
    subset recursion (kept with the tests, ``tests/oracles/seeds.py``) —
    same answers, pruned search.
    """
    from repro.decomposition.treedepth_engine import engine_treedepth

    return engine_treedepth(graph)


def exact_elimination_forest(graph: Graph) -> EliminationForest:
    """Return an optimal elimination forest (height = exact tree depth).

    Delegates to the branch-and-bound engine; the witness is verified
    against the graph before it is returned (the engine raises otherwise).
    """
    from repro.decomposition.treedepth_engine import engine_elimination_forest

    return engine_elimination_forest(graph)


def dfs_elimination_forest(graph: Graph) -> EliminationForest:
    """Return a DFS-tree elimination forest (heuristic upper bound on td).

    A DFS tree has the property that every graph edge is a back edge, hence
    joins an ancestor/descendant pair, so its height is a valid (often very
    loose) tree-depth upper bound.  Intended for large benchmark graphs.
    """
    if len(graph) == 0:
        raise DecompositionError("tree depth of the empty graph is undefined")
    parent: Dict[Vertex, Vertex] = {}
    roots: List[Vertex] = []
    seen: set = set()
    for start in sorted(graph.vertices, key=repr):
        if start in seen:
            continue
        roots.append(start)
        seen.add(start)
        # Proper depth-first search (visit on entry, descend one neighbour at
        # a time) so that every non-tree edge is a back edge — this is what
        # makes the DFS tree a valid elimination forest.
        stack = [(start, iter(sorted(graph.neighbors(start), key=repr)))]
        while stack:
            current, neighbours = stack[-1]
            advanced = False
            for neighbour in neighbours:
                if neighbour not in seen:
                    seen.add(neighbour)
                    parent[neighbour] = current
                    stack.append(
                        (neighbour, iter(sorted(graph.neighbors(neighbour), key=repr)))
                    )
                    advanced = True
                    break
            if not advanced:
                stack.pop()
    return EliminationForest(parent, roots)


def treedepth_upper_bound(graph: Graph) -> int:
    """Return a cheap upper bound on tree depth (DFS forest height)."""
    return dfs_elimination_forest(graph).height()
