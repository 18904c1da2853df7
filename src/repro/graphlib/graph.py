"""Immutable undirected and directed graph types.

These are deliberately simple: vertex sets are frozensets of hashable
objects and edges are stored as frozensets of 2-element frozensets
(undirected) or ordered pairs (directed).  The types are hashable so they
can be used as cache keys by the decomposition and homomorphism engines.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, Set, Tuple

from repro.exceptions import StructureError

Vertex = Hashable


class Graph:
    """A finite, simple, undirected graph.

    Parameters
    ----------
    vertices:
        Iterable of hashable vertex labels.  Must be non-empty when edges
        are present; an empty graph (no vertices) is allowed.
    edges:
        Iterable of 2-element iterables ``(u, v)``.  Self-loops are
        rejected; duplicate edges are collapsed.
    """

    __slots__ = ("_vertices", "_edges", "_adjacency", "_hash")

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Iterable[Tuple[Vertex, Vertex]] = (),
    ) -> None:
        vertex_set = frozenset(vertices)
        edge_set: Set[FrozenSet[Vertex]] = set()
        adjacency: Dict[Vertex, Set[Vertex]] = {v: set() for v in vertex_set}
        for u, v in edges:
            if u == v:
                raise StructureError(f"self-loop on vertex {u!r} is not allowed")
            if u not in adjacency or v not in adjacency:
                raise StructureError(f"edge ({u!r}, {v!r}) uses an unknown vertex")
            edge_set.add(frozenset((u, v)))
            adjacency[u].add(v)
            adjacency[v].add(u)
        self._vertices = vertex_set
        self._edges = frozenset(edge_set)
        self._adjacency = {v: frozenset(ns) for v, ns in adjacency.items()}
        self._hash: int | None = None

    # -- basic accessors -------------------------------------------------
    @property
    def vertices(self) -> FrozenSet[Vertex]:
        """The vertex set."""
        return self._vertices

    @property
    def edges(self) -> FrozenSet[FrozenSet[Vertex]]:
        """The edge set, each edge a 2-element frozenset."""
        return self._edges

    def edge_pairs(self) -> Iterator[Tuple[Vertex, Vertex]]:
        """Yield each edge once as an (arbitrarily ordered) pair."""
        for edge in self._edges:
            u, v = tuple(edge)
            yield u, v

    def neighbors(self, vertex: Vertex) -> FrozenSet[Vertex]:
        """Return the neighbourhood of ``vertex``."""
        try:
            return self._adjacency[vertex]
        except KeyError:
            raise StructureError(f"vertex {vertex!r} not in graph") from None

    def degree(self, vertex: Vertex) -> int:
        """Return the degree of ``vertex``."""
        return len(self.neighbors(vertex))

    def max_degree(self) -> int:
        """Return the maximum degree, or 0 for an empty graph."""
        if not self._vertices:
            return 0
        return max(len(ns) for ns in self._adjacency.values())

    def is_regular(self) -> bool:
        """Return True when every vertex has the same degree."""
        degrees = {len(ns) for ns in self._adjacency.values()}
        return len(degrees) <= 1

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return True when ``{u, v}`` is an edge."""
        return frozenset((u, v)) in self._edges

    def number_of_vertices(self) -> int:
        """Return ``|V|``."""
        return len(self._vertices)

    def number_of_edges(self) -> int:
        """Return ``|E|``."""
        return len(self._edges)

    # -- derived graphs ---------------------------------------------------
    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """Return the subgraph induced by ``vertices``."""
        keep = frozenset(vertices)
        unknown = keep - self._vertices
        if unknown:
            raise StructureError(f"unknown vertices in subgraph request: {unknown!r}")
        edges = [
            tuple(edge)
            for edge in self._edges
            if edge <= keep
        ]
        return Graph(keep, edges)  # type: ignore[arg-type]

    def remove_vertex(self, vertex: Vertex) -> "Graph":
        """Return a copy of the graph with ``vertex`` (and its edges) removed."""
        if vertex not in self._vertices:
            raise StructureError(f"vertex {vertex!r} not in graph")
        return self.subgraph(self._vertices - {vertex})

    def contract_edge(self, u: Vertex, v: Vertex) -> "Graph":
        """Return the graph obtained by contracting edge ``{u, v}`` into ``u``."""
        if not self.has_edge(u, v):
            raise StructureError(f"({u!r}, {v!r}) is not an edge")
        new_vertices = self._vertices - {v}
        new_edges = []
        for a, b in self.edge_pairs():
            a2 = u if a == v else a
            b2 = u if b == v else b
            if a2 != b2:
                new_edges.append((a2, b2))
        return Graph(new_vertices, new_edges)

    def add_edges(self, edges: Iterable[Tuple[Vertex, Vertex]]) -> "Graph":
        """Return a copy with the given edges added (vertices must exist)."""
        return Graph(self._vertices, list(self.edge_pairs()) + list(edges))

    def union(self, other: "Graph") -> "Graph":
        """Return the union graph (vertex sets may overlap)."""
        return Graph(
            self._vertices | other._vertices,
            list(self.edge_pairs()) + list(other.edge_pairs()),
        )

    def relabel(self, mapping: Dict[Vertex, Vertex]) -> "Graph":
        """Return an isomorphic copy with vertices renamed through ``mapping``.

        ``mapping`` must be injective on the vertex set; missing vertices
        keep their labels.
        """
        def rename(v: Vertex) -> Vertex:
            return mapping.get(v, v)

        new_vertices = [rename(v) for v in self._vertices]
        if len(set(new_vertices)) != len(self._vertices):
            raise StructureError("relabel mapping is not injective on the vertex set")
        new_edges = [(rename(u), rename(v)) for u, v in self.edge_pairs()]
        return Graph(new_vertices, new_edges)

    # -- dunder ------------------------------------------------------------
    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._vertices, self._edges))
        return self._hash

    def __getstate__(self) -> Tuple:
        # The cached hash stays out of the pickle: ``str`` hashing is salted
        # per process, so a receiver hashes the graph itself.
        return self._vertices, self._edges, self._adjacency

    def __setstate__(self, state: Tuple) -> None:
        self._vertices, self._edges, self._adjacency = state
        self._hash = None

    def __repr__(self) -> str:
        return f"Graph(|V|={len(self._vertices)}, |E|={len(self._edges)})"


class DiGraph:
    """A finite directed graph (loops allowed, no parallel arcs)."""

    __slots__ = ("_vertices", "_arcs", "_successors", "_predecessors", "_hash")

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        arcs: Iterable[Tuple[Vertex, Vertex]] = (),
    ) -> None:
        vertex_set = frozenset(vertices)
        arc_set: Set[Tuple[Vertex, Vertex]] = set()
        successors: Dict[Vertex, Set[Vertex]] = {v: set() for v in vertex_set}
        predecessors: Dict[Vertex, Set[Vertex]] = {v: set() for v in vertex_set}
        for u, v in arcs:
            if u not in successors or v not in successors:
                raise StructureError(f"arc ({u!r}, {v!r}) uses an unknown vertex")
            arc_set.add((u, v))
            successors[u].add(v)
            predecessors[v].add(u)
        self._vertices = vertex_set
        self._arcs = frozenset(arc_set)
        self._successors = {v: frozenset(s) for v, s in successors.items()}
        self._predecessors = {v: frozenset(p) for v, p in predecessors.items()}
        self._hash: int | None = None

    @property
    def vertices(self) -> FrozenSet[Vertex]:
        """The vertex set."""
        return self._vertices

    @property
    def arcs(self) -> FrozenSet[Tuple[Vertex, Vertex]]:
        """The arc set as ordered pairs."""
        return self._arcs

    def successors(self, vertex: Vertex) -> FrozenSet[Vertex]:
        """Return out-neighbours of ``vertex``."""
        try:
            return self._successors[vertex]
        except KeyError:
            raise StructureError(f"vertex {vertex!r} not in digraph") from None

    def predecessors(self, vertex: Vertex) -> FrozenSet[Vertex]:
        """Return in-neighbours of ``vertex``."""
        try:
            return self._predecessors[vertex]
        except KeyError:
            raise StructureError(f"vertex {vertex!r} not in digraph") from None

    def has_arc(self, u: Vertex, v: Vertex) -> bool:
        """Return True when ``(u, v)`` is an arc."""
        return (u, v) in self._arcs

    def has_loops(self) -> bool:
        """Return True when some vertex has an arc to itself."""
        return any(u == v for u, v in self._arcs)

    def underlying_graph(self) -> Graph:
        """Return the underlying undirected graph (symmetric closure, loops dropped).

        Mirrors the paper's "graph underlying a directed graph without
        loops"; loops are silently dropped so the result is a simple graph.
        """
        edges = [(u, v) for u, v in self._arcs if u != v]
        return Graph(self._vertices, edges)

    def reverse(self) -> "DiGraph":
        """Return the digraph with every arc reversed."""
        return DiGraph(self._vertices, [(v, u) for u, v in self._arcs])

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._arcs == other._arcs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._vertices, self._arcs))
        return self._hash

    def __getstate__(self) -> Tuple:
        # The cached hash stays out of the pickle, as in ``Graph``.
        return self._vertices, self._arcs, self._successors, self._predecessors

    def __setstate__(self, state: Tuple) -> None:
        self._vertices, self._arcs, self._successors, self._predecessors = state
        self._hash = None

    def __repr__(self) -> str:
        return f"DiGraph(|V|={len(self._vertices)}, |A|={len(self._arcs)})"
