"""Branch-and-bound exact treewidth and pathwidth for mid-sized graphs (13–25).

The seed algorithms (kept with the tests in ``tests/oracles/seeds.py``)
are ``O*(2^n)`` subset dynamic programs over frozensets: every call
rebuilds Python sets, every state is visited regardless of how hopeless
it is, and the facade therefore abandons exactness beyond 12 vertices —
precisely the window the treedepth engine of
:mod:`repro.decomposition.treedepth_engine` opened for the big rigid
cores.  These engines push both width measures to the same window with
the same toolbox:

* **bitset subgraphs** — vertices map to bit positions once; components,
  boundaries, degeneracy and fill neighbourhoods are integer arithmetic
  and memo keys are plain ``int`` masks;
* **iterative deepening** — feasibility is tested budget by budget from
  the lower bound, so failing searches stay shallow and the memo
  accumulates certified lower bounds between rounds;
* **component splitting** — both measures take the maximum over
  connected pieces, so subproblems recurse per component (for treewidth,
  components of the *fill* graph; for pathwidth, components of the
  remaining graph once the boundary empties);
* **witnesses** — every exact memo entry stores a choice that *achieves*
  its value, so an optimal elimination ordering (treewidth) or linear
  layout (pathwidth) is replayed at no extra search cost and converted
  into a validated :class:`~repro.decomposition.tree_decomposition.TreeDecomposition`
  / :class:`~repro.decomposition.path_decomposition.PathDecomposition`.

Treewidth specifics.  ``tw`` equals the minimum over elimination
orderings of the largest later-neighbourhood ``Q(S, v)`` (the vertices
outside ``S`` adjacent to the component of ``v`` in ``S ∪ {v}``).  The
fill graph after eliminating ``S`` is determined by ``S`` alone, so the
remaining-vertex mask is a canonical subproblem key, and a component of
the fill graph may be solved as if everything outside it were eliminated
(no fill path leaves a fill component, so extra "eliminated" vertices are
never reached).  Per subproblem the engine computes the fill
neighbourhoods once, seeds the incumbent with a min-fill greedy ordering,
lower-bounds by contraction degeneracy (max min-degree under least-common-
neighbour contraction — treewidth never increases under taking minors),
and forces simplicial vertices (a vertex whose fill neighbourhood is a
clique is always safe to eliminate first).

Pathwidth specifics.  ``pw`` equals the vertex separation number: lay
vertices out one at a time; the cost of a prefix is the number of placed
vertices that still have unplaced neighbours.  The future cost depends
only on the *remaining* mask — the boundary of any future prefix is
"vertices outside the remainder with a neighbour inside" — so remaining
masks are canonical keys here too.  Three provably safe prunings do the
heavy lifting: a vertex with no unplaced neighbours is committed
immediately (placing it can only shrink the boundary), branching is
restricted to neighbours of the current boundary (any other vertex can be
delayed until its first neighbour is placed, or to the component split
that follows once the boundary empties), and full-graph twins
(``N(u) \\ {v} = N(v) \\ {u}``) branch only on their lowest index, the
swap being an automorphism.  Upper bounds come from a boundary-greedy
completion, lower bounds from degeneracy (on masks with an empty
boundary) and — via the facade — from the exact treewidth, since
``pw ≥ tw``.  A placement changes the boundary only at the placed vertex
and its placed neighbours, so the search, its candidate scores and the
greedy completion derive each next boundary from the current one
instead of rescanning the placed vertices.

Both engines report their root bounds without branching
(:meth:`~_MaskEngine.root_bounds`: recognised shapes, else the lower
bound and incumbent a search would start from), which settles a
"width ≤ cap?" question whenever the cap does not fall between them.

Both engines recognise closed-form shapes at module level
(:func:`recognized_treewidth` / :func:`recognized_pathwidth`), which is
how the width facade stays exact for paths, cycles and cliques beyond its
size window, mirroring :func:`~repro.decomposition.treedepth_engine.recognized_treedepth`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.decomposition.path_decomposition import (
    PathDecomposition,
    path_decomposition_from_ordering,
)
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.exceptions import DecompositionError
from repro.graphlib.graph import Graph

Vertex = Hashable

_popcount = int.bit_count


class _Entry:
    """Bounds for one subproblem mask.

    Invariant: ``choice`` always achieves ``ub`` — eliminating (treewidth)
    or placing (pathwidth) ``choice`` first and completing optimally stays
    within ``ub``.  When ``lb == ub`` the entry is exact and ``choice``
    starts an optimal ordering/layout.  ``deep`` marks whether the
    expensive bounds have run.
    """

    __slots__ = ("lb", "ub", "choice", "deep")

    def __init__(self, lb: int, ub: int, choice: int, deep: bool = False) -> None:
        self.lb = lb
        self.ub = ub
        self.choice = choice
        self.deep = deep


@dataclass(frozen=True)
class TreewidthResult:
    """Outcome of one treewidth run: value, witness ordering + decomposition, stats."""

    value: int
    ordering: List[Vertex]
    decomposition: TreeDecomposition
    subproblems: int
    branched: int


@dataclass(frozen=True)
class PathwidthResult:
    """Outcome of one pathwidth run: value, witness layout + decomposition, stats."""

    value: int
    layout: List[Vertex]
    decomposition: PathDecomposition
    subproblems: int
    branched: int


class _MaskEngine:
    """Shared bitmask plumbing for the width engines."""

    def __init__(self, graph: Graph, measure: str) -> None:
        if len(graph) == 0:
            raise DecompositionError(f"{measure} of the empty graph is undefined")
        self._graph = graph
        self._vertices: List[Vertex] = sorted(graph.vertices, key=repr)
        index = {v: i for i, v in enumerate(self._vertices)}
        self._adj: List[int] = [
            sum(1 << index[u] for u in graph.neighbors(v)) for v in self._vertices
        ]
        self._full = (1 << len(self._vertices)) - 1
        self._memo: Dict[int, _Entry] = {}
        self._candidate_cache: Dict[int, List[int]] = {}
        #: How many subproblems went through the branching loop (for stats).
        self.branched = 0

    def value(self, cap: Optional[int] = None) -> int:
        """Return the exact width of the graph: the maximum over its
        components, each a recognised shape or searched.

        With a ``cap`` the search answers "width ≤ cap?": it stops as soon
        as a certified lower bound passes the cap and returns that bound.
        A returned value ≤ ``cap`` is exact, and the memo then holds what
        the uncapped search would, so the witness is unchanged.
        """
        best = 0
        for comp in self._components(self._full):
            recognised = self._recognise(comp)
            if recognised is not None:
                best = max(best, recognised[0])
            else:
                best = max(best, self._solve_exact(comp, cap))
            if cap is not None and best > cap:
                break
        return best

    def root_bounds(self) -> Tuple[int, int]:
        """``(lower, upper)`` bounds on the width, with no branching.

        Per component: a recognised shape's exact value, else the bounds
        :meth:`value` would start its search from — for treewidth the
        contraction-degeneracy lower bound and the min-fill incumbent, for
        pathwidth the degeneracy lower bound and the boundary-greedy
        layout — kept in the memo, so a later search starts where these
        bounds stop.  The width is the maximum over components, so it lies
        between the maxima of the two bounds, and equals them when they
        meet.
        """
        lower = upper = 0
        for comp in self._components(self._full):
            recognised = self._recognise(comp)
            if recognised is not None:
                low = high = recognised[0]
            else:
                entry = self._memo.get(comp)
                if entry is None:
                    entry = self._memo[comp] = self._seed_entry(comp, _popcount(comp))
                if not entry.deep:
                    self._strengthen(comp, entry)
                low, high = entry.lb, entry.ub
            lower, upper = max(lower, low), max(upper, high)
        return lower, upper

    def _solve_exact(self, mask: int, cap: Optional[int] = None) -> int:
        """Iterative deepening: raise the budget from the lower bound until
        the branch-and-bound certifies it.  A lower bound past ``cap`` ends
        the deepening early."""
        budget = 0
        while True:
            value = self._solve(mask, budget)
            if value <= budget or (cap is not None and value > cap):
                return value
            budget = value  # a certified lower bound > budget

    def _bits(self, mask: int) -> List[int]:
        indices = []
        while mask:
            bit = mask & -mask
            mask ^= bit
            indices.append(bit.bit_length() - 1)
        return indices

    def _components(self, mask: int) -> List[int]:
        """Connected components of the induced subgraph, as masks."""
        components: List[int] = []
        remaining = mask
        while remaining:
            component = remaining & -remaining
            frontier = component
            while frontier:
                reached = 0
                probe = frontier
                while probe:
                    bit = probe & -probe
                    probe ^= bit
                    reached |= self._adj[bit.bit_length() - 1]
                frontier = reached & mask & ~component
                component |= frontier
            components.append(component)
            remaining &= ~component
        return components

    def _degeneracy(self, mask: int) -> int:
        """Degeneracy of the induced subgraph (min-degree elimination)."""
        degeneracy = 0
        remaining = mask
        while remaining:
            best_bit = 0
            best_degree = len(self._vertices) + 1
            probe = remaining
            while probe:
                bit = probe & -probe
                probe ^= bit
                degree = _popcount(self._adj[bit.bit_length() - 1] & remaining)
                if degree < best_degree:
                    best_degree = degree
                    best_bit = bit
            degeneracy = max(degeneracy, best_degree)
            remaining &= ~best_bit
        return degeneracy

    def _shape_order(self, mask: int, formulas: str) -> Optional[Tuple[int, List[int]]]:
        """Closed-form ``(width, achieving order)`` for a recognised
        connected component, else None.

        ``formulas`` selects the table: treewidth knows every tree is 1
        (leaf-peeling order); pathwidth only paths and stars (general
        trees have no O(1) pathwidth formula).  Shared: single vertex 0,
        cycle 2 (walking order), clique ``n − 1`` (any order), r×c grid
        ``min(r, c)`` (column-major along the short dimension).  Every
        returned order *achieves* the returned width as an elimination
        ordering and as a linear layout alike.
        """
        size = _popcount(mask)
        bits = self._bits(mask)
        if size == 1:
            return 0, bits
        twice_edges = 0
        max_degree = 0
        for i in bits:
            degree = _popcount(self._adj[i] & mask)
            twice_edges += degree
            if degree > max_degree:
                max_degree = degree
        edges = twice_edges // 2
        if edges == size * (size - 1) // 2:  # clique (also K2, K3)
            return size - 1, bits
        if max_degree <= 2 and edges == size:  # connected 2-regular: a cycle
            return 2, self._walk_order(mask, bits[0])
        if edges == size - 1:  # a tree
            if max_degree <= 2:  # a path: walk it endpoint to endpoint
                endpoint = next(
                    i for i in bits if _popcount(self._adj[i] & mask) == 1
                )
                return 1, self._walk_order(mask, endpoint)
            if formulas == "treewidth":
                return 1, self._leaf_peel_order(mask)
            if max_degree == size - 1:  # star: one leaf, centre, the rest
                centre = next(
                    i for i in bits if _popcount(self._adj[i] & mask) == size - 1
                )
                leaves = [i for i in bits if i != centre]
                return 1, [leaves[0], centre] + leaves[1:]
            return None
        grid = self._grid_order(mask, bits)
        if grid is not None:
            return grid
        return None

    def _walk_order(self, mask: int, start: int) -> List[int]:
        """Walk a path or cycle component from ``start``."""
        order = [start]
        seen = 1 << start
        current = start
        while True:
            nxt = self._adj[current] & mask & ~seen
            if not nxt:
                break
            current = (nxt & -nxt).bit_length() - 1
            seen |= 1 << current
            order.append(current)
        return order

    def _leaf_peel_order(self, mask: int) -> List[int]:
        """Eliminate a tree leaf by leaf — an ordering of width 1."""
        order = []
        remaining = mask
        while remaining:
            probe = remaining
            while probe:
                bit = probe & -probe
                probe ^= bit
                vertex = bit.bit_length() - 1
                if _popcount(self._adj[vertex] & remaining) <= 1:
                    order.append(vertex)
                    remaining &= ~bit
                    break
        return order

    def _grid_order(self, mask: int, bits: List[int]) -> Optional[Tuple[int, List[int]]]:
        """Recognise an r×c grid (2 ≤ r ≤ c) and return ``(r, column-major
        order)``.

        Column-major elimination along the short dimension achieves width
        exactly ``r`` for both measures: eliminating cell ``(i, j)`` meets
        the ``r − 1 − i`` cells below it in column ``j`` plus the ``i + 1``
        cells of column ``j + 1`` already reachable through the eliminated
        region, and symmetrically a column-major layout keeps a staircase
        boundary of ``r``.  2×2 grids are caught earlier as C4.
        """
        size = len(bits)
        degrees = {i: _popcount(self._adj[i] & mask) for i in bits}
        corners = [i for i in bits if degrees[i] == 2]
        if len(corners) != 4 or any(d not in (2, 3, 4) for d in degrees.values()):
            return None
        for rows in range(2, int(size**0.5) + 1):
            if size % rows:
                continue
            cols = size // rows
            border = sum(1 for d in degrees.values() if d == 3)
            interior = sum(1 for d in degrees.values() if d == 4)
            if border != 2 * (rows - 2) + 2 * (cols - 2):
                continue
            if interior != (rows - 2) * (cols - 2):
                continue
            coords = self._grid_coordinates(mask, corners[0], rows, cols)
            if coords is not None:
                order = [coords[(i, j)] for j in range(cols) for i in range(rows)]
                return rows, order
        return None

    def _grid_coordinates(
        self,
        mask: int,
        corner: int,
        rows: int,
        cols: int,
    ) -> Optional[Dict[Tuple[int, int], int]]:
        """Try to lay ``mask`` out as a ``rows × cols`` grid anchored at
        ``corner``; returns cell → vertex, or None if the shape is not
        that grid."""
        first, second = self._bits(self._adj[corner] & mask)
        for down, right in ((first, second), (second, first)):
            cells: Dict[Tuple[int, int], int] = {(0, 0): corner}
            if rows > 1:
                cells[(1, 0)] = down
            if cols > 1:
                cells[(0, 1)] = right
            placed = {corner, down, right}
            ok = True
            for diagonal in range(2, rows + cols - 1):
                if not ok:
                    break
                # Interior cells first: (i, j) is the unique common
                # neighbour of (i−1, j) and (i, j−1) besides (i−1, j−1).
                for i in range(max(1, diagonal - cols + 1), min(rows, diagonal)):
                    j = diagonal - i
                    if j < 1:
                        continue
                    common = (
                        self._adj[cells[(i - 1, j)]]
                        & self._adj[cells[(i, j - 1)]]
                        & mask
                        & ~(1 << cells[(i - 1, j - 1)])
                    )
                    if _popcount(common) != 1:
                        ok = False
                        break
                    vertex = common.bit_length() - 1
                    if vertex in placed:
                        ok = False
                        break
                    cells[(i, j)] = vertex
                    placed.add(vertex)
                if not ok:
                    break
                # Border cells: the remaining unplaced neighbour of the
                # previous border cell (its other neighbours are placed).
                for i, j in ((0, diagonal), (diagonal, 0)):
                    if i >= rows or j >= cols:
                        continue
                    previous = cells[(i - 1, 0)] if j == 0 else cells[(0, j - 1)]
                    candidates = [
                        v
                        for v in self._bits(self._adj[previous] & mask)
                        if v not in placed
                    ]
                    if len(candidates) != 1:
                        ok = False
                        break
                    cells[(i, j)] = candidates[0]
                    placed.add(candidates[0])
            if not ok or len(cells) != rows * cols:
                continue
            # Verify the full adjacency, which also rules out chords.
            valid = True
            for (i, j), vertex in cells.items():
                expected = 0
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    neighbour = cells.get((i + di, j + dj))
                    if neighbour is not None:
                        expected |= 1 << neighbour
                if self._adj[vertex] & mask != expected:
                    valid = False
                    break
            if valid:
                return cells
        return None


# ---------------------------------------------------------------------------
# treewidth
# ---------------------------------------------------------------------------

class TreewidthEngine(_MaskEngine):
    """Exact treewidth of one graph by branch and bound over elimination orderings."""

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph, "treewidth")
        self._fill_cache: Dict[int, Dict[int, int]] = {}
        self._recognised: Dict[int, Optional[Tuple[int, List[int]]]] = {}

    # -- public API ---------------------------------------------------------
    def _recognise(self, component: int) -> Optional[Tuple[int, List[int]]]:
        if component not in self._recognised:
            self._recognised[component] = self._shape_order(component, "treewidth")
        return self._recognised[component]

    def witness(self) -> Tuple[List[Vertex], TreeDecomposition]:
        """An optimal elimination ordering, replayed from the memo (the
        searches still open are finished first), and its validated
        decomposition."""
        ordering: List[Vertex] = []
        for comp in self._components(self._full):
            recognised = self._recognise(comp)
            if recognised is not None:
                ordering.extend(self._vertices[i] for i in recognised[1])
            else:
                self._order(comp, ordering)
        decomposition = TreeDecomposition.from_elimination_ordering(
            self._graph, ordering
        )
        if decomposition.width() != self.value():
            raise DecompositionError(
                "internal error: engine ordering does not witness its treewidth value"
            )
        return ordering, decomposition

    def run(self) -> TreewidthResult:
        """Compute the exact treewidth plus an optimal elimination ordering."""
        value = self.value()
        ordering, decomposition = self.witness()
        return TreewidthResult(
            value=value,
            ordering=ordering,
            decomposition=decomposition,
            subproblems=len(self._memo),
            branched=self.branched,
        )

    # -- fill-graph helpers -------------------------------------------------
    def _fill_neighbourhood(self, eliminated: int, vertex: int) -> int:
        """``Q(S, v)``: vertices outside ``eliminated`` adjacent to the
        component of ``vertex`` inside ``eliminated ∪ {vertex}`` — the
        neighbours of ``vertex`` in the fill graph after eliminating ``S``."""
        component = 1 << vertex
        frontier = component
        reached = 0
        while frontier:
            step = 0
            probe = frontier
            while probe:
                bit = probe & -probe
                probe ^= bit
                step |= self._adj[bit.bit_length() - 1]
            reached |= step
            frontier = step & eliminated & ~component
            component |= frontier
        return reached & ~eliminated & ~(1 << vertex)

    def _fill_adjacency(self, mask: int) -> Dict[int, int]:
        """Fill-graph neighbourhoods of every vertex of the subproblem."""
        cached = self._fill_cache.get(mask)
        if cached is not None:
            return cached
        eliminated = self._full & ~mask
        fill = {i: self._fill_neighbourhood(eliminated, i) for i in self._bits(mask)}
        self._fill_cache[mask] = fill
        return fill

    def _fill_components(self, remaining: int, eliminated: int) -> List[int]:
        """Components of ``remaining`` in the fill graph: connected through
        original edges or paths running inside ``eliminated``."""
        components: List[int] = []
        left = remaining
        passable = remaining | eliminated
        while left:
            seed = left & -left
            blob = seed  # remaining plus eliminated vertices explored
            frontier = seed
            while frontier:
                reached = 0
                probe = frontier
                while probe:
                    bit = probe & -probe
                    probe ^= bit
                    reached |= self._adj[bit.bit_length() - 1]
                frontier = reached & passable & ~blob
                blob |= frontier
            component = blob & remaining
            components.append(component)
            left &= ~component
        return components

    def _fill_count(self, adjacency: Dict[int, int], vertex: int) -> int:
        """Number of missing edges in the (fill-)neighbourhood of ``vertex``."""
        neighbourhood = adjacency[vertex]
        count = 0
        probe = neighbourhood
        while probe:
            bit = probe & -probe
            probe ^= bit
            other = bit.bit_length() - 1
            count += _popcount(neighbourhood & ~adjacency[other] & ~bit)
        return count // 2

    # -- bounds -------------------------------------------------------------
    def _contraction_degeneracy(self, adjacency: Dict[int, int]) -> int:
        """Max min-degree under least-common-neighbour contraction — a
        treewidth lower bound (a contraction is a minor, and the minimum
        degree bounds the treewidth of any graph from below)."""
        adj = dict(adjacency)
        best = 0
        while len(adj) > 1:
            vertex = min(adj, key=lambda u: (_popcount(adj[u]), u))
            degree = _popcount(adj[vertex])
            if degree > best:
                best = degree
            mask_v = adj.pop(vertex)
            if degree == 0:
                continue
            into = min(
                self._bits(mask_v),
                key=lambda w: (_popcount(mask_v & adj[w]), w),
            )
            merged = (mask_v | adj[into]) & ~(1 << vertex) & ~(1 << into)
            adj[into] = merged
            probe = merged
            while probe:
                bit = probe & -probe
                probe ^= bit
                other = bit.bit_length() - 1
                adj[other] = (adj[other] | (1 << into)) & ~(1 << vertex)
        return best

    def _minfill_upper(self, mask: int, adjacency: Dict[int, int]) -> Tuple[int, int, bool]:
        """Greedy min-fill elimination of the fill subgraph: returns the
        ordering width, its first vertex, and whether that vertex was
        simplicial (zero fill)."""
        adj = dict(adjacency)
        width = 0
        first = -1
        first_simplicial = False
        remaining = mask
        while remaining:
            best_key: Optional[Tuple[int, int, int]] = None
            best_vertex = -1
            probe = remaining
            while probe:
                bit = probe & -probe
                probe ^= bit
                vertex = bit.bit_length() - 1
                key = (
                    self._fill_count(adj, vertex),
                    _popcount(adj[vertex]),
                    vertex,
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best_vertex = vertex
            if first < 0:
                first = best_vertex
                first_simplicial = best_key is not None and best_key[0] == 0
            degree = _popcount(adj[best_vertex])
            if degree > width:
                width = degree
            clique = adj.pop(best_vertex)
            probe = clique
            while probe:
                bit = probe & -probe
                probe ^= bit
                other = bit.bit_length() - 1
                adj[other] = (adj[other] | (clique & ~bit)) & ~(1 << best_vertex)
            remaining &= ~(1 << best_vertex)
        return width, first, first_simplicial

    def _seed_entry(self, mask: int, size: int) -> _Entry:
        """Cheap first look: any order stays within ``size − 1``, and a
        fill-connected subproblem of ≥ 2 vertices has a fill edge."""
        lowest = (mask & -mask).bit_length() - 1
        if size == 1:
            return _Entry(0, 0, lowest, deep=True)
        return _Entry(1, size - 1, lowest)

    def _strengthen(self, mask: int, entry: _Entry) -> None:
        """Expensive bounds, run once, just before a subproblem branches:
        fill neighbourhoods, contraction-degeneracy lower bound, min-fill
        greedy incumbent, simplicial forcing and the branch order."""
        entry.deep = True
        fill = self._fill_adjacency(mask)
        lb = self._contraction_degeneracy(fill)
        if lb > entry.lb:
            entry.lb = lb
        ub, first, simplicial = self._minfill_upper(mask, fill)
        if ub < entry.ub:
            entry.ub = ub
            entry.choice = first
        if simplicial:
            # A simplicial vertex (fill neighbourhood already a clique) is
            # always safe to eliminate first — branch on it alone.
            self._candidate_cache[mask] = [first]
        else:
            scored = sorted(
                self._bits(mask),
                key=lambda v: (self._fill_count(fill, v), _popcount(fill[v]), v),
            )
            self._candidate_cache[mask] = scored

    # -- branch and bound ---------------------------------------------------
    def _solve(self, mask: int, budget: int) -> int:
        """Exact treewidth of the fill-connected subproblem ``mask`` when it
        is ≤ ``budget``; otherwise a valid lower bound exceeding ``budget``."""
        entry = self._memo.get(mask)
        if entry is None:
            entry = self._seed_entry(mask, _popcount(mask))
            self._memo[mask] = entry
        if entry.lb >= entry.ub:
            return entry.ub
        if entry.lb > budget:
            return entry.lb
        if not entry.deep:
            self._strengthen(mask, entry)
            if entry.lb >= entry.ub:
                return entry.ub
            if entry.lb > budget:
                return entry.lb
        self.branched += 1
        limit = min(budget, entry.ub - 1)
        fill = self._fill_adjacency(mask)
        candidates = self._candidate_cache[mask]
        if candidates[0] != entry.choice and entry.choice in candidates:
            candidates = [entry.choice] + [v for v in candidates if v != entry.choice]
        memo = self._memo
        eliminated = self._full & ~mask
        for vertex in candidates:
            if entry.lb > limit:
                break
            width_here = _popcount(fill[vertex])
            if width_here > limit:
                continue
            rest = mask & ~(1 << vertex)
            if not rest:
                entry.ub = width_here
                entry.choice = vertex
                limit = min(budget, entry.ub - 1)
                continue
            components = self._fill_components(rest, eliminated | (1 << vertex))
            # Cheap cut: known child lower bounds already exceed the limit.
            optimistic = width_here
            for component in components:
                child = memo.get(component)
                if child is not None and child.lb > optimistic:
                    optimistic = child.lb
            if optimistic > limit:
                continue
            components.sort(
                key=lambda c: (
                    memo[c].lb if c in memo else 1,
                    _popcount(c),
                ),
                reverse=True,
            )
            widest = width_here
            feasible = True
            for component in components:
                value = self._solve(component, limit)
                if value > limit:
                    feasible = False
                    break
                if value > widest:
                    widest = value
            if feasible:
                entry.ub = widest
                entry.choice = vertex
                limit = min(budget, entry.ub - 1)
        # The full pass proved no elimination start does better than ``limit``.
        entry.lb = max(entry.lb, limit + 1)
        return entry.ub if entry.lb >= entry.ub else entry.lb

    # -- witness reconstruction ---------------------------------------------
    def _order(self, mask: int, ordering: List[Vertex]) -> None:
        """Append an optimal elimination ordering of ``mask`` to ``ordering``."""
        entry = self._memo.get(mask)
        if entry is None or entry.lb < entry.ub:
            self._solve_exact(mask)
            entry = self._memo[mask]
        vertex = entry.choice
        ordering.append(self._vertices[vertex])
        rest = mask & ~(1 << vertex)
        if not rest:
            return
        eliminated = self._full & ~rest
        for component in self._fill_components(rest, eliminated):
            self._order(component, ordering)


# ---------------------------------------------------------------------------
# pathwidth
# ---------------------------------------------------------------------------

class PathwidthEngine(_MaskEngine):
    """Exact pathwidth of one graph by branch and bound over linear layouts."""

    def __init__(self, graph: Graph, lower_hint: int = 0) -> None:
        super().__init__(graph, "pathwidth")
        self._recognised: Dict[int, Optional[Tuple[int, List[int]]]] = {}
        #: A caller-certified lower bound on the pathwidth of the whole
        #: graph (the facade passes the exact treewidth, since pw ≥ tw).
        self._lower_hint = lower_hint
        n = len(self._vertices)
        self._twins: List[int] = [0] * n
        for u in range(n):
            for w in range(u + 1, n):
                if self._adj[u] & ~(1 << w) == self._adj[w] & ~(1 << u):
                    self._twins[u] |= 1 << w
                    self._twins[w] |= 1 << u

    # -- public API ---------------------------------------------------------
    def _recognise(self, component: int) -> Optional[Tuple[int, List[int]]]:
        if component not in self._recognised:
            self._recognised[component] = self._shape_order(component, "pathwidth")
        return self._recognised[component]

    def witness(self) -> Tuple[List[Vertex], PathDecomposition]:
        """An optimal linear layout, replayed from the memo (the searches
        still open are finished first), and its validated decomposition."""
        layout: List[Vertex] = []
        for comp in self._components(self._full):
            recognised = self._recognise(comp)
            if recognised is not None:
                layout.extend(self._vertices[i] for i in recognised[1])
            else:
                self._extend(comp, layout)
        decomposition = path_decomposition_from_ordering(self._graph, layout)
        if decomposition.width() != self.value():
            raise DecompositionError(
                "internal error: engine layout does not witness its pathwidth value"
            )
        return layout, decomposition

    def root_bounds(self) -> Tuple[int, int]:
        """:meth:`_MaskEngine.root_bounds`, the lower bound raised to the
        caller's hint, which the components of a disconnected graph lack."""
        lower, upper = super().root_bounds()
        return max(lower, self._lower_hint), upper

    def run(self) -> PathwidthResult:
        """Compute the exact pathwidth plus an optimal linear layout."""
        value = self.value()
        layout, decomposition = self.witness()
        return PathwidthResult(
            value=value,
            layout=layout,
            decomposition=decomposition,
            subproblems=len(self._memo),
            branched=self.branched,
        )

    # -- helpers ------------------------------------------------------------
    def _boundary(self, remaining: int) -> int:
        """Placed vertices that still have a neighbour inside ``remaining``."""
        boundary = 0
        probe = self._full & ~remaining
        while probe:
            bit = probe & -probe
            probe ^= bit
            if self._adj[bit.bit_length() - 1] & remaining:
                boundary |= bit
        return boundary

    def _next_boundary(self, boundary: int, after: int, vertex: int) -> int:
        """``_boundary(after)`` once ``vertex`` is placed, from ``boundary``,
        the boundary before it was.

        Only ``vertex`` and its placed neighbours can change: ``vertex``
        joins while it has an unplaced neighbour, and a placed neighbour
        (one of the boundary, since ``vertex`` was unplaced) leaves when
        ``vertex`` was its last unplaced one.
        """
        adj = self._adj
        neighbours = adj[vertex]
        if neighbours & after:
            boundary |= 1 << vertex
        probe = neighbours & boundary
        while probe:
            bit = probe & -probe
            probe ^= bit
            if not adj[bit.bit_length() - 1] & after:
                boundary ^= bit
        return boundary

    def _candidates(self, remaining: int, boundary: int) -> List[int]:
        """Vertices worth placing next, twin-pruned, best boundary first.

        With a non-empty boundary only neighbours of boundary vertices
        matter (anything else can be delayed until its first neighbour is
        placed).  A twin of a lower-index unplaced vertex never branches —
        swapping the pair is an automorphism fixing the placed set.
        """
        cached = self._candidate_cache.get(remaining)
        if cached is not None:
            return cached
        pool = 0
        probe = boundary
        while probe:
            bit = probe & -probe
            probe ^= bit
            pool |= self._adj[bit.bit_length() - 1]
        pool &= remaining
        if not pool:
            pool = remaining
        scored = []
        probe = pool
        while probe:
            bit = probe & -probe
            probe ^= bit
            vertex = bit.bit_length() - 1
            if self._twins[vertex] & remaining & (bit - 1):
                continue  # a lower-index twin is available instead
            after = remaining ^ bit
            scored.append((_popcount(self._next_boundary(boundary, after, vertex)), vertex))
        scored.sort()
        result = [vertex for _, vertex in scored]
        self._candidate_cache[remaining] = result
        return result

    # -- bounds -------------------------------------------------------------
    def _greedy_completion(self, remaining: int, boundary: int) -> Tuple[int, int]:
        """Greedy layout of ``remaining`` (``boundary`` its boundary):
        returns ``(max boundary, first vertex)``.  Commits closed vertices
        for free, otherwise places the candidate minimising the next
        boundary."""
        adj = self._adj
        current = remaining
        worst = 0
        first = -1
        while current:
            chosen = -1
            probe = current
            while probe:
                bit = probe & -probe
                probe ^= bit
                vertex = bit.bit_length() - 1
                if not adj[vertex] & current:
                    chosen = vertex  # no unplaced neighbours: free to place
                    following = self._next_boundary(boundary, current ^ bit, vertex)
                    break
            if chosen < 0:
                pool = 0
                probe = boundary
                while probe:
                    bit = probe & -probe
                    probe ^= bit
                    pool |= adj[bit.bit_length() - 1]
                pool &= current
                if not pool:
                    pool = current
                best_size = len(self._vertices) + 1
                probe = pool
                while probe:
                    bit = probe & -probe
                    probe ^= bit
                    vertex = bit.bit_length() - 1
                    after = self._next_boundary(boundary, current ^ bit, vertex)
                    size = _popcount(after)
                    if size < best_size:
                        best_size = size
                        chosen = vertex
                        following = after
                worst = max(worst, best_size)
            if first < 0:
                first = chosen
            current &= ~(1 << chosen)
            boundary = following
        return worst, first

    def _seed_entry(self, mask: int, size: int, boundary: int = 0) -> _Entry:
        """Cheap first look: any order stays within ``b(mask) + size − 1``
        future boundary, and an internal edge forces at least 1.
        ``boundary`` is ``b(mask)``, empty for a component of the graph."""
        lowest = (mask & -mask).bit_length() - 1
        if size == 1:
            return _Entry(0, 0, lowest, deep=True)
        has_edge = any(self._adj[i] & mask for i in self._bits(mask))
        lb = 1 if has_edge else 0
        if mask == self._full and self._lower_hint > lb:
            lb = self._lower_hint
        ub = _popcount(boundary) + size - 1
        return _Entry(lb, ub, lowest)

    def _strengthen(self, mask: int, entry: _Entry, boundary: int = 0) -> None:
        """Expensive bounds, run once, just before a subproblem branches:
        boundary-greedy incumbent from ``boundary``, as in
        :meth:`_seed_entry`, and, on a mask with an empty boundary (the
        graph, or a component once a prefix closes), the degeneracy lower
        bound (pw ≥ tw ≥ degeneracy, and future boundaries dominate any
        induced layout).  Below those masks it rarely prunes: a mask's
        degeneracy is at most that of any mask containing it, and a search
        budget starts at the lower bound above it."""
        entry.deep = True
        if not boundary:
            lb = self._degeneracy(mask)
            if lb > entry.lb:
                entry.lb = lb
        ub, first = self._greedy_completion(mask, boundary)
        if ub < entry.ub:
            entry.ub = ub
            entry.choice = first

    # -- branch and bound ---------------------------------------------------
    def _solve(self, remaining: int, budget: int) -> int:
        """Minimum over layouts of ``remaining`` of the maximum future
        boundary, when ≤ ``budget``; otherwise a lower bound exceeding it."""
        return self._search(remaining, self._boundary(remaining), budget)

    def _search(self, remaining: int, boundary: int, budget: int) -> int:
        """:meth:`_solve` given the boundary of ``remaining``, which each
        placement derives from its parent's (:meth:`_next_boundary`)."""
        if remaining == 0:
            return 0
        if not boundary:
            components = self._components(remaining)
            if len(components) > 1:
                # Closed prefix: lay the components out one after another.
                value = 0
                for component in components:
                    value = max(value, self._search(component, 0, budget))
                    if value > budget:
                        return value
                return value
        entry = self._memo.get(remaining)
        if entry is None:
            entry = self._seed_entry(remaining, _popcount(remaining), boundary)
            self._memo[remaining] = entry
        if entry.lb >= entry.ub:
            return entry.ub
        if entry.lb > budget:
            return entry.lb
        if not entry.deep:
            self._strengthen(remaining, entry, boundary)
            if entry.lb >= entry.ub:
                return entry.ub
            if entry.lb > budget:
                return entry.lb
        self.branched += 1
        limit = min(budget, entry.ub - 1)
        forced = self._forced_vertex(remaining)
        if forced >= 0:
            candidates = [forced]
        else:
            candidates = self._candidates(remaining, boundary)
            if candidates and candidates[0] != entry.choice and entry.choice in candidates:
                candidates = [entry.choice] + [
                    v for v in candidates if v != entry.choice
                ]
        memo = self._memo
        for vertex in candidates:
            if entry.lb > limit:
                break
            after = remaining & ~(1 << vertex)
            following = self._next_boundary(boundary, after, vertex)
            here = _popcount(following)
            if here > limit:
                continue
            child = memo.get(after)
            if child is not None and child.lb > limit:
                continue
            value = self._search(after, following, limit)
            if value > limit:
                continue
            entry.ub = max(here, value)
            entry.choice = vertex
            limit = min(budget, entry.ub - 1)
        # The full pass proved no next placement does better than ``limit``.
        entry.lb = max(entry.lb, limit + 1)
        return entry.ub if entry.lb >= entry.ub else entry.lb

    def _forced_vertex(self, remaining: int) -> int:
        """A vertex with no unplaced neighbours, or −1.  Placing such a
        vertex immediately is always optimal: the boundary can only shrink."""
        probe = remaining
        while probe:
            bit = probe & -probe
            probe ^= bit
            vertex = bit.bit_length() - 1
            if not self._adj[vertex] & remaining & ~bit:
                return vertex
        return -1

    # -- witness reconstruction ---------------------------------------------
    def _extend(self, remaining: int, layout: List[Vertex]) -> None:
        """Append an optimal layout of ``remaining`` to ``layout``."""
        if remaining == 0:
            return
        if not self._boundary(remaining):
            components = self._components(remaining)
            if len(components) > 1:
                for component in components:
                    self._extend(component, layout)
                return
        entry = self._memo.get(remaining)
        if entry is None or entry.lb < entry.ub:
            self._solve_exact(remaining)
            entry = self._memo[remaining]
        vertex = entry.choice
        layout.append(self._vertices[vertex])
        self._extend(remaining & ~(1 << vertex), layout)


# ---------------------------------------------------------------------------
# module-level API
# ---------------------------------------------------------------------------

def compute_treewidth(graph: Graph) -> TreewidthResult:
    """Exact treewidth of ``graph`` with an optimal witness decomposition."""
    return TreewidthEngine(graph).run()


def engine_treewidth(graph: Graph) -> int:
    """Exact treewidth of ``graph`` (value only)."""
    return TreewidthEngine(graph).value()


def engine_treewidth_ordering(graph: Graph) -> Tuple[int, List[Vertex]]:
    """Exact treewidth and an elimination ordering achieving it."""
    result = compute_treewidth(graph)
    return result.value, result.ordering


def compute_pathwidth(graph: Graph, lower_hint: int = 0) -> PathwidthResult:
    """Exact pathwidth of ``graph`` with an optimal witness decomposition.

    ``lower_hint`` may carry any certified lower bound on the pathwidth
    (typically the exact treewidth); the search never returns less.
    """
    return PathwidthEngine(graph, lower_hint).run()


def engine_pathwidth(graph: Graph, lower_hint: int = 0) -> int:
    """Exact pathwidth of ``graph`` (value only)."""
    return PathwidthEngine(graph, lower_hint).value()


def engine_pathwidth_layout(graph: Graph, lower_hint: int = 0) -> Tuple[int, List[Vertex]]:
    """Exact pathwidth and a linear layout achieving it."""
    result = compute_pathwidth(graph, lower_hint)
    return result.value, result.layout


def recognized_treewidth(graph: Graph) -> Optional[int]:
    """Closed-form treewidth when *every* component is a recognised shape.

    Trees (width 1), cycles (2), cliques (``n − 1``) and grids
    (``min(r, c)``) have O(1) treewidth, so exactness costs nothing at
    any size — this is how the width facade keeps reporting exact
    treewidth for P30-scale rigid cores beyond its general size cutoff.
    Returns None when any component is not recognised.
    """
    if len(graph) == 0:
        return None
    engine = _MaskEngine(graph, "treewidth")
    best = 0
    for component in engine._components(engine._full):
        recognised = engine._shape_order(component, "treewidth")
        if recognised is None:
            return None
        best = max(best, recognised[0])
    return best


def recognized_pathwidth(graph: Graph) -> Optional[int]:
    """Closed-form pathwidth when *every* component is a recognised shape.

    Paths and stars (width 1), cycles (2), cliques (``n − 1``) and grids
    (``min(r, c)``); general trees carry no O(1) pathwidth formula and
    defeat recognition.  Returns None when any component is not
    recognised.
    """
    if len(graph) == 0:
        return None
    engine = _MaskEngine(graph, "pathwidth")
    best = 0
    for component in engine._components(engine._full):
        recognised = engine._shape_order(component, "pathwidth")
        if recognised is None:
            return None
        best = max(best, recognised[0])
    return best
