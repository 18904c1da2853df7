"""Branch-and-bound exact treedepth for mid-sized graphs (13–25 elements).

The seed algorithm (kept with the tests in ``tests/oracles/seeds.py``)
recurses on *every* vertex of every connected induced subgraph it meets,
memoising on frozensets — an ``O*(2^n)`` subset dynamic program whose
per-call cost is dominated by rebuilding :class:`~repro.graphlib.graph.Graph`
objects.  That is what forces the width facade to abandon exactness beyond
12 vertices and report the trivial DFS-height bound (td(C13) = 13), which
in turn misroutes exactly the big rigid cores the core engine made cheap.

This engine keeps the same recurrence — ``td`` of a connected graph is
``1 + min_v td(G − v)``, of a disconnected one the max over components —
but prunes the subset space hard:

* **bitset subgraphs** — vertices map to bit positions once; connected
  components, degrees, degeneracy and traversals are integer arithmetic,
  and the memo key is a plain ``int`` mask (canonical for the induced
  subgraph), never a rebuilt ``Graph``;
* **recursive component splitting** — removal candidates that disconnect
  the graph (articulation-style roots) are branched first, because the
  recursion then takes a max over small components instead of descending
  into one graph of size ``n − 1``;
* **dominance pruning** — a vertex ``u`` with ``N(u) ⊆ N[v]`` never needs
  to be tried as a root (rooting at ``v`` instead can only do better), so
  dense subgraphs branch on a handful of representatives instead of all
  ``n`` vertices;
* **iterative deepening** — feasibility is tested budget by budget
  starting from the lower bound, so failing searches are cut at shallow
  depth and the memo accumulates certified lower bounds between rounds;
* **lower bounds** — any DFS-tree root-to-leaf path is a simple path, so
  ``td ≥ ⌈log2(L + 1)⌉`` for the deepest such path found (double-sweep
  heuristic); a back edge of the second sweep closes a cycle, so
  ``td ≥ td(C_ℓ) = 1 + ⌈log2 ℓ⌉`` for the longest such cycle ``ℓ`` (tree
  depth never grows on taking a subgraph); and ``td ≥ degeneracy + 1``
  (treedepth dominates treewidth); a subproblem whose bound meets the
  branch budget is cut immediately;
* **greedy upper bounds** — a balanced-separator greedy decomposition
  (pick the vertex minimising the largest remaining component) and a DFS
  forest both witness feasible orderings; the better one seeds the
  incumbent and its root seeds the branch order, so the search starts
  from a good solution and only has to *prove* it (or beat it).  It runs
  only once a subproblem is about to branch: one its lower bounds settle
  never needs it;
* **closed forms** — paths, cycles and cliques (the shapes the rigid-core
  workloads actually produce) are recognised per subproblem and solved in
  O(1): ``td(P_n) = ⌈log2(n+1)⌉``, ``td(C_n) = 1 + ⌈log2 n⌉``,
  ``td(K_n) = n``.

Every exact memo entry stores a root that *achieves* its value, so an
optimal elimination forest — the witness
:meth:`~repro.decomposition.treedepth.EliminationForest.witnesses`
verifies, and the para-L solver consumes — is reconstructed by walking
roots, at no extra search cost.

The seed solver is kept with the tests (``tests/oracles/seeds.py``) for
differential testing; ``benchmarks/bench_treedepth.py`` gates the engine
against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.decomposition.treedepth import EliminationForest
from repro.exceptions import DecompositionError
from repro.graphlib.graph import Graph

Vertex = Hashable

_popcount = int.bit_count


def _log2_ceil(value: int) -> int:
    """Return ``⌈log2(value)⌉`` for ``value ≥ 1``."""
    return (value - 1).bit_length()


class _Entry:
    """Bounds for one connected induced subgraph (a bitmask).

    Invariant: ``root`` always achieves ``ub`` — i.e. removing ``root``
    and solving the components optimally yields a forest of height
    at most ``ub``.  When ``lb == ub`` the entry is exact and ``root`` is
    an optimal elimination-forest root for the subgraph.  ``deep`` marks
    whether the expensive lower bounds (degeneracy, double-sweep path and
    cycle) have run and ``greedy`` whether the greedy decomposition has;
    cheap entries carry one-DFS bounds only.
    """

    __slots__ = ("lb", "ub", "root", "deep", "greedy")

    def __init__(self, lb: int, ub: int, root: int, deep: bool = False) -> None:
        self.lb = lb
        self.ub = ub
        self.root = root
        self.deep = deep
        self.greedy = deep


@dataclass(frozen=True)
class TreedepthResult:
    """Outcome of one engine run: the exact value, its witness, and stats."""

    value: int
    forest: EliminationForest
    subproblems: int
    branched: int


class TreedepthEngine:
    """Exact treedepth of one graph by branch and bound over bitmask subgraphs."""

    def __init__(self, graph: Graph) -> None:
        if len(graph) == 0:
            raise DecompositionError("tree depth of the empty graph is undefined")
        self._graph = graph
        self._vertices: List[Vertex] = sorted(graph.vertices, key=repr)
        index = {v: i for i, v in enumerate(self._vertices)}
        self._adj: List[int] = [
            sum(1 << index[u] for u in graph.neighbors(v)) for v in self._vertices
        ]
        self._full = (1 << len(self._vertices)) - 1
        self._memo: Dict[int, _Entry] = {}
        self._greedy_cache: Dict[int, Tuple[int, int]] = {}
        self._candidate_cache: Dict[int, List[int]] = {}
        self._split_cache: Dict[int, List[Tuple[int, int, int]]] = {}
        #: How many subproblems went through the branching loop (for stats).
        self.branched = 0

    # -- public API ---------------------------------------------------------
    def value(self, cap: Optional[int] = None) -> int:
        """Return the exact treedepth of the graph.

        With a ``cap`` the search answers "td ≤ cap?": it stops as soon as
        a certified lower bound passes the cap and returns that bound.  A
        returned value ≤ ``cap`` is exact, and the memo then holds exactly
        what the uncapped search would, so :meth:`forest` is unchanged.
        """
        best = 0
        for comp in self._components(self._full):
            best = max(best, self._solve_exact(comp, cap))
            if cap is not None and best > cap:
                break
        return best

    def _solve_exact(self, mask: int, cap: Optional[int] = None) -> int:
        """Iterative deepening: raise the budget from the lower bound until
        the branch-and-bound certifies it, so failing searches stay shallow.
        A lower bound past ``cap`` ends the deepening early."""
        budget = 1
        while True:
            value = self._solve(mask, budget)
            if value <= budget or (cap is not None and value > cap):
                return value
            budget = value  # a certified lower bound > budget

    def forest(self) -> EliminationForest:
        """An optimal elimination forest, replayed from the memo (the
        searches still open are finished first) and verified."""
        parent: Dict[Vertex, Vertex] = {}
        roots: List[Vertex] = []
        for comp in self._components(self._full):
            self._attach(comp, None, parent, roots)
        forest = EliminationForest(parent, roots)
        if forest.height() != self.value() or not forest.witnesses(self._graph):
            raise DecompositionError(
                "internal error: engine forest does not witness its treedepth value"
            )
        return forest

    def run(self) -> TreedepthResult:
        """Compute the exact treedepth plus an optimal witness forest."""
        value = self.value()
        forest = self.forest()
        return TreedepthResult(
            value=value,
            forest=forest,
            subproblems=len(self._memo),
            branched=self.branched,
        )

    # -- bitmask helpers ----------------------------------------------------
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

    def _bits(self, mask: int) -> List[int]:
        indices = []
        while mask:
            bit = mask & -mask
            mask ^= bit
            indices.append(bit.bit_length() - 1)
        return indices

    def _edge_count(self, mask: int) -> int:
        return sum(_popcount(self._adj[i] & mask) for i in self._bits(mask)) // 2

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

    def _dfs_depth_from(self, start: int, mask: int) -> Tuple[int, int]:
        """Return ``(depth, deepest vertex)`` of a DFS tree rooted at ``start``.

        Every root-to-leaf path of a DFS tree is a simple path of the
        graph, so the depth is a valid longest-simple-path lower bound
        witness (and the tree height a treedepth upper bound).
        """
        adj = self._adj
        seen = 1 << start
        best_depth, best_vertex = 1, start
        stack: List[Tuple[int, int]] = [(start, 1)]
        while stack:
            vertex, depth = stack[-1]
            candidates = adj[vertex] & mask & ~seen
            if candidates:
                bit = candidates & -candidates
                seen |= bit
                child = bit.bit_length() - 1
                stack.append((child, depth + 1))
                if depth + 1 > best_depth:
                    best_depth, best_vertex = depth + 1, child
            else:
                stack.pop()
        return best_depth, best_vertex

    # -- bounds -------------------------------------------------------------
    def _split_scores(self, mask: int) -> List[Tuple[int, int, int]]:
        """Per-vertex removal scores ``(largest remaining component, -degree,
        vertex)`` for connected ``mask``, sorted best splitter first.

        One Tarjan articulation-point DFS yields, for every vertex, the
        size of the largest component its removal leaves — O(n + m) total
        instead of one component sweep per vertex.  Non-cut vertices leave
        a single component of size ``n − 1``.
        """
        cached = self._split_cache.get(mask)
        if cached is not None:
            return cached
        adj = self._adj
        size_total = _popcount(mask)
        root = (mask & -mask).bit_length() - 1
        disc: Dict[int, int] = {}
        low: Dict[int, int] = {}
        subtree: Dict[int, int] = {}
        # Largest split-off subtree total and split-off sum, per vertex.
        split_max: Dict[int, int] = {}
        split_sum: Dict[int, int] = {}
        counter = 0
        stack: List[Tuple[int, int, int]] = [(root, -1, 0)]
        pending: List[Tuple[int, int]] = []  # postorder (vertex, parent)
        while stack:
            vertex, parent, state = stack.pop()
            if state == 0:
                if vertex in disc:
                    # The edge (parent, vertex) is a non-tree edge seen from
                    # above; record it in the parent's low link.
                    if parent >= 0:
                        low[parent] = min(low[parent], disc[vertex])
                    continue
                disc[vertex] = low[vertex] = counter
                counter += 1
                subtree[vertex] = 1
                split_max[vertex] = 0
                split_sum[vertex] = 0
                stack.append((vertex, parent, 1))
                probe = adj[vertex] & mask
                while probe:
                    bit = probe & -probe
                    probe ^= bit
                    child = bit.bit_length() - 1
                    if child != parent and child not in disc:
                        stack.append((child, vertex, 0))
                    elif child != parent:
                        low[vertex] = min(low[vertex], disc[child])
            else:
                pending.append((vertex, parent))
        for vertex, parent in pending:
            if parent < 0:
                continue
            low[parent] = min(low[parent], low[vertex])
            subtree[parent] += subtree[vertex]
            if low[vertex] >= disc[parent]:
                split_max[parent] = max(split_max[parent], subtree[vertex])
                split_sum[parent] += subtree[vertex]
        scored = []
        for vertex in self._bits(mask):
            # Split-off subtrees separate from the rest of the graph; for
            # the DFS root every child subtree splits off and the rest is 0.
            rest = size_total - 1 - split_sum[vertex]
            largest = max(split_max[vertex], rest)
            degree = _popcount(adj[vertex] & mask)
            scored.append((largest, -degree, vertex))
        scored.sort()
        self._split_cache[mask] = scored
        return scored

    def _greedy_upper(self, mask: int) -> Tuple[int, int]:
        """Greedy upper bound ``(height, root index)`` with a witness root.

        Roots at the best balanced separator (the vertex minimising the
        largest component it leaves behind) and recurses on the
        components; also tries the DFS forest height and keeps whichever
        is lower.  The stored root achieves the returned height.
        """
        cached = self._greedy_cache.get(mask)
        if cached is not None:
            return cached
        size = _popcount(mask)
        if size == 1:
            result = (1, (mask & -mask).bit_length() - 1)
            self._greedy_cache[mask] = result
            return result
        best_root = self._split_scores(mask)[0][2]
        height = 1
        for component in self._components(mask & ~(1 << best_root)):
            height = max(height, 1 + self._greedy_upper(component)[0])
        start = (mask & -mask).bit_length() - 1
        dfs_height, _ = self._dfs_depth_from(start, mask)
        if dfs_height < height:
            height, best_root = dfs_height, start
        result = (height, best_root)
        self._greedy_cache[mask] = result
        return result

    # -- closed-form shapes -------------------------------------------------
    def _path_middle(self, mask: int) -> int:
        """Return the index of the middle vertex of a path subgraph."""
        endpoints = [
            i for i in self._bits(mask) if _popcount(self._adj[i] & mask) <= 1
        ]
        current = min(endpoints)
        order = [current]
        seen = 1 << current
        while True:
            nxt = self._adj[current] & mask & ~seen
            if not nxt:
                break
            current = (nxt & -nxt).bit_length() - 1
            seen |= 1 << current
            order.append(current)
        return order[len(order) // 2]

    def _recognise(self, mask: int, size: int) -> Optional[Tuple[int, int]]:
        """Closed-form ``(treedepth, achieving root)`` for a connected
        subgraph when it is a recognised shape, else None.

        The single source of the path / cycle / clique formulas —
        ``td(P_n) = ⌈log2(n+1)⌉`` (rooted at the middle vertex),
        ``td(C_n) = 1 + ⌈log2 n⌉`` and ``td(K_n) = n`` (rooted anywhere)
        — shared by subproblem seeding and by the whole-graph
        recognition the width facade uses beyond its size window.
        """
        lowest = (mask & -mask).bit_length() - 1
        if size == 1:
            return (1, lowest)
        if size == 2:
            return (2, lowest)
        twice_edges = 0
        max_degree = 0
        for i in self._bits(mask):
            degree = _popcount(self._adj[i] & mask)
            twice_edges += degree
            if degree > max_degree:
                max_degree = degree
        edges = twice_edges // 2
        if max_degree <= 2 and edges == size - 1:
            return (_log2_ceil(size + 1), self._path_middle(mask))
        if max_degree <= 2 and edges == size:  # connected, 2-regular: a cycle
            return (1 + _log2_ceil(size), lowest)
        if edges == size * (size - 1) // 2:  # clique
            return (size, lowest)
        return None

    def _seed_entry(self, mask: int, size: int) -> _Entry:
        """Cheap first look at a connected subgraph: shapes + one DFS.

        Recognised shapes (path / cycle / clique) come out exact.  For
        the rest one DFS tree provides both bounds: its height is a
        feasible ordering rooted at the start vertex (upper bound), and
        its deepest root-to-leaf path is a simple path (``⌈log2(L+1)⌉``
        lower bound).  The expensive bounds wait until the subproblem
        actually branches (:meth:`_strengthen`).
        """
        recognised = self._recognise(mask, size)
        if recognised is not None:
            value, root = recognised
            return _Entry(value, value, root, deep=True)
        start = (mask & -mask).bit_length() - 1
        depth, _ = self._dfs_depth_from(start, mask)
        has_cycle = self._edge_count(mask) >= size
        lb = max(_log2_ceil(depth + 1), 3 if has_cycle else 2)
        return _Entry(lb, depth, start)

    def _dfs_path_and_cycle(self, start: int, mask: int) -> Tuple[int, int]:
        """Return ``(depth, longest cycle)`` of a DFS tree rooted at ``start``.

        The depth counts the vertices of the deepest root-to-leaf path, a
        simple path, as in :meth:`_dfs_depth_from`, which walks the same
        tree.  The cycle is the longest one a back edge closes, 0 when
        none does.  A DFS of an undirected graph has no cross edges:
        every neighbour already seen when a vertex is discovered is an
        ancestor on the stack, and the edge to the one at stack position
        ``i`` closes a cycle through the ``len(stack) − i`` tree vertices
        from it down and the new vertex.
        """
        adj = self._adj
        seen = 1 << start
        stack = [start]
        depth = 1
        longest = 0
        while stack:
            vertex = stack[-1]
            candidates = adj[vertex] & mask & ~seen
            if candidates:
                bit = candidates & -candidates
                child = bit.bit_length() - 1
                back = adj[child] & seen & ~(1 << vertex)
                if back:
                    top = next(i for i, a in enumerate(stack) if back >> a & 1)
                    longest = max(longest, len(stack) - top + 1)
                seen |= bit
                stack.append(child)
                depth = max(depth, len(stack))
            else:
                stack.pop()
        return depth, longest

    def _strengthen(self, mask: int, entry: _Entry, budget: int) -> None:
        """Expensive bounds, run once each: double-sweep path, DFS cycle and
        degeneracy lower bounds, then the greedy upper bound once the
        subproblem is about to branch.

        The cycle bound is ``td(C_ℓ) = 1 + ⌈log2 ℓ⌉`` for the longest
        cycle the second sweep's DFS closes with a back edge: tree depth
        never grows on taking a subgraph.

        A lower bound past ``budget`` (or meeting the upper bound) is what
        the visit returns with or without the incumbent, so the greedy
        decomposition waits for a visit whose budget the bound fits.  The
        first branching pass still starts from the seed bound improved by
        the greedy one, so values, roots and branching are those of running
        it at once, and the subproblems a capped search only bounds never
        run it.
        """
        if not entry.deep:
            entry.deep = True
            start = (mask & -mask).bit_length() - 1
            _, far = self._dfs_depth_from(start, mask)
            path_vertices, cycle = self._dfs_path_and_cycle(far, mask)
            lb = max(entry.lb, _log2_ceil(path_vertices + 1), self._degeneracy(mask) + 1)
            if cycle:
                lb = max(lb, 1 + _log2_ceil(cycle))
            entry.lb = lb
            if lb > budget or lb >= entry.ub:
                return
        entry.greedy = True
        ub, root = self._greedy_upper(mask)
        if ub < entry.ub:
            entry.ub = ub
            entry.root = root

    # -- branch and bound ---------------------------------------------------
    def _solve(self, mask: int, budget: int) -> int:
        """Exact treedepth of connected ``mask`` when it is ≤ ``budget``;
        otherwise a valid lower bound exceeding ``budget``."""
        entry = self._memo.get(mask)
        if entry is None:
            entry = self._seed_entry(mask, _popcount(mask))
            self._memo[mask] = entry
        if entry.lb >= entry.ub:
            return entry.ub
        if entry.lb > budget:
            return entry.lb
        if not entry.greedy:
            self._strengthen(mask, entry, budget)
            if entry.lb >= entry.ub:
                return entry.ub
            if entry.lb > budget:
                return entry.lb
        self.branched += 1
        limit = min(budget, entry.ub - 1)
        candidates = self._branch_candidates(mask)
        if candidates[0] != entry.root and entry.root in candidates:
            # Incumbent-driven ordering: the root that achieves the current
            # upper bound branches first (when it survived dominance pruning).
            candidates = [entry.root] + [v for v in candidates if v != entry.root]
        memo = self._memo
        for vertex in candidates:
            if entry.lb > limit:
                break
            components = self._components(mask & ~(1 << vertex))
            # Cheap cut: known child lower bounds already exceed the limit.
            optimistic = 0
            for component in components:
                child = memo.get(component)
                if child is not None and child.lb > optimistic:
                    optimistic = child.lb
            if 1 + optimistic > limit:
                continue
            components.sort(
                key=lambda c: (
                    memo[c].lb if c in memo else 1,
                    _popcount(c),
                ),
                reverse=True,
            )
            deepest = 0
            feasible = True
            for component in components:
                value = self._solve(component, limit - 1)
                if value > limit - 1:
                    feasible = False
                    break
                deepest = max(deepest, value)
            if feasible:
                entry.ub = 1 + deepest
                entry.root = vertex
                limit = min(budget, entry.ub - 1)
        # The full pass proved no root does better than ``limit``.
        entry.lb = max(entry.lb, limit + 1)
        return entry.ub if entry.lb >= entry.ub else entry.lb

    def _branch_candidates(self, mask: int) -> List[int]:
        """Root candidates for connected ``mask``, best splitters first.

        A vertex ``u`` with ``N(u) ∩ S ⊆ N[v] ∩ S`` is dominated: swapping
        ``u`` and ``v`` in any elimination forest rooted at ``u`` yields an
        equally high forest rooted at ``v``, so ``u`` never branches
        (mutually dominating vertices keep the lowest index only).  The
        survivors keep the :meth:`_split_scores` order — articulation-style
        splitters ahead of vertices that leave the graph connected.
        """
        cached = self._candidate_cache.get(mask)
        if cached is not None:
            return cached
        bits = self._bits(mask)
        neighbourhoods = {u: self._adj[u] & mask for u in bits}
        kept = set()
        for u in bits:
            open_u = neighbourhoods[u]
            closed_u = open_u | (1 << u)
            dominated = False
            for v in bits:
                if v == u:
                    continue
                closed_v = neighbourhoods[v] | (1 << v)
                if open_u & ~closed_v:
                    continue  # v does not dominate u
                if neighbourhoods[v] & ~closed_u:  # strict domination
                    dominated = True
                    break
                if v < u:  # mutual domination (twins): keep the lowest index
                    dominated = True
                    break
            if not dominated:
                kept.add(u)
        result = [v for _, _, v in self._split_scores(mask) if v in kept]
        self._candidate_cache[mask] = result
        return result

    # -- witness reconstruction ---------------------------------------------
    def _attach(
        self,
        mask: int,
        attach: Optional[Vertex],
        parent: Dict[Vertex, Vertex],
        roots: List[Vertex],
    ) -> None:
        """Build the witness forest below ``attach`` for connected ``mask``."""
        entry = self._memo.get(mask)
        if entry is None or entry.lb < entry.ub:
            self._solve_exact(mask)
            entry = self._memo[mask]
        vertex = self._vertices[entry.root]
        if attach is None:
            roots.append(vertex)
        else:
            parent[vertex] = attach
        for component in self._components(mask & ~(1 << entry.root)):
            self._attach(component, vertex, parent, roots)


# ---------------------------------------------------------------------------
# module-level API
# ---------------------------------------------------------------------------

def compute_treedepth(graph: Graph) -> TreedepthResult:
    """Exact treedepth of ``graph`` with an optimal witness forest."""
    return TreedepthEngine(graph).run()


def engine_treedepth(graph: Graph) -> int:
    """Exact treedepth of ``graph`` (value only)."""
    return TreedepthEngine(graph).value()


def engine_elimination_forest(graph: Graph) -> EliminationForest:
    """A height-optimal elimination forest of ``graph``."""
    return compute_treedepth(graph).forest


def recognized_treedepth(graph: Graph) -> Optional[int]:
    """Closed-form treedepth when *every* component is a recognised shape.

    Paths, cycles, cliques (and single vertices) have O(1) treedepth
    formulas, so exactness costs nothing at any size — this is how the
    width facade keeps reporting exact depth for P30-scale rigid cores
    beyond its general size cutoff.  Returns None when any component is
    not recognised.
    """
    if len(graph) == 0:
        return None
    engine = TreedepthEngine(graph)
    best = 0
    for component in engine._components(engine._full):
        recognised = engine._recognise(component, _popcount(component))
        if recognised is None:
            return None
        best = max(best, recognised[0])
    return best
