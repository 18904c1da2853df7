"""The bounded-tree-depth homomorphism algorithm (Lemma 3.3), compiled and memoised.

The paper shows that when ``td(core(A)) ≤ w`` the problem ``p-HOM(A)`` is
in para-L: ``A`` is characterised by an ``{∧,∃}``-sentence of quantifier
rank ``≤ w + 1`` (built along an elimination forest of the core), and such
sentences can be model-checked in space ``O(f(k) + log n)``.  The sentence
itself is built by :mod:`repro.logic.treedepth_sentence`.

:class:`TreeDepthSolver` runs the algorithmic content of that proof: a
recursion over an elimination forest whose live state is one assignment
of the current root path.  It is the engine of every bounded degree: the
para-L route runs it on the forest that certified the core's tree depth,
the PATH and TREE routes on a min-fill elimination tree
(:func:`~repro.decomposition.heuristics.min_fill_elimination_forest`),
and :func:`~repro.counting.count_hom` on the min-fill tree of the pattern
itself.  The constructor compiles the recursion once per (structure, forest):

* the forest's vertices are numbered in pre-order (ancestors first), and
  every vertex gets its children;
* every positive-arity atom is attached to its *deepest* forest vertex.
  The elements of an atom are pairwise adjacent in the Gaifman graph and
  the forest witnesses that graph, so they are pairwise in
  ancestor/descendant relation: they lie on one root path, and when the
  recursion assigns the deepest of them all of them are assigned.  The
  atoms attached along a root path are then exactly the atoms inside it,
  so checking each vertex's attached atoms as it is assigned checks what
  the proof checks — that the root-path assignment is a partial
  homomorphism — with every atom checked once instead of at every
  vertex below it;
* every vertex gets its *boundary*: the ancestors adjacent to its
  subtree, computed bottom-up as the ancestors its attached atoms name
  plus its children's boundaries, minus itself.  Whether the subtree
  extends the root-path assignment depends only on the boundary's values.

:meth:`TreeDepthSolver.exists` and :meth:`TreeDepthSolver.count` draw a
vertex's candidate values from the target's hash indexes
(:func:`~repro.structures.indexes.structure_index`): of the atoms attached
there, the one with the fewest rows matching the already-assigned
positions supplies the values, and the others are checked by membership.
Only a vertex with no attached atom ranges over the whole universe, in
the order the target's index sorts once and keeps.  A vertex whose
boundary is a strict subset of its ancestors memoises its subtree's
result on the boundary's values for the rest of the call, so a subtree
is solved once per boundary assignment rather than once per root-path
assignment (the bag-keyed tables of tree-decomposition dynamic
programming).  A vertex whose boundary is all of its ancestors keeps no
entry: its key cannot repeat within one search.
The recursion runs on an explicit stack, so a forest of any height is
answered within the interpreter's default recursion limit.

The indexes and the memo trade the paper's ``O(f(k) + log n)`` space for
time.  The logspace recursion, which tests every universe value by
rebuilding the induced root-path substructure, is kept with the tests
(``tests/oracles/treedepth_recursion.py``) as the reference this module
is checked against.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.decomposition.treedepth import EliminationForest, exact_elimination_forest
from repro.exceptions import DecompositionError, VocabularyError
from repro.homomorphism.cores import core as compute_core
from repro.homomorphism.obstructions import nullary_obstruction
from repro.structures.gaifman import gaifman_graph
from repro.structures.indexes import structure_index
from repro.structures.structure import Structure

Element = Hashable
RelationTuple = Tuple[Element, ...]
#: The values of the forest's vertices, indexed by pre-order number.  Only
#: the entries of the current root path are read.
Values = List[Element]
#: Reads the tuple of values at fixed vertex numbers.
TupleGetter = Callable[[Values], RelationTuple]

#: Marks an exhausted candidate iterator.
_DONE = object()


def _tuple_getter(vertices: Sequence[int]) -> TupleGetter:
    """Return a function reading the values of ``vertices`` as a tuple."""
    if len(vertices) > 1:
        return itemgetter(*vertices)
    if vertices:
        (only,) = vertices
        return lambda values: (values[only],)
    return lambda values: ()


class _Atom(NamedTuple):
    """A source atom, attached to the deepest forest vertex among its elements."""

    name: str
    #: The positions holding an ancestor of the attachment vertex (sorted):
    #: assigned whenever the vertex is.
    bound_positions: Tuple[int, ...]
    #: The positions holding the attachment vertex itself (at least one).
    own_positions: Tuple[int, ...]
    #: The ancestors at the bound positions.
    bound_vertices: Tuple[int, ...]
    #: Read the values at the bound positions, and the atom's image.
    bound: TupleGetter
    image: TupleGetter


class _Lookup(NamedTuple):
    """An attached atom resolved against one target."""

    #: Values at the atom's bound positions → the target rows carrying them.
    rows_by_key: Mapping[RelationTuple, Sequence[RelationTuple]]
    #: Reads the values at the atom's bound positions.
    bound: TupleGetter
    own_positions: Tuple[int, ...]
    #: The target relation.
    relation: FrozenSet[RelationTuple]
    #: Reads the atom's image under the assignment.
    image: TupleGetter


class TreeDepthSolver:
    """Decides ``hom(A → B)`` by recursion over an elimination forest of ``core(A)``.

    Parameters
    ----------
    source:
        The left-hand structure ``A``.
    forest:
        Optional elimination forest of (the Gaifman graph of) ``core(A)``.
        When omitted, the core and an optimal forest are computed.
    use_core:
        When True (default) the recursion runs on ``core(A)``, matching the
        paper; homomorphism existence from ``A`` and from its core
        coincide.
    """

    def __init__(
        self,
        source: Structure,
        forest: Optional[EliminationForest] = None,
        use_core: bool = True,
    ) -> None:
        self._original = source
        self._source = compute_core(source) if use_core else source
        gaifman = gaifman_graph(self._source)
        if forest is None:
            forest = exact_elimination_forest(gaifman)
        if not forest.witnesses(gaifman):
            raise DecompositionError(
                "elimination forest does not witness the (core) source structure"
            )
        self._forest = forest
        # Number the vertices in pre-order, so an ancestor's number is
        # smaller than its descendants'.
        number: Dict[Element, int] = {}
        parents: List[Optional[int]] = []
        depth: List[int] = []
        children: List[List[int]] = []
        roots: List[int] = []
        pending: List[Tuple[Element, Optional[int]]] = [(root, None) for root in forest.roots]
        pending.reverse()
        while pending:
            vertex, parent = pending.pop()
            index = number[vertex] = len(parents)
            parents.append(parent)
            children.append([])
            if parent is None:
                depth.append(1)
                roots.append(index)
            else:
                depth.append(depth[parent] + 1)
                children[parent].append(index)
            pending.extend((child, index) for child in reversed(forest.children(vertex)))
        #: Maximum number of simultaneously live assignments — the forest
        #: height (the paper's tree depth bound).
        self.max_live_assignment = max(depth, default=0)
        self._roots: Tuple[int, ...] = tuple(roots)
        self._children: List[Tuple[int, ...]] = [tuple(kids) for kids in children]
        self._attached = _attach_atoms(self._source, number)
        # The post-order pass: a vertex's boundary is the ancestors its
        # atoms name plus its children's boundaries, minus itself.
        boundaries = [
            set().union(*[atom.bound_vertices for atom in atoms]) for atoms in self._attached
        ]
        for vertex in range(len(parents) - 1, -1, -1):
            boundary = boundaries[vertex]
            boundary.discard(vertex)
            parent = parents[vertex]
            if parent is not None:
                boundaries[parent] |= boundary
        #: Per vertex, the reader of its memo key, or None when the
        #: boundary is every ancestor and the key cannot repeat.
        self._memo_keys: List[Optional[TupleGetter]] = [
            _tuple_getter(sorted(boundary)) if len(boundary) < depth[vertex] - 1 else None
            for vertex, boundary in enumerate(boundaries)
        ]
        #: The largest boundary: the width of the tree decomposition whose
        #: bags are each vertex with its boundary, and so the most values
        #: a memo key holds (on a min-fill tree, the ordering's width).
        self.max_boundary = max(map(len, boundaries), default=0)

    @property
    def source(self) -> Structure:
        """The structure the recursion actually runs on (the core by default)."""
        return self._source

    @property
    def forest(self) -> EliminationForest:
        """The elimination forest guiding the recursion."""
        return self._forest

    # -- binding to a target ---------------------------------------------------
    def _resolve(
        self, target: Structure
    ) -> Tuple[List[Tuple[_Lookup, ...]], Sequence[Element]]:
        """Resolve every attached atom against ``target``'s hash indexes.

        Also returns the values of a vertex with no attached atom: the
        sorted universe, which the target's index keeps for every solve,
        or nothing when every vertex has an atom.
        """
        for symbol in self._source.vocabulary:
            # A target that does not interpret a source symbol, or gives it
            # another arity, is an error, even when the source relation is
            # empty (as in the backtracking solver).
            if target.vocabulary.arity(symbol.name) != symbol.arity:
                raise VocabularyError(
                    f"arity mismatch for {symbol.name!r} between source and target"
                )
        index = structure_index(target)
        lookups: List[Tuple[_Lookup, ...]] = []
        for atoms in self._attached:
            resolved = []
            for atom in atoms:
                rows_by_key = index.relation(atom.name).table(atom.bound_positions)
                relation = target.relation(atom.name)
                resolved.append(
                    _Lookup(rows_by_key, atom.bound, atom.own_positions, relation, atom.image)
                )
            lookups.append(tuple(resolved))
        if all(lookups):
            return lookups, ()
        return lookups, index.sorted_universe

    # -- solving -------------------------------------------------------------
    def exists(self, target: Structure) -> bool:
        """Return True when there is a homomorphism from the source into ``target``."""
        return self._solve(target, first=True) > 0

    def count(self, target: Structure) -> int:
        """Count homomorphisms from the (non-core) source into ``target``.

        Counting must *not* pass to the core (the count changes), so this
        method requires the solver to have been built with
        ``use_core=False``; otherwise a :class:`DecompositionError` is
        raised to prevent silently wrong counts.
        """
        if self._source is not self._original and self._source != self._original:
            raise DecompositionError(
                "counting requires use_core=False (counts differ on the core)"
            )
        return self._solve(target, first=False)

    def _solve(self, target: Structure, first: bool) -> int:
        """Count homomorphisms into ``target`` (at most 1 when ``first``)."""
        lookups, universe = self._resolve(target)
        # The recursion walks Gaifman-graph components, so an arity-0 atom
        # (which touches no element) must be checked before it starts.
        if nullary_obstruction(self._source, target):
            return 0
        values: Values = [None] * len(self._children)
        memos: List[Dict[RelationTuple, int]] = [{} for _ in self._children]
        total = 1
        for root in self._roots:
            total *= self._extensions(root, values, lookups, universe, memos, first)
            if not total:
                return 0
        return total

    def _extensions(
        self,
        root: int,
        values: Values,
        lookups: List[Tuple[_Lookup, ...]],
        universe: Sequence[Element],
        memos: List[Dict[RelationTuple, int]],
        first: bool,
    ) -> int:
        """Count the extensions of the root-path assignment to ``root``'s subtree.

        The sum–product–sum recursion of the counting classification
        (Theorem 6.1, case 3); with ``first`` a vertex stops at its first
        extending value, so the result is 0 or 1 and ``∃x_v φ_v`` is decided.
        A frame is ``[children, candidates, child position, product of
        the finished children, total, vertex, memo key]``.
        """
        children, memo_keys = self._children, self._memo_keys
        stack: List[list] = []
        vertex: Optional[int] = root
        count: Optional[int] = None
        while True:
            if vertex is not None:
                # Enter ``vertex``: answer it from its memo or as a leaf, or
                # open a frame over its candidates.
                memo_key = memo_keys[vertex]
                key = None
                if memo_key is not None:
                    key = memo_key(values)
                    count = memos[vertex].get(key)
                if count is None:
                    candidates = _candidates(vertex, lookups[vertex], values, universe)
                    kids = children[vertex]
                    if kids:
                        stack.append([kids, candidates, 0, 1, 0, vertex, key])
                    else:
                        if first:
                            count = int(next(candidates, _DONE) is not _DONE)
                        else:
                            count = sum(1 for _ in candidates)
                        if memo_key is not None:
                            memos[vertex][key] = count
                vertex = None
            if not stack:
                return count  # type: ignore[return-value]
            frame = stack[-1]
            if count is not None:
                # The child at the frame's position finished with ``count``.
                product = frame[3] * count
                position = frame[2] + 1
                if product and position < len(frame[0]):
                    frame[2], frame[3] = position, product
                    vertex, count = frame[0][position], None
                    continue
                frame[4] += product
            if (first and frame[4]) or next(frame[1], _DONE) is _DONE:
                stack.pop()
                count = frame[4]
                if memo_keys[frame[5]] is not None:
                    memos[frame[5]][frame[6]] = count
                continue
            # A new value for the frame's vertex: descend to its first child.
            frame[2], frame[3] = 0, 1
            vertex, count = frame[0][0], None


def _attach_atoms(
    structure: Structure, number: Mapping[Element, int]
) -> List[Tuple[_Atom, ...]]:
    """Attach every positive-arity atom to its deepest forest vertex — the
    element with the largest pre-order number, since they share a root path.

    A vertex's atoms come in the order of their numbered tuples.
    """
    attached: List[List[_Atom]] = [[] for _ in number]
    number_of = number.__getitem__
    for symbol in structure.vocabulary:
        if symbol.arity == 0:
            continue
        for vertices in sorted(
            tuple(map(number_of, tup)) for tup in structure.relation(symbol.name)
        ):
            if len(vertices) == 2:  # every graph atom: no generator needed
                first, second = vertices
                if first == second:
                    vertex, bound, own, bound_vertices = first, (), (0, 1), ()
                elif first > second:
                    vertex, bound, own, bound_vertices = first, (1,), (0,), (second,)
                else:
                    vertex, bound, own, bound_vertices = second, (0,), (1,), (first,)
            else:
                vertex = max(vertices)
                bound = tuple(p for p, x in enumerate(vertices) if x != vertex)
                own = tuple(p for p, x in enumerate(vertices) if x == vertex)
                bound_vertices = tuple(vertices[p] for p in bound)
            attached[vertex].append(
                _Atom(
                    name=symbol.name,
                    bound_positions=bound,
                    own_positions=own,
                    bound_vertices=bound_vertices,
                    bound=_tuple_getter(bound_vertices),
                    image=_tuple_getter(vertices),
                )
            )
    return [tuple(atoms) for atoms in attached]


def _candidates(
    vertex: int,
    lookups: Tuple[_Lookup, ...],
    values: Values,
    universe: Sequence[Element],
) -> Iterator[Element]:
    """Yield each value of ``vertex`` that satisfies its attached atoms.

    The value is stored in ``values`` before it is yielded.  The atom with
    the fewest rows matching the assigned positions supplies the values;
    the others are checked by membership.
    """
    if not lookups:
        for value in universe:
            values[vertex] = value
            yield value
        return
    rows, chosen = None, lookups[0]
    for lookup in lookups:
        found = lookup.rows_by_key.get(lookup.bound(values), ())
        if not found:
            return
        if rows is None or len(found) < len(rows):
            rows, chosen = found, lookup
    first, *repeated = chosen.own_positions
    others = [lookup for lookup in lookups if lookup is not chosen]
    for row in rows:
        value = row[first]
        if repeated and any(row[p] != value for p in repeated):
            continue
        values[vertex] = value
        if all(lookup.image(values) in lookup.relation for lookup in others):
            yield value


def homomorphism_exists_treedepth(source: Structure, target: Structure) -> bool:
    """Decide ``hom(source → target)`` with the bounded-tree-depth recursion."""
    return TreeDepthSolver(source).exists(target)


def count_homomorphisms_treedepth(source: Structure, target: Structure) -> int:
    """Count homomorphisms with the tree-depth recursion (no core reduction)."""
    return TreeDepthSolver(source, use_core=False).count(target)
