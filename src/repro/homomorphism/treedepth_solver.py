"""The bounded-tree-depth homomorphism algorithm (Lemma 3.3), compiled.

The paper shows that when ``td(core(A)) ≤ w`` the problem ``p-HOM(A)`` is
in para-L: ``A`` is characterised by an ``{∧,∃}``-sentence of quantifier
rank ``≤ w + 1`` (built along an elimination forest of the core), and such
sentences can be model-checked in space ``O(f(k) + log n)``.  The sentence
itself is built by :mod:`repro.logic.treedepth_sentence`.

:class:`TreeDepthSolver` runs the algorithmic content of that proof: a
recursion over an elimination forest whose depth is the tree depth and
whose live state is one assignment of the current root path.  The
constructor compiles the recursion once per (structure, forest):

* every vertex gets its children list;
* every positive-arity atom is attached to its *deepest* forest vertex.
  The elements of an atom are pairwise adjacent in the Gaifman graph and
  the forest witnesses that graph, so they are pairwise in
  ancestor/descendant relation: they lie on one root path, and when the
  recursion assigns the deepest of them all of them are assigned.  The
  atoms attached along a root path are then exactly the atoms inside it,
  so checking each vertex's attached atoms as it is assigned checks what
  the proof checks — that the root-path assignment is a partial
  homomorphism — with every atom checked once instead of at every
  vertex below it.

:meth:`TreeDepthSolver.exists` and :meth:`TreeDepthSolver.count` draw a
vertex's candidate values from the target's hash indexes
(:func:`~repro.structures.indexes.structure_index`): of the atoms attached
there, the one with the fewest rows matching the already-assigned
positions supplies the values, and the others are checked by membership.
Only a vertex with no attached atom ranges over the whole universe, sorted
once per call.

The indexes trade the paper's ``O(f(k) + log n)`` space for time: they
hold hash tables over the target's relations.  The logspace recursion,
which tests every universe value by rebuilding the induced root-path
substructure, is kept with the tests (``tests/oracles/treedepth_recursion.py``)
as the reference this module is checked against.
"""

from __future__ import annotations

from typing import (
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
from repro.exceptions import DecompositionError
from repro.homomorphism.cores import core as compute_core
from repro.homomorphism.obstructions import nullary_obstruction
from repro.structures.gaifman import gaifman_graph
from repro.structures.indexes import stable_sorted, structure_index
from repro.structures.structure import Structure

Element = Hashable
Assignment = Dict[Element, Element]
RelationTuple = Tuple[Element, ...]


class _Atom(NamedTuple):
    """A source atom, attached to the deepest forest vertex among its elements."""

    name: str
    elements: RelationTuple
    #: The positions holding an ancestor of the attachment vertex (sorted),
    #: and the ancestors there: assigned whenever the vertex is.
    bound_positions: Tuple[int, ...]
    bound_elements: RelationTuple
    #: The positions holding the attachment vertex itself (at least one).
    own_positions: Tuple[int, ...]


class _Lookup(NamedTuple):
    """An attached atom resolved against one target."""

    #: Values at the atom's bound positions → the target rows carrying them.
    rows_by_key: Mapping[RelationTuple, Sequence[RelationTuple]]
    bound_elements: RelationTuple
    own_positions: Tuple[int, ...]
    #: The target relation (empty when the target gives the symbol another arity).
    relation: FrozenSet[RelationTuple]
    elements: RelationTuple


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
        #: Maximum number of simultaneously live assignments — the recursion
        #: depth, which equals the forest height (the paper's tree depth bound).
        self.max_live_assignment = forest.height()
        self._roots: Tuple[Element, ...] = tuple(forest.roots)
        self._children: Dict[Element, Tuple[Element, ...]] = {
            vertex: tuple(forest.children(vertex)) for vertex in forest.vertices()
        }
        self._attached = _attach_atoms(self._source, forest)

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
    ) -> Tuple[Dict[Element, Tuple[_Lookup, ...]], List[Element]]:
        """Resolve every attached atom against ``target``'s hash indexes.

        Also returns the values of a vertex with no attached atom: the
        sorted universe, or nothing when every vertex has an atom.
        """
        for symbol in self._source.vocabulary:
            # A target that does not interpret a source symbol is an error,
            # even when the source relation is empty.
            target.relation(symbol.name)
        index = structure_index(target)
        lookups: Dict[Element, Tuple[_Lookup, ...]] = {}
        for vertex, atoms in self._attached.items():
            resolved = []
            for atom in atoms:
                if target.vocabulary.arity(atom.name) == len(atom.elements):
                    rows_by_key = index.relation(atom.name).table(atom.bound_positions)
                    relation = target.relation(atom.name)
                else:  # no target tuple can be the atom's image
                    rows_by_key, relation = {}, frozenset()
                resolved.append(
                    _Lookup(
                        rows_by_key,
                        atom.bound_elements,
                        atom.own_positions,
                        relation,
                        atom.elements,
                    )
                )
            lookups[vertex] = tuple(resolved)
        if all(lookups.values()):
            return lookups, []
        return lookups, stable_sorted(target.universe)

    # -- solving -------------------------------------------------------------
    def exists(self, target: Structure) -> bool:
        """Return True when there is a homomorphism from the source into ``target``."""
        # The recursion walks Gaifman-graph components, so an arity-0 atom
        # (which touches no element) must be checked before it starts.
        if nullary_obstruction(self._source, target):
            return False
        lookups, universe = self._resolve(target)
        assignment: Assignment = {}
        return all(
            self._extends(root, assignment, lookups, universe) for root in self._roots
        )

    def _extends(
        self,
        vertex: Element,
        assignment: Assignment,
        lookups: Dict[Element, Tuple[_Lookup, ...]],
        universe: List[Element],
    ) -> bool:
        """Decide ``∃x_vertex φ_vertex`` under the assignment of the root path above."""
        children = self._children[vertex]
        for _ in _candidates(vertex, lookups[vertex], assignment, universe):
            for child in children:
                if not self._extends(child, assignment, lookups, universe):
                    break
            else:
                del assignment[vertex]
                return True
        assignment.pop(vertex, None)
        return False

    # -- counting -----------------------------------------------------------
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
        if nullary_obstruction(self._source, target):
            return 0
        lookups, universe = self._resolve(target)
        assignment: Assignment = {}
        total = 1
        for root in self._roots:
            total *= self._count_extensions(root, assignment, lookups, universe)
            if total == 0:
                return 0
        return total

    def _count_extensions(
        self,
        vertex: Element,
        assignment: Assignment,
        lookups: Dict[Element, Tuple[_Lookup, ...]],
        universe: List[Element],
    ) -> int:
        """Count extensions of the root-path assignment to the subtree at ``vertex``.

        Mirrors the sum–product–sum recursion of the counting classification
        (Theorem 6.1, case 3).
        """
        children = self._children[vertex]
        total = 0
        for _ in _candidates(vertex, lookups[vertex], assignment, universe):
            product = 1
            for child in children:
                product *= self._count_extensions(child, assignment, lookups, universe)
                if product == 0:
                    break
            total += product
        assignment.pop(vertex, None)
        return total


def _attach_atoms(
    structure: Structure, forest: EliminationForest
) -> Dict[Element, Tuple[_Atom, ...]]:
    """Attach every positive-arity atom to its deepest forest vertex."""
    depth = {vertex: forest.depth(vertex) for vertex in forest.vertices()}
    attached: Dict[Element, List[_Atom]] = {vertex: [] for vertex in depth}
    for symbol in structure.vocabulary:
        if symbol.arity == 0:
            continue
        for tup in stable_sorted(structure.relation(symbol.name)):
            vertex = max(tup, key=depth.__getitem__)
            bound = tuple(p for p, x in enumerate(tup) if x != vertex)
            attached[vertex].append(
                _Atom(
                    name=symbol.name,
                    elements=tup,
                    bound_positions=bound,
                    bound_elements=tuple(tup[p] for p in bound),
                    own_positions=tuple(p for p, x in enumerate(tup) if x == vertex),
                )
            )
    return {vertex: tuple(atoms) for vertex, atoms in attached.items()}


def _candidates(
    vertex: Element,
    lookups: Tuple[_Lookup, ...],
    assignment: Assignment,
    universe: List[Element],
) -> Iterator[Element]:
    """Yield each value of ``vertex`` that satisfies its attached atoms.

    The value is bound in ``assignment`` before it is yielded.  The atom
    with the fewest rows matching the assigned positions supplies the
    values; the others are checked by membership.
    """
    if not lookups:
        for value in universe:
            assignment[vertex] = value
            yield value
        return
    rows, chosen = None, lookups[0]
    for lookup in lookups:
        key = tuple(assignment[x] for x in lookup.bound_elements)
        found = lookup.rows_by_key.get(key, ())
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
        assignment[vertex] = value
        if all(
            tuple(assignment[x] for x in lookup.elements) in lookup.relation
            for lookup in others
        ):
            yield value


def homomorphism_exists_treedepth(source: Structure, target: Structure) -> bool:
    """Decide ``hom(source → target)`` with the bounded-tree-depth recursion."""
    return TreeDepthSolver(source).exists(target)


def count_homomorphisms_treedepth(source: Structure, target: Structure) -> int:
    """Count homomorphisms with the tree-depth recursion (no core reduction)."""
    return TreeDepthSolver(source, use_core=False).count(target)
