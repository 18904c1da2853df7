"""Generic backtracking homomorphism solver.

The solver treats ``hom(A, B)`` as a constraint satisfaction problem whose
variables are the elements of ``A``, whose domains are derived from the
unary relations of ``B``, and whose constraints are the tuples of ``A``.
It supports plain homomorphisms, embeddings (injective homomorphisms),
finding a single witness, exhaustive enumeration, and counting, and it
accepts a pre-assigned partial map.

This is the "ground truth" engine that every specialised algorithm in the
library (tree-depth solver, core engine, machine pipelines) is tested
against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.exceptions import VocabularyError
from repro.homomorphism.obstructions import nullary_obstruction
from repro.structures.structure import Structure

Element = Hashable
Assignment = Dict[Element, Element]


class HomomorphismProblem:
    """A prepared ``hom(A → B)`` search problem.

    Parameters
    ----------
    source:
        The left-hand structure ``A``.
    target:
        The right-hand structure ``B``; must share A's vocabulary (symbols
        present in A must be present in B with the same arity).
    injective:
        When True, search for embeddings instead of arbitrary homomorphisms.
    """

    def __init__(self, source: Structure, target: Structure, injective: bool = False) -> None:
        for symbol in source.vocabulary:
            if symbol.name not in target.vocabulary:
                raise VocabularyError(
                    f"target structure does not interpret {symbol.name!r}"
                )
            if target.vocabulary.arity(symbol.name) != symbol.arity:
                raise VocabularyError(
                    f"arity mismatch for {symbol.name!r} between source and target"
                )
        self._source = source
        self._target = target
        self._injective = injective
        self._constraints = self._build_constraints()
        self._domains = self._initial_domains()

    # -- construction -------------------------------------------------------
    def _build_constraints(self) -> List[Tuple[str, Tuple[Element, ...]]]:
        constraints = []
        for symbol in self._source.vocabulary:
            if symbol.arity == 0:
                continue
            for tup in self._source.relation(symbol.name):
                constraints.append((symbol.name, tup))
        # Order constraints deterministically so search traces are reproducible.
        constraints.sort(key=lambda item: (item[0], tuple(map(repr, item[1]))))
        return constraints

    def _initial_domains(self) -> Dict[Element, FrozenSet[Element]]:
        universe = frozenset(self._target.universe)
        domains: Dict[Element, Set[Element]] = {a: set(universe) for a in self._source.universe}
        # Unary relations restrict domains directly.
        for symbol in self._source.vocabulary:
            if symbol.arity != 1:
                continue
            allowed = {b for (b,) in self._target.relation(symbol.name)}
            for (a,) in self._source.relation(symbol.name):
                domains[a] &= allowed
        # Binary relations: an element appearing in position i of a tuple must
        # have *some* support in position i of the target relation.
        for symbol in self._source.vocabulary:
            if symbol.arity < 2:
                continue
            target_tuples = self._target.relation(symbol.name)
            for position in range(symbol.arity):
                supported = {t[position] for t in target_tuples}
                for tup in self._source.relation(symbol.name):
                    domains[tup[position]] &= supported
        return {a: frozenset(d) for a, d in domains.items()}

    # -- accessors ------------------------------------------------------------
    @property
    def source(self) -> Structure:
        """The left-hand structure."""
        return self._source

    @property
    def target(self) -> Structure:
        """The right-hand structure."""
        return self._target

    def domains(self) -> Dict[Element, FrozenSet[Element]]:
        """Return the pruned initial domains (useful for diagnostics)."""
        return dict(self._domains)

    # -- solving -----------------------------------------------------------------
    def solutions(
        self, partial: Optional[Mapping[Element, Element]] = None
    ) -> Iterator[Assignment]:
        """Yield every homomorphism extending the optional partial assignment."""
        assignment: Assignment = dict(partial or {})
        for element, value in assignment.items():
            if element not in self._source.universe:
                raise VocabularyError(f"partial assignment uses unknown element {element!r}")
            if value not in self._domains.get(element, frozenset()):
                return
        if self._injective and len(set(assignment.values())) != len(assignment):
            return
        # Arity-0 atoms constrain no element, so the element-driven search
        # below never sees them; they are decided here, up front.
        if nullary_obstruction(self._source, self._target):
            return
        if not self._consistent(assignment):
            return
        order = self._variable_order(assignment)
        yield from self._search(order, 0, assignment)

    def find(self, partial: Optional[Mapping[Element, Element]] = None) -> Optional[Assignment]:
        """Return one homomorphism (extending ``partial``) or None."""
        for solution in self.solutions(partial):
            return solution
        return None

    def exists(self, partial: Optional[Mapping[Element, Element]] = None) -> bool:
        """Return True when a homomorphism (extending ``partial``) exists."""
        return self.find(partial) is not None

    def count(self, partial: Optional[Mapping[Element, Element]] = None) -> int:
        """Return the number of homomorphisms extending ``partial``."""
        return sum(1 for _ in self.solutions(partial))

    # -- internals -------------------------------------------------------------------
    def _variable_order(self, assignment: Assignment) -> List[Element]:
        unassigned = [a for a in self._source.universe if a not in assignment]
        # Most-constrained-first: smaller domain, then higher degree.
        degree: Dict[Element, int] = {a: 0 for a in self._source.universe}
        for _, tup in self._constraints:
            for element in set(tup):
                degree[element] += 1
        unassigned.sort(key=lambda a: (len(self._domains[a]), -degree[a], repr(a)))
        return unassigned

    def _consistent(self, assignment: Assignment) -> bool:
        """Check every constraint whose scope is fully assigned."""
        for name, tup in self._constraints:
            if all(x in assignment for x in tup):
                image = tuple(assignment[x] for x in tup)
                if image not in self._target.relation(name):
                    return False
        return True

    def _consistent_with(self, assignment: Assignment, element: Element) -> bool:
        """Check constraints that involve ``element`` and are fully assigned."""
        for name, tup in self._constraints:
            if element not in tup:
                continue
            if all(x in assignment for x in tup):
                image = tuple(assignment[x] for x in tup)
                if image not in self._target.relation(name):
                    return False
        return True

    def _search(
        self, order: List[Element], index: int, assignment: Assignment
    ) -> Iterator[Assignment]:
        if index == len(order):
            yield dict(assignment)
            return
        element = order[index]
        used_values = set(assignment.values()) if self._injective else set()
        for value in sorted(self._domains[element], key=repr):
            if self._injective and value in used_values:
                continue
            assignment[element] = value
            if self._consistent_with(assignment, element):
                yield from self._search(order, index + 1, assignment)
            del assignment[element]


def find_homomorphism(
    source: Structure,
    target: Structure,
    partial: Optional[Mapping[Element, Element]] = None,
) -> Optional[Assignment]:
    """Return a homomorphism ``source → target`` (extending ``partial``) or None."""
    return HomomorphismProblem(source, target).find(partial)


def has_homomorphism(source: Structure, target: Structure) -> bool:
    """Return True when a homomorphism ``source → target`` exists."""
    return HomomorphismProblem(source, target).exists()


def count_homomorphisms(source: Structure, target: Structure) -> int:
    """Return the number of homomorphisms ``source → target``."""
    return HomomorphismProblem(source, target).count()


def enumerate_homomorphisms(source: Structure, target: Structure) -> List[Assignment]:
    """Return all homomorphisms ``source → target`` as a list."""
    return list(HomomorphismProblem(source, target).solutions())


def find_embedding(
    source: Structure,
    target: Structure,
    partial: Optional[Mapping[Element, Element]] = None,
) -> Optional[Assignment]:
    """Return an embedding (injective homomorphism) or None."""
    return HomomorphismProblem(source, target, injective=True).find(partial)


def has_embedding(source: Structure, target: Structure) -> bool:
    """Return True when an embedding ``source → target`` exists."""
    return HomomorphismProblem(source, target, injective=True).exists()


def count_embeddings(source: Structure, target: Structure) -> int:
    """Return the number of embeddings ``source → target``."""
    return HomomorphismProblem(source, target, injective=True).count()


def is_homomorphism(
    mapping: Mapping[Element, Element], source: Structure, target: Structure
) -> bool:
    """Check that ``mapping`` is a (total) homomorphism ``source → target``."""
    if set(mapping) != set(source.universe):
        return False
    if any(value not in target.universe for value in mapping.values()):
        return False
    for symbol in source.vocabulary:
        target_tuples = target.relation(symbol.name)
        for tup in source.relation(symbol.name):
            if tuple(mapping[x] for x in tup) not in target_tuples:
                return False
    return True


def is_partial_homomorphism(
    mapping: Mapping[Element, Element], source: Structure, target: Structure
) -> bool:
    """Check that ``mapping`` is a partial homomorphism (Section 2.1).

    The empty mapping counts; otherwise the mapping must be a homomorphism
    from the substructure induced by its domain.
    """
    if not mapping:
        return True
    domain = set(mapping)
    if not domain <= set(source.universe):
        return False
    if any(value not in target.universe for value in mapping.values()):
        return False
    induced = source.induced_substructure(domain)
    return is_homomorphism(mapping, induced, target)


def compatible(left: Mapping[Element, Element], right: Mapping[Element, Element]) -> bool:
    """Return True when two partial functions agree on their common domain."""
    if len(left) > len(right):
        left, right = right, left
    return all(right.get(key, value) == value for key, value in left.items())
