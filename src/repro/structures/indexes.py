"""Per-relation hash indexes over structures — the solvers' storage layer.

The forest engine (:class:`~repro.homomorphism.treedepth_solver.TreeDepthSolver`)
never ranges a constrained variable over the whole target universe.
Instead it extends partial maps
one variable at a time, asking the *target* structure questions of the
form "which tuples of relation ``R`` have value ``b₂`` in position 1 and
value ``b₇`` in position 3?".  This module answers those questions in
(amortised) constant time per tuple returned: each relation gets a
:class:`RelationIndex` that lazily builds one hash table per
bound-position pattern, and :class:`StructureIndex` bundles the relation
indexes of one structure together with per-position value columns.

Indexes are pure accelerators — they never change answers, only the time
to compute them — and are cached per structure via
:func:`structure_index` so repeated queries against the same database
(e.g. a batched ``EVAL(Φ)`` run) pay the build cost once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.structures.structure import Structure

Element = Hashable
RelationTuple = Tuple[Element, ...]
Positions = Tuple[int, ...]


def stable_key(element: Element) -> Tuple[str, str]:
    """Return a sort key that is stable across mixed and repr-colliding types.

    Sorting heterogeneous universes by ``repr`` alone mis-sorts when two
    distinct elements share a repr (the relative order then depends on
    insertion order, so "equal" mappings can canonicalise differently).
    Prefixing the type name disambiguates every case the library meets;
    the repr keeps the order human-predictable within one type.
    """
    return (type(element).__name__, repr(element))


def stable_sorted(elements: Iterable[Element]) -> List[Element]:
    """Return the elements sorted by :func:`stable_key`."""
    return sorted(elements, key=stable_key)


class RelationIndex:
    """Hash indexes over one relation's tuples, built lazily per access pattern.

    A *pattern* is the sorted tuple of positions whose values are bound.
    For each pattern the index keeps a dictionary from the bound values to
    the list of matching tuples (:meth:`table`), so a lookup is a single
    hash probe after the first query with that pattern.
    """

    __slots__ = ("_name", "_arity", "_tuples", "_by_pattern", "_columns")

    def __init__(self, name: str, arity: int, tuples: Iterable[RelationTuple]) -> None:
        self._name = name
        self._arity = arity
        self._tuples: FrozenSet[RelationTuple] = frozenset(tuple(t) for t in tuples)
        self._by_pattern: Dict[Positions, Dict[RelationTuple, List[RelationTuple]]] = {}
        self._columns: Dict[int, FrozenSet[Element]] = {}

    # -- accessors ----------------------------------------------------------
    @property
    def name(self) -> str:
        """The relation's symbol name."""
        return self._name

    @property
    def arity(self) -> int:
        """The relation's arity."""
        return self._arity

    @property
    def tuples(self) -> FrozenSet[RelationTuple]:
        """All tuples of the relation."""
        return self._tuples

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, tup: object) -> bool:
        return tup in self._tuples

    # -- queries ------------------------------------------------------------
    def column(self, position: int) -> FrozenSet[Element]:
        """Return the distinct values occurring at ``position``."""
        if not 0 <= position < self._arity:
            raise IndexError(f"position {position} out of range for arity {self._arity}")
        cached = self._columns.get(position)
        if cached is None:
            cached = frozenset(tup[position] for tup in self._tuples)
            self._columns[position] = cached
        return cached

    def table(self, pattern: Positions) -> Mapping[RelationTuple, Sequence[RelationTuple]]:
        """Return the hash table for a bound-position pattern (sorted positions).

        It maps the values at those positions to the tuples carrying them;
        it is built on first use and reused afterwards.
        """
        table = self._by_pattern.get(pattern)
        if table is None:
            if pattern and not 0 <= pattern[0] <= pattern[-1] < self._arity:
                raise IndexError(
                    f"bound positions {pattern} out of range for arity {self._arity}"
                )
            table = {}
            for tup in self._tuples:
                key = tuple(tup[i] for i in pattern)
                table.setdefault(key, []).append(tup)
            self._by_pattern[pattern] = table
        return table


class StructureIndex:
    """The relation indexes of one structure, bundled.

    Built once per target structure (see :func:`structure_index`) and
    shared by every solver run against that target.
    """

    __slots__ = ("_structure", "_relations", "_sorted_universe")

    def __init__(self, structure: Structure) -> None:
        self._structure = structure
        self._sorted_universe: Optional[Tuple[Element, ...]] = None
        self._relations: Dict[str, RelationIndex] = {
            symbol.name: RelationIndex(
                symbol.name, symbol.arity, structure.relation(symbol.name)
            )
            for symbol in structure.vocabulary
        }

    @property
    def structure(self) -> Structure:
        """The indexed structure."""
        return self._structure

    @property
    def universe(self) -> FrozenSet[Element]:
        """The indexed structure's universe."""
        return self._structure.universe

    @property
    def sorted_universe(self) -> Tuple[Element, ...]:
        """The universe in :func:`stable_sorted` order, sorted on first read.

        A tuple, so no caller can reorder the copy every other caller reads.
        """
        ordered = self._sorted_universe
        if ordered is None:
            ordered = self._sorted_universe = tuple(stable_sorted(self._structure.universe))
        return ordered

    def relation(self, name: str) -> RelationIndex:
        """Return the index of the named relation."""
        try:
            return self._relations[name]
        except KeyError:
            # Targets may interpret more symbols than the source mentions but
            # never fewer; delegate the error for a consistent message.
            self._structure.relation(name)
            raise  # pragma: no cover — relation() above always raises

    def __repr__(self) -> str:
        return f"StructureIndex({self._structure!r})"


@lru_cache(maxsize=32)
def structure_index(structure: Structure) -> StructureIndex:
    """Return a (cached) :class:`StructureIndex` for the structure.

    Structures are immutable and hashable, so the LRU cache is keyed by
    the structure itself.  The bound is deliberately small: each entry
    pins the structure *and* its hash tables in memory for the process
    lifetime, so the cache is sized for a working set of hot databases,
    not for every database a long-running service ever sees.  Call
    ``structure_index.cache_clear()`` to release everything.
    """
    return StructureIndex(structure)
