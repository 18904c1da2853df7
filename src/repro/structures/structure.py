"""Finite relational structures.

A :class:`Structure` is a finite universe together with an interpretation
of every relation symbol of its vocabulary (Section 2.1 of the paper).
Structures are immutable and hashable; all operations that "modify" a
structure return a new one.

The size measure ``|A|`` used as the parameter of ``p-HOM`` follows the
paper: ``|τ| + |A| + Σ_R |R^A| · ar(R)``.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
)

from repro.exceptions import StructureError, VocabularyError
from repro.structures.vocabulary import GRAPH_VOCABULARY, Vocabulary

Element = Hashable
RelationTuple = Tuple[Element, ...]
#: What a structure pickles: vocabulary, universe and relations.
_State = Tuple[Vocabulary, FrozenSet[Element], Dict[str, FrozenSet[RelationTuple]]]


class Structure:
    """An immutable finite relational structure.

    Parameters
    ----------
    vocabulary:
        The structure's vocabulary.
    universe:
        Non-empty iterable of hashable elements.
    relations:
        Mapping from symbol name to an iterable of tuples over the
        universe.  Symbols of the vocabulary that are missing from the
        mapping are interpreted as empty; tuples for unknown symbols raise
        :class:`~repro.exceptions.VocabularyError`.
    """

    __slots__ = ("_vocabulary", "_universe", "_relations", "_hash")

    def __init__(
        self,
        vocabulary: Vocabulary,
        universe: Iterable[Element],
        relations: Mapping[str, Iterable[RelationTuple]] | None = None,
    ) -> None:
        universe_set = frozenset(universe)
        if not universe_set:
            raise StructureError("a structure must have a non-empty universe")
        relations = relations or {}
        interpreted: Dict[str, FrozenSet[RelationTuple]] = {}
        for name in relations:
            if name not in vocabulary:
                raise VocabularyError(f"relation {name!r} is not in the vocabulary")
        for symbol in vocabulary:
            raw_tuples = relations.get(symbol.name, ())
            tuples = set()
            for raw in raw_tuples:
                tup = tuple(raw)
                if len(tup) != symbol.arity:
                    raise StructureError(
                        f"tuple {tup!r} has wrong arity for {symbol.name!r}"
                        f" (expected {symbol.arity})"
                    )
                for element in tup:
                    if element not in universe_set:
                        raise StructureError(
                            f"tuple {tup!r} mentions {element!r} outside the universe"
                        )
                tuples.add(tup)
            interpreted[symbol.name] = frozenset(tuples)
        self._vocabulary = vocabulary
        self._universe = universe_set
        self._relations = interpreted
        self._hash: Optional[int] = None

    # -- accessors ----------------------------------------------------------
    @property
    def vocabulary(self) -> Vocabulary:
        """The structure's vocabulary."""
        return self._vocabulary

    @property
    def universe(self) -> FrozenSet[Element]:
        """The universe as a frozenset."""
        return self._universe

    def relation(self, name: str) -> FrozenSet[RelationTuple]:
        """Return the interpretation of the symbol called ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise VocabularyError(f"unknown relation symbol {name!r}") from None

    def relations(self) -> Dict[str, FrozenSet[RelationTuple]]:
        """Return a copy of the full interpretation mapping."""
        return dict(self._relations)

    def size(self) -> int:
        """Return the paper's size measure ``|A|``.

        ``|A| = |τ| + |universe| + Σ_R |R^A| · ar(R)`` — this is the value
        used as the parameter of ``p-HOM`` and ``p-EMB``.
        """
        total = len(self._vocabulary) + len(self._universe)
        for symbol in self._vocabulary:
            total += len(self._relations[symbol.name]) * symbol.arity
        return total

    def total_tuples(self) -> int:
        """Return the total number of tuples across all relations."""
        return sum(len(tuples) for tuples in self._relations.values())

    # -- predicates ----------------------------------------------------------
    def is_graph_like(self) -> bool:
        """Return True when the vocabulary is the single binary symbol ``E``."""
        return self._vocabulary == GRAPH_VOCABULARY

    def elements_of(self, name: str) -> FrozenSet[Element]:
        """Return all elements occurring in tuples of the given relation."""
        found = set()
        for tup in self.relation(name):
            found.update(tup)
        return frozenset(found)

    # -- structural operations ------------------------------------------------
    def induced_substructure(self, subset: Iterable[Element]) -> "Structure":
        """Return the substructure ``⟨X⟩^A`` induced by ``subset``.

        Keeps exactly those tuples all of whose components lie in
        ``subset``; the subset must be non-empty.
        """
        keep = frozenset(subset)
        if not keep:
            raise StructureError("cannot induce a substructure on the empty set")
        unknown = keep - self._universe
        if unknown:
            raise StructureError(f"unknown elements in substructure request: {unknown!r}")
        relations = {
            name: {tup for tup in tuples if all(x in keep for x in tup)}
            for name, tuples in self._relations.items()
        }
        return Structure(self._vocabulary, keep, relations)

    def restrict_vocabulary(self, names: Iterable[str]) -> "Structure":
        """Return the restriction of the structure to the given symbols."""
        keep = list(names)
        new_vocab = self._vocabulary.restrict(keep)
        relations = {name: self._relations[name] for name in keep}
        return Structure(new_vocab, self._universe, relations)

    def expand(
        self,
        extra_symbols: Mapping[str, int],
        extra_relations: Mapping[str, Iterable[RelationTuple]],
    ) -> "Structure":
        """Return an expansion interpreting additional symbols.

        ``extra_symbols`` maps new symbol names to arities;
        ``extra_relations`` supplies their interpretations (missing ones are
        empty).
        """
        new_vocab = self._vocabulary.extend(extra_symbols)
        relations: Dict[str, Iterable[RelationTuple]] = dict(self._relations)
        for name, tuples in extra_relations.items():
            if name not in new_vocab:
                raise VocabularyError(f"expansion relation {name!r} was not declared")
            relations[name] = tuples
        return Structure(new_vocab, self._universe, relations)

    def relabel(self, mapping: Mapping[Element, Element]) -> "Structure":
        """Return an isomorphic copy with elements renamed through ``mapping``.

        Elements missing from ``mapping`` keep their labels; the resulting
        renaming must be injective.
        """
        def rename(x: Element) -> Element:
            return mapping.get(x, x)

        new_universe = [rename(x) for x in self._universe]
        if len(set(new_universe)) != len(self._universe):
            raise StructureError("relabel mapping is not injective on the universe")
        relations = {
            name: {tuple(rename(x) for x in tup) for tup in tuples}
            for name, tuples in self._relations.items()
        }
        return Structure(self._vocabulary, new_universe, relations)

    # -- dunder -----------------------------------------------------------------
    def __contains__(self, element: object) -> bool:
        return element in self._universe

    def __len__(self) -> int:
        return len(self._universe)

    def __iter__(self) -> Iterator[Element]:
        return iter(self._universe)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self._vocabulary == other._vocabulary
            and self._universe == other._universe
            and self._relations == other._relations
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    self._vocabulary,
                    self._universe,
                    tuple(sorted((k, v) for k, v in self._relations.items())),
                )
            )
        return self._hash

    def __getstate__(self) -> _State:
        # The cached hash stays out of the pickle: ``str`` hashing is salted
        # per process, so a receiver hashes the structure itself.
        return self._vocabulary, self._universe, self._relations

    def __setstate__(self, state: _State) -> None:
        self._vocabulary, self._universe, self._relations = state
        self._hash = None

    def __repr__(self) -> str:
        rels = ", ".join(
            f"{name}:{len(tuples)}" for name, tuples in sorted(self._relations.items())
        )
        return f"Structure(|A|={len(self._universe)}, {{{rels}}})"
