"""Vocabularies (relational signatures).

A vocabulary is a finite set of relation symbols, each with an arity.  The
paper (Section 2.1) restricts attention to bounded-arity vocabularies; the
classification machinery checks that bound through
:meth:`Vocabulary.max_arity`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple

from repro.exceptions import VocabularyError


class RelationSymbol:
    """A named relation symbol with a fixed arity.

    Two symbols are equal when they have the same name and arity, so
    vocabularies built independently but with the same symbol declarations
    are interchangeable.
    """

    __slots__ = ("_name", "_arity")

    def __init__(self, name: str, arity: int) -> None:
        if not isinstance(name, str) or not name:
            raise VocabularyError("relation symbol name must be a non-empty string")
        if not isinstance(arity, int) or arity < 0:
            raise VocabularyError(f"arity of {name!r} must be a non-negative integer")
        self._name = name
        self._arity = arity

    @property
    def name(self) -> str:
        """The symbol's name."""
        return self._name

    @property
    def arity(self) -> int:
        """The symbol's arity."""
        return self._arity

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSymbol):
            return NotImplemented
        return self._name == other._name and self._arity == other._arity

    def __hash__(self) -> int:
        return hash((self._name, self._arity))

    def __repr__(self) -> str:
        return f"RelationSymbol({self._name!r}, {self._arity})"


class Vocabulary:
    """An immutable finite set of relation symbols.

    Symbols may be declared either as :class:`RelationSymbol` objects or as
    ``(name, arity)`` pairs / a mapping from names to arities.
    """

    __slots__ = ("_symbols",)

    def __init__(
        self,
        symbols: Iterable[RelationSymbol] | Mapping[str, int] = (),
    ) -> None:
        resolved: Dict[str, RelationSymbol] = {}
        if isinstance(symbols, Mapping):
            items: Iterable[RelationSymbol] = (
                RelationSymbol(name, arity) for name, arity in symbols.items()
            )
        else:
            items = symbols
        for symbol in items:
            if not isinstance(symbol, RelationSymbol):
                raise VocabularyError(
                    "vocabulary entries must be RelationSymbol instances or a mapping"
                )
            existing = resolved.get(symbol.name)
            if existing is not None and existing != symbol:
                raise VocabularyError(
                    f"symbol {symbol.name!r} declared with conflicting arities"
                )
            resolved[symbol.name] = symbol
        self._symbols: Dict[str, RelationSymbol] = dict(sorted(resolved.items()))

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_arities(cls, arities: Mapping[str, int]) -> "Vocabulary":
        """Build a vocabulary from a mapping ``{name: arity}``."""
        return cls(arities)

    @classmethod
    def single_binary(cls, name: str = "E") -> "Vocabulary":
        """Return the graph vocabulary ``{E}`` with a single binary symbol."""
        return cls({name: 2})

    # -- queries -----------------------------------------------------------
    def symbol(self, name: str) -> RelationSymbol:
        """Return the symbol called ``name``."""
        try:
            return self._symbols[name]
        except KeyError:
            raise VocabularyError(f"unknown relation symbol {name!r}") from None

    def arity(self, name: str) -> int:
        """Return the arity of the symbol called ``name``."""
        return self.symbol(name).arity

    def names(self) -> Tuple[str, ...]:
        """Return all symbol names in sorted order."""
        return tuple(self._symbols)

    def max_arity(self) -> int:
        """Return the largest arity in the vocabulary (0 when empty)."""
        if not self._symbols:
            return 0
        return max(symbol.arity for symbol in self._symbols.values())

    def extend(self, extra: Mapping[str, int]) -> "Vocabulary":
        """Return a vocabulary with additional symbols added.

        New symbols must not clash (same name, different arity) with
        existing ones.
        """
        merged = {name: symbol.arity for name, symbol in self._symbols.items()}
        for name, arity in extra.items():
            if name in merged and merged[name] != arity:
                raise VocabularyError(
                    f"cannot extend: symbol {name!r} already has arity {merged[name]}"
                )
            merged[name] = arity
        return Vocabulary(merged)

    def restrict(self, names: Iterable[str]) -> "Vocabulary":
        """Return the vocabulary restricted to the given symbol names."""
        keep = set(names)
        unknown = keep - set(self._symbols)
        if unknown:
            raise VocabularyError(f"cannot restrict to unknown symbols {unknown!r}")
        return Vocabulary({name: self._symbols[name].arity for name in keep})

    def includes(self, other: "Vocabulary") -> bool:
        """Return True when every symbol of ``other`` is declared here with
        the same arity."""
        symbols = self._symbols
        return all(symbols.get(name) == symbol for name, symbol in other._symbols.items())

    def __contains__(self, name: object) -> bool:
        return name in self._symbols

    def __iter__(self) -> Iterator[RelationSymbol]:
        return iter(self._symbols.values())

    def __len__(self) -> int:
        return len(self._symbols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash(tuple(self._symbols.values()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{s.name}/{s.arity}" for s in self._symbols.values())
        return f"Vocabulary({{{inner}}})"


#: The vocabulary of (di)graphs: a single binary symbol ``E``.
GRAPH_VOCABULARY = Vocabulary.single_binary("E")
