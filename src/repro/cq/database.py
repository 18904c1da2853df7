"""A small in-memory relational database.

Boolean conjunctive query evaluation (the database-theoretic face of the
homomorphism problem, via Chandra–Merlin) needs a notion of database: a
set of named relations (tables) over a shared domain of values.  The class
here is deliberately minimal — enough to state EVAL(Φ) and to generate
benchmark workloads that look like databases rather than abstract
structures.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple

from repro.exceptions import StructureError, VocabularyError
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

Value = Hashable
Row = Tuple[Value, ...]


class Database:
    """A named collection of relations (tables) over a finite domain.

    Parameters
    ----------
    tables:
        Mapping from relation name to an iterable of rows (tuples of
        values).  All rows of one table must have the same width.
    domain:
        Optional explicit domain; defaults to the set of values occurring
        in the tables.  Must be non-empty.
    """

    def __init__(
        self,
        tables: Mapping[str, Iterable[Row]] = (),
        domain: Iterable[Value] | None = None,
    ) -> None:
        self._tables: Dict[str, List[Row]] = {}
        arities: Dict[str, int] = {}
        values = set(domain or ())
        for name, rows in dict(tables).items():
            stored: List[Row] = []
            for row in rows:
                tup = tuple(row)
                if name in arities and len(tup) != arities[name]:
                    raise StructureError(f"rows of table {name!r} have inconsistent widths")
                arities.setdefault(name, len(tup))
                stored.append(tup)
                values.update(tup)
            self._tables[name] = stored
            arities.setdefault(name, 0)
        if not values:
            raise StructureError("a database needs a non-empty domain")
        self._domain = frozenset(values)
        self._arities = arities

    # -- accessors ----------------------------------------------------------
    @property
    def domain(self) -> frozenset:
        """The active domain of the database."""
        return self._domain

    def table(self, name: str) -> List[Row]:
        """Return the rows of the named table."""
        try:
            return list(self._tables[name])
        except KeyError:
            raise VocabularyError(f"unknown table {name!r}") from None

    def table_names(self) -> List[str]:
        """Return the table names in sorted order."""
        return sorted(self._tables)

    def arity(self, name: str) -> int:
        """Return the width of the named table."""
        if name not in self._arities:
            raise VocabularyError(f"unknown table {name!r}")
        return self._arities[name]

    def number_of_rows(self) -> int:
        """Return the total number of rows across all tables."""
        return sum(len(rows) for rows in self._tables.values())

    # -- conversions --------------------------------------------------------
    def vocabulary(self) -> Vocabulary:
        """Return the vocabulary induced by the tables."""
        return Vocabulary({name: self._arities[name] for name in self._tables})

    def to_structure(self, vocabulary: Vocabulary | None = None) -> Structure:
        """Return the database as a relational structure.

        When a vocabulary is supplied the database is restricted to that
        schema: tables missing from the database are interpreted as empty
        and tables absent from the vocabulary are dropped (a query only
        sees the relations it mentions).  A table without rows has no
        width of its own, so it takes the vocabulary's arity and reads as
        empty, like a missing one; a table with rows present in both with
        a different arity is an error.
        """
        if vocabulary is None:
            vocabulary = self.vocabulary()
        relations: Dict[str, Sequence[Row]] = {}
        for name, rows in self._tables.items():
            if not rows or name not in vocabulary:
                continue
            if vocabulary.arity(name) != self._arities[name]:
                raise VocabularyError(f"table {name!r} has the wrong arity for the vocabulary")
            relations[name] = rows
        return Structure(vocabulary, self._domain, relations)

    @classmethod
    def from_structure(cls, structure: Structure) -> "Database":
        """Build a database from a relational structure."""
        return cls(
            {name: sorted(tuples, key=repr) for name, tuples in structure.relations().items()},
            domain=structure.universe,
        )

    def __repr__(self) -> str:
        tables = ", ".join(f"{name}[{len(rows)}]" for name, rows in sorted(self._tables.items()))
        return f"Database(|dom|={len(self._domain)}, {tables})"
